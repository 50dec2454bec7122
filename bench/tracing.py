"""In-memory span tracer that wraps the library's public functions.

Spans are recorded from the benchmark's side of each layer boundary: the
tracer rebinds module attributes (including the names ``solver`` and
``rates`` import directly from other modules), the ``ForwardOp`` methods and
the validation hooks of the spec and field dataclasses.  ``uninstall``
restores every original binding.

A span is a name code, start, end, ``parent`` (index of the enclosing span,
-1 at top level) and ``op``, the operation it belongs to (0 is the traced
set-up, 1.. the traced operations).  Spans stay in memory, in flat typed
arrays (a traced sweep records about a million), until :meth:`Tracer.save`.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

import numpy as np

import coupledrec.coupling as coupling
import coupledrec.diffops as diffops
import coupledrec.discrepancy as discrepancy
import coupledrec.forward as forward
import coupledrec.grids as grids
import coupledrec.problem as problem
import coupledrec.rates as rates
import coupledrec.solver as solver

now = time.perf_counter


def _projection_name(z, alpha=None, coupling_kind="frobenius", *_, **kw):
    if isinstance(z, grids.SymTensorField):
        return "coupling.project_sym"
    return f"coupling.project_{kw.get('coupling', coupling_kind)}"


def _pointwise_name(z, coupling_kind="frobenius", *_, **kw):
    return f"grids.pointwise_{kw.get('coupling', coupling_kind)}"


class Tracer:
    def __init__(self):
        self.codes: dict[str, int] = {}  # span name -> code
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.ops = array("i")
        self.op = 0
        self.enabled = True
        self.iterations = Counter()  # op -> solver iterations
        self.unconverged = Counter()  # op -> unconverged solves
        self.fields = Counter()  # op -> field-wrapper constructions
        self.opsets: set = set()  # (op, operator ids) seen by the norm estimate
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, on_result=None, on_call=None):
        """``name`` is a string or a function of the call's arguments."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(self.start)
            self.name.append(self.codes.setdefault(label, len(self.codes)))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = now()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _rebind(self, owners, attr, name, **hooks):
        original = getattr(owners[0], attr)
        wrapped = self._wrap(name, original, **hooks)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not {owners[0].__name__}.{attr}")
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def _count_fields(self, cls):
        original = cls.__post_init__

        def counted(obj):
            if self.enabled:
                self.fields[self.op] += 1
            original(obj)

        self._undo.append((cls, "__post_init__", original))
        cls.__post_init__ = counted

    def _on_solve(self, result):
        self.iterations[self.op] += result.state.iteration
        self.unconverged[self.op] += not result.converged

    def _on_norm_estimate(self, spec, *_, **__):
        self.opsets.add((self.op, tuple(id(c.op) for c in spec.channels)))

    def install(self) -> None:
        sv, rt, dq, df, gr, cp = solver, rates, discrepancy, diffops, grids, coupling
        self._rebind([sv, rt], "solve", "solver.solve", on_result=self._on_solve)
        self._rebind([sv], "pd_step", "solver.pd_step")
        self._rebind(
            [sv], "estimate_saddle_norm", "solver.norm_estimate", on_call=self._on_norm_estimate
        )
        self._rebind([sv], "check_affine_injectivity", "solver.affine_check")
        self._rebind([sv], "primal_energy", "solver.primal_energy")
        self._rebind([sv, rt], "channel_data_term", "solver.channel_data_term")
        self._rebind([sv, rt], "regularizer_value", "solver.regularizer_value")
        self._rebind([cp], "project_dual_ball", _projection_name)
        self._rebind([cp], "haar_forward", "coupling.haar_forward")
        self._rebind([cp], "haar_inverse", "coupling.haar_inverse")
        self._rebind([cp], "project_group_l2ball", "coupling.group_ball")
        self._rebind([gr, sv], "pointwise_norms", _pointwise_name)
        self._rebind([gr, sv, rt], "inner_product", "grids.inner_product")
        for fn in ("grad", "div", "sym_grad", "sym_div"):
            self._rebind([df, sv], fn, f"diffops.{fn}")
        self._rebind([df, sv], "op_norm_estimate", "diffops.power_iter")
        for method in ("apply", "adjoint"):
            self._rebind(
                [forward.ForwardOp], method, lambda op, *_, m=method, **__: f"forward.{op.kind}.{m}"
            )
        self._rebind([forward], "radon_op", "forward.radon.build")
        self._rebind([dq, sv], "prox_l2_dual", "discrepancy.prox_l2_dual")
        self._rebind([dq, sv], "prox_kl_dual", "discrepancy.prox_kl_dual")
        self._rebind([dq, sv], "eval_kl", "discrepancy.eval_kl")
        self._rebind([dq, sv], "eval_l2sq", "discrepancy.eval_l2sq")
        self._rebind([dq, rt], "add_gaussian_noise", "discrepancy.noise")
        self._rebind([dq, rt], "add_poisson_noise", "discrepancy.noise")
        self._rebind([rt], "run_rate_experiment", "rates.run_rate_experiment")
        for cls in (problem.ChannelSpec, problem.ProblemSpec):
            self._rebind([cls], "__post_init__", "problem.validate")
        for cls in (grids.MultiImage, grids.VectorField, grids.SymTensorField):
            self._count_fields(cls)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def suspended(self):
        """Run the benchmark's own checks without recording them."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(list(self.codes)),
            "name": np.asarray(self.name),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "parent": np.asarray(self.parent),
            "op": np.asarray(self.ops),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())
