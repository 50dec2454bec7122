"""Committed outcomes: a change that moves any result by one ulp must say so.

``outcomes.json`` holds, for five solves, the sha256 of the returned u (and
v), the final energy and the iteration count:

* the three benchmark workloads at their benchmark set-up and seed 1 (a
  sweep records the digest of the benchmark's fingerprint of its table, the
  sum of its solves' objectives and the sum of their iterations);
* one instance of criterion 07's identity sweep;
* criterion 09's joint problem at seed 0.

The digests are exact only for the numpy and scipy versions the file
records; under other versions the energies are compared at ``OTHER_RTOL``.
The solves run with the OpenBLAS that numpy and scipy bundle pinned to the
file's ``blas_threads``, as the benchmark pins it, whatever count the process
started with: the benchmark set-up scales its noise by ``np.linalg.norm``, an
OpenBLAS dot whose partial sums OpenBLAS splits by its thread count.
A change that moves an entry rewrites the file in the same commit and names
the cause.  To rewrite it:

    PYTHONPATH=src python tests/test_outcomes.py
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from coupledrec.cli import random_fourier_mask
from coupledrec.discrepancy import add_gaussian_noise, add_poisson_noise
from coupledrec.forward import default_n_bins, identity_op, masked_fourier_op, radon_op
from coupledrec.grids import Grid
from coupledrec.problem import TGV2, ChannelSpec, ProblemSpec, Quadratic
from coupledrec.rates import RateRule, choose_lambdas, phantom
from coupledrec.solver import SolveConfig, primal_energy, solve

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

RECORD = Path(__file__).resolve().parent / "outcomes.json"
OTHER_RTOL = 1e-9
BLAS_THREADS = 1


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _solved(spec, cfg) -> dict:
    result = solve(spec, cfg)
    out = {"u_sha256": _sha256(result.u.values)}
    if result.v is not None:
        out["v_sha256"] = _sha256(result.v.values)
    out["energy"] = primal_energy(spec, result.u, result.v)
    out["iterations"] = result.state.iteration
    return out


def _workload(name: str) -> dict:
    w = workloads.WORKLOADS[name]
    inputs = w.setup(1)
    result = w.run(inputs)
    if name == "rates_mixed_kl_64":
        table, _ = result
        return {
            "fingerprint_sha256": w.fingerprint(result).hex(),
            "energy": w.energy(inputs, result),
            "iterations": sum(r.iterations for r in table.rows),
        }
    out = {"u_sha256": _sha256(result.u.values)}
    if result.v is not None:
        out["v_sha256"] = _sha256(result.v.values)
    out["energy"] = w.energy(inputs, result)
    out["iterations"] = result.state.iteration
    return out


def _identity_sweep_instance() -> dict:
    """Criterion 07's sweep at its coarsest level, delta = 0.1, one noise draw."""
    grid = Grid((32, 32))
    truth = phantom("smooth_bump", grid, 2)
    rule = RateRule(kind="two_norm", mu=(1.0, 2.0))
    data, realized = [], []
    for i, mu in enumerate(rule.mu):
        clean = truth.channel(i).reshape(-1)
        noise = add_gaussian_noise(clean, 0.1**mu * float(np.linalg.norm(clean)), seed=i)
        data.append(noise.data)
        realized.append(noise.delta)
    lams = choose_lambdas(rule, realized, ["l2", "l2"])
    spec = ProblemSpec(
        grid=grid,
        channels=tuple(
            ChannelSpec(op=identity_op(grid), data=f, lam=float(lam), kind="l2")
            for f, lam in zip(data, lams)
        ),
        regularizer=Quadratic(0.05),
    )
    return _solved(spec, SolveConfig(max_iters=4000, tol=1e-12, diag_every=4000))


def _criterion_09_joint() -> dict:
    """Criterion 09's joint Fourier/L2 + Radon/KL solve at seed 0, its full budget."""
    grid = Grid((32, 32))
    truth = phantom("shared_edges_disc", grid, 2)
    radon = radon_op(grid, np.arange(12) * np.pi / 12, default_n_bins(grid))
    fourier = masked_fourier_op(grid, random_fourier_mask(grid.dims, 0.25, 100, center_bias=0.0))
    f_fourier = fourier.apply(truth.channel(0))
    f_radon = radon.apply(truth.channel(1))
    data_f = add_gaussian_noise(f_fourier, 0.05 * float(np.linalg.norm(f_fourier)), 1).data
    data_r = np.maximum(add_poisson_noise(f_radon, 150.0, 2).data, 0.0)
    spec = ProblemSpec(
        grid=grid,
        channels=(
            ChannelSpec(op=fourier, data=data_f, lam=50.0, kind="l2"),
            ChannelSpec(op=radon, data=data_r, lam=20.0, kind="kl"),
        ),
        regularizer=TGV2(2.0, 1.0, "nuclear"),
    )
    return _solved(spec, SolveConfig(max_iters=3000, tol=1e-12, diag_every=10**9))


OUTCOMES = {
    "joint_tgv_nuclear_64": lambda: _workload("joint_tgv_nuclear_64"),
    "rates_mixed_kl_64": lambda: _workload("rates_mixed_kl_64"),
    "wavelet_deblur_128": lambda: _workload("wavelet_deblur_128"),
    "identity_sweep_level0": _identity_sweep_instance,
    "criterion_09_joint_seed0": _criterion_09_joint,
}


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _bundled_openblas():
    """The (get, set) thread-count functions of each OpenBLAS that numpy and
    scipy bundle (numpy's has the 64-bit interface's suffix)."""
    for mod in (np, scipy):
        libs = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    yield get, put
                    break


@contextlib.contextmanager
def _blas_threads(n: int):
    """Run the block with every bundled OpenBLAS at ``n`` threads, and yield
    the counts they then report; the old counts are restored afterwards."""
    blas = list(_bundled_openblas())
    old = [get() for get, _ in blas]
    try:
        for _, put in blas:
            put(n)
        yield [get() for get, _ in blas]
    finally:
        for (_, put), k in zip(blas, old):
            put(k)


@pytest.mark.parametrize("name", list(OUTCOMES))
def test_outcome_matches_the_committed_record(name):
    record = json.loads(RECORD.read_text())
    with _blas_threads(record["blas_threads"]) as threads:
        got = OUTCOMES[name]()
    want = record["entries"][name]
    if record["versions"] == _versions():
        assert threads and set(threads) == {record["blas_threads"]}
        assert got == want
    else:
        assert got["energy"] == pytest.approx(want["energy"], rel=OTHER_RTOL)


if __name__ == "__main__":
    with _blas_threads(BLAS_THREADS):
        entries = {name: outcome() for name, outcome in OUTCOMES.items()}
    record = {"versions": _versions(), "blas_threads": BLAS_THREADS, "entries": entries}
    RECORD.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {RECORD}")
