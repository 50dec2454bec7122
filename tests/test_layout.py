"""The field functions against the site-major kernels they were built on.

The kernels work on component-major arrays, ``tail + (N,) + dims``; the
field functions convert at their boundary.  Below are the site-major
kernels, ``(*dims, N) + tail``, that the component-major ones replaced, kept
verbatim as references: the arithmetic of every element and its order are
the same, so each field function must give bitwise their result.
"""

import numpy as np
import pytest

from coupledrec.coupling import (
    haar_forward,
    haar_inverse,
    project_dual_ball,
    project_group_l2ball,
)
from coupledrec.diffops import div, grad, grad_array, sym_div, sym_grad
from coupledrec.forward import identity_op
from coupledrec.grids import (
    Grid,
    MultiImage,
    SymTensorField,
    VectorField,
    component_major,
    pointwise_norms,
    site_major,
    sym_index_pairs,
)
from coupledrec.problem import ChannelSpec, ProblemSpec, Quadratic, TGV2
from coupledrec.rates import bregman_quadratic
from coupledrec.solver import SolveConfig, primal_energy, regularizer_value, solve

# --- the site-major kernels ---------------------------------------------------


def _sl(ndim, axis, s):
    out = [slice(None)] * ndim
    out[axis] = s
    return tuple(out)


def _diff(a, axis, h, lo):
    nd, m = a.ndim, a.shape[axis] - lo
    out = np.zeros_like(a)
    if m > 1:
        rows = out[_sl(nd, axis, slice(lo, lo + m - 1))]
        np.subtract(a[_sl(nd, axis, slice(1, m))], a[_sl(nd, axis, slice(0, m - 1))], out=rows)
        rows /= h
    return out


def _diff_t(y, axis, h, lo):
    nd, n = y.ndim, y.shape[axis]
    m = n - lo
    pad = np.zeros(y.shape[:axis] + (n + 1,) + y.shape[axis + 1 :])
    pad[_sl(nd, axis, slice(1, m))] = y[_sl(nd, axis, slice(lo, lo + m - 1))]
    return (pad[_sl(nd, axis, slice(None, -1))] - pad[_sl(nd, axis, slice(1, None))]) / h


def _grad_array(values, spacing):
    out = np.empty(values.shape + (len(spacing),))
    for a, h in enumerate(spacing):
        out[..., a] = _diff(values, a, h, 0)
    return out


def _div_array(values, spacing):
    out = np.zeros(values.shape[:-1])
    for a, h in enumerate(spacing):
        out -= _diff_t(values[..., a], a, h, 0)
    return out


def _sym_grad_array(values, spacing):
    d = len(spacing)
    jac = [[_diff(values[..., a], b, spacing[b], 1) for b in range(d)] for a in range(d)]
    pairs = sym_index_pairs(d)
    out = np.empty(values.shape[:-1] + (len(pairs),))
    for k, (a, b) in enumerate(pairs):
        out[..., k] = jac[a][a] if a == b else 0.5 * (jac[a][b] + jac[b][a])
    return out


def _sym_div_array(values, spacing):
    d = len(spacing)
    full = [[None] * d for _ in range(d)]
    for k, (a, b) in enumerate(sym_index_pairs(d)):
        full[a][b] = full[b][a] = values[..., k]
    out = np.empty(values.shape[:-1] + (d,))
    for a in range(d):
        acc = np.zeros(values.shape[:-1])
        for b, h in enumerate(spacing):
            acc -= _diff_t(full[a][b], b, h, 1)
        out[..., a] = acc
    return out


def _block_sum_squares(values, weights=None):
    n, k = values.shape[-2:]
    total = None
    for i in range(n):
        for j in range(k):
            sq = values[..., i, j] ** 2
            if weights is not None:
                sq *= weights[j]
            if total is None:
                total = sq
            else:
                total += sq
    return total


def _nuclear_norms_2d(values):
    x, y = values[..., 0], values[..., 1]
    det = np.zeros(values.shape[:-2])
    n = values.shape[-2]
    for i in range(n):
        for j in range(i + 1, n):
            det += (x[..., i] * y[..., j] - x[..., j] * y[..., i]) ** 2
    return np.sqrt(_block_sum_squares(values) + 2.0 * np.sqrt(det)).reshape(-1)


def _pointwise_norms_array(values, coupling="frobenius", weights=None):
    if coupling == "frobenius":
        return np.sqrt(_block_sum_squares(values, weights)).reshape(-1)
    if coupling == "nuclear" and values.shape[-1] == 2:
        return _nuclear_norms_2d(values)
    if coupling == "nuclear":
        blocks = values.reshape((-1,) + values.shape[-2:]).transpose(0, 2, 1)
        return np.linalg.svd(blocks, compute_uv=False).sum(axis=-1)
    raise ValueError(f"unknown coupling {coupling!r}")


def _gram_2x2(values):
    x, y = values[..., 0], values[..., 1]
    a, c = _block_sum_squares(x[..., None]), _block_sum_squares(y[..., None])
    b = x[..., 0] * y[..., 0]
    for n in range(1, x.shape[-1]):
        b += x[..., n] * y[..., n]
    h = 0.5 * (a - c)
    return x, y, h, b, np.hypot(h, b), 0.5 * (a + c)


def _clip_singular_values(values, alpha):
    if values.shape[-1] != 2:
        u, s, vt = np.linalg.svd(np.swapaxes(values, -1, -2), full_matrices=False)
        np.minimum(s, alpha, out=s)
        return np.einsum("...ik,...k,...kn->...ni", u, s, vt)
    x, y, h, b, r, mid = _gram_2x2(values)
    f1 = alpha / np.maximum(np.sqrt(mid + r), alpha)
    f2 = alpha / np.maximum(np.sqrt(np.maximum(mid - r, 0.0)), alpha)
    g = 0.5 * (f1 - f2)
    hr = np.divide(h, r, out=np.zeros_like(r), where=r > 0)
    br = np.divide(b, r, out=np.zeros_like(r), where=r > 0)
    m00 = (f2 + g * (1.0 + hr))[..., None]
    m11 = (f2 + g * (1.0 - hr))[..., None]
    m01 = (g * br)[..., None]
    return np.stack([m00 * x + m01 * y, m01 * x + m11 * y], axis=-1)


def _project_dual_ball_array(values, alpha, coupling="frobenius", weights=None):
    if coupling == "frobenius":
        norms = _pointwise_norms_array(values, weights=weights)
        return values / np.maximum(1.0, norms.reshape(values.shape[:-2] + (1, 1)) / alpha)
    return _clip_singular_values(values, alpha)


_SQRT2 = np.sqrt(2.0)


def _haar_step(block, axis, inverse):
    head = (slice(None),) * axis
    n = block.shape[axis] // 2
    interleaved = head + (slice(0, None, 2),), head + (slice(1, None, 2),)
    halves = head + (slice(0, n),), head + (slice(n, None),)
    src, dst = (halves, interleaved) if inverse else (interleaved, halves)
    a, b = block[src[0]], block[src[1]]
    block[dst[0]], block[dst[1]] = (a + b) / _SQRT2, (a - b) / _SQRT2


def _haar_levels(values, levels, inverse):
    dims = values.shape[:-1]
    vals = values.copy()
    for k in reversed(range(levels)) if inverse else range(levels):
        block = vals[tuple(slice(0, n >> k) for n in dims)]
        for ax in range(len(dims)):
            _haar_step(block, ax, inverse)
    return vals


# --- the comparisons ----------------------------------------------------------

# the last four grids have a length-1 axis
GRIDS = [
    Grid((7,)),
    Grid((5, 6), (0.7, 1.3)),
    Grid((4, 3, 5), (1.0, 0.5, 2.0)),
    Grid((1,)),
    Grid((1, 5)),
    Grid((5, 1), (2.0, 0.3)),
    Grid((3, 2, 1)),
]
CHANNELS = [1, 2, 3]


def _random(kind, grid, channels, seed):
    rng = np.random.default_rng(seed)
    return kind(grid, rng.standard_normal(grid.dims + (channels,) + kind.tail(grid.ndim)))


def _same(field, expected):
    assert field.values.shape == expected.shape
    assert field.values.tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize("channels", CHANNELS)
@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: str(g.dims))
def test_difference_maps_match_the_site_major_kernels(grid, channels):
    h = grid.spacing
    u = _random(MultiImage, grid, channels, 1)
    p = _random(VectorField, grid, channels, 2)
    q = _random(SymTensorField, grid, channels, 3)
    _same(grad(u), _grad_array(u.values, h))
    _same(div(p), _div_array(p.values, h))
    _same(sym_grad(p), _sym_grad_array(p.values, h))
    _same(sym_div(q), _sym_div_array(q.values, h))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: str(g.dims))
def test_difference_maps_keep_the_sign_of_zero(grid):
    # entries of +-0 and +-1 only, so that many differences are signed zeros,
    # which must come out with the reference's signs too
    rng = np.random.default_rng(8)

    def signed(kind):
        shape = grid.dims + (2,) + kind.tail(grid.ndim)
        return kind(grid, rng.choice([0.0, -0.0, 1.0, -1.0], size=shape))

    h = grid.spacing
    u, p, q = signed(MultiImage), signed(VectorField), signed(SymTensorField)
    _same(grad(u), _grad_array(u.values, h))
    _same(div(p), _div_array(p.values, h))
    _same(sym_grad(p), _sym_grad_array(p.values, h))
    _same(sym_div(q), _sym_div_array(q.values, h))


@pytest.mark.parametrize(
    "grid",
    [
        Grid((4, 5)),
        Grid((3, 4, 5)),
        pytest.param(Grid((4, 5), (1.0, 2.0)), id="(4, 5) h=(1, 2)"),
    ],
    ids=lambda g: str(g.dims),
)
def test_difference_maps_warn_only_where_a_true_difference_overflows(grid):
    # the last component of each field runs from +1e308 to -1e308 along the
    # last axis, the other way in channel 1, and the other components are
    # zero: no true difference, nor any sum of them, overflows, but the last
    # site of one row less the first of the next does, and so does the first
    # row of channel 1 less the last of channel 0.  The maps skip the
    # division at unit spacing only, so one grid divides along one axis and
    # not the other; its spacing is 2, as one below 1 would make true
    # differences overflow.
    ramp = 1e308 * np.linspace(1.0, -1.0, grid.dims[-1])

    def ramps(kind):
        values = np.zeros(grid.dims + (2,) + kind.tail(grid.ndim))
        last = values[..., -1] if kind.tail(grid.ndim) else values
        last[:] = ramp.reshape((-1, 1)) * [1.0, -1.0]
        return kind(grid, values)

    h = grid.spacing
    u, p, q = ramps(MultiImage), ramps(VectorField), ramps(SymTensorField)
    _same(grad(u), _grad_array(u.values, h))
    _same(div(p), _div_array(p.values, h))
    _same(sym_grad(p), _sym_grad_array(p.values, h))
    _same(sym_div(q), _sym_div_array(q.values, h))
    # a true difference that overflows still warns
    steep = np.array([[[1e308, -1e308], [0.0, 0.0]]])
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert grad_array(steep, (1.0, 1.0))[1, 0, 0, 0] == -np.inf


@pytest.mark.parametrize("channels", CHANNELS)
@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: str(g.dims))
def test_norms_and_projections_match_the_site_major_kernels(grid, channels):
    p = _random(VectorField, grid, channels, 4)
    q = _random(SymTensorField, grid, channels, 5)
    w = q.weights(grid.ndim)
    for z, weights, couplings in ((p, None, ("frobenius", "nuclear")), (q, w, ("frobenius",))):
        for coupling in couplings:
            norms = pointwise_norms(z, coupling)
            assert norms.tobytes() == _pointwise_norms_array(z.values, coupling, weights).tobytes()
            # a radius inside the spread of the norms: some sites clip, some not
            alpha = float(np.median(norms))
            expected = _project_dual_ball_array(z.values, alpha, coupling, weights)
            _same(project_dual_ball(z, alpha, coupling), expected)
    s = _random(MultiImage, grid, channels, 6)
    alpha = float(np.median(np.abs(s.values)))
    expected = _project_dual_ball_array(s.values[..., None], alpha).reshape(s.values.shape)
    _same(project_group_l2ball(s, alpha), expected)


@pytest.mark.parametrize("channels", CHANNELS)
@pytest.mark.parametrize("dims", [(8,), (8, 4), (4, 8, 4)], ids=str)
@pytest.mark.parametrize("levels", [1, 2])
def test_haar_matches_the_site_major_kernel(dims, levels, channels):
    u = _random(MultiImage, Grid(dims), channels, 7)
    _same(haar_forward(u, levels), _haar_levels(u.values, levels, inverse=False))
    _same(haar_inverse(u, levels), _haar_levels(u.values, levels, inverse=True))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: str(g.dims))
def test_layouts_are_inverse_views(grid):
    for kind in (MultiImage, VectorField, SymTensorField):
        field = _random(kind, grid, 2, 8)
        cm = field.cm_values
        assert np.shares_memory(cm, field.values)
        assert cm.shape == kind.tail(grid.ndim) + (2,) + grid.dims
        assert site_major(cm, grid.ndim).tobytes() == field.values.tobytes()
        assert np.array_equal(component_major(field.values, grid.ndim), cm)
        assert kind.from_cm(grid, cm).values.tobytes() == field.values.tobytes()


@pytest.mark.parametrize("reg", [Quadratic(0.5), TGV2(2.0, 1.0, "nuclear")], ids=str)
def test_sums_over_a_result_do_not_depend_on_its_memory_layout(reg):
    # a result's fields are views of component-major iterates; the sums read
    # from them must be bitwise those of site-major copies
    g = Grid((6, 5))
    rng = np.random.default_rng(0)
    spec = ProblemSpec(
        grid=g,
        channels=tuple(
            ChannelSpec(op=identity_op(g), data=rng.random(g.sites) + 0.1, lam=2.0, kind=kind)
            for kind in ("l2", "kl")
        ),
        regularizer=reg,
    )

    def copied(field):
        return None if field is None else type(field)(g, field.values.copy())

    # entries of many magnitudes, so that the order of a sum shows in its rounding
    scales = 10.0 ** rng.integers(-6, 7, (2,) + g.dims)
    u = MultiImage.from_cm(g, rng.random((2,) + g.dims) * scales)
    v = None
    if isinstance(reg, TGV2):
        v = VectorField.from_cm(g, rng.standard_normal((2, 2) + g.dims))
    assert regularizer_value(spec, u, v) == regularizer_value(spec, copied(u), copied(v))
    assert primal_energy(spec, u, v) == primal_energy(spec, copied(u), copied(v))
    truth = MultiImage(g, rng.random(g.dims + (2,)))
    assert bregman_quadratic(u, truth, 0.5) == bregman_quadratic(copied(u), truth, 0.5)
    # a diagnostics row sums the iterates themselves
    res = solve(spec, SolveConfig(max_iters=15, tol=0.0, diag_every=1))
    assert res.diagnostics.reg_value[-1] == regularizer_value(spec, copied(res.u), copied(res.v))
