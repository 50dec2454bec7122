import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledrec.coupling import project_dual_ball_array
from coupledrec.discrepancy import (
    add_gaussian_noise,
    add_poisson_noise,
    eval_kl,
    eval_l2sq,
    poisson_scale_for_delta,
    prox_kl_dual,
    prox_l2_dual,
)
from coupledrec.rates import fit_loglog_slope


def golden_min(fun, lo, hi, tol=1e-12, iters=200):
    """Golden-section minimizer for a unimodal scalar function."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    for _ in range(iters):
        if fun(c) < fun(d):
            b = d
        else:
            a = c
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        if b - a < tol:
            break
    return 0.5 * (a + b)


# --- evaluation ---------------------------------------------------------------


def test_l2sq_basics():
    assert eval_l2sq([1.0, 2.0], [0.0, 0.0]) == pytest.approx(5.0)
    assert eval_l2sq([3.0, -1.0], [3.0, -1.0]) == 0.0


def test_l2sq_matches_loop():
    rng = np.random.default_rng(0)
    v, f = rng.standard_normal(100), rng.standard_normal(100)
    naive = sum((a - b) ** 2 for a, b in zip(v, f))
    assert eval_l2sq(v, f) == pytest.approx(naive, rel=1e-12)


def test_kl_zero_at_equal():
    f = np.array([0.5, 1.0, 2.0])
    assert eval_kl(f, f) == 0.0


def test_kl_infinite_cases():
    assert eval_kl([0.0], [1.0]) == np.inf
    assert eval_kl([-0.1, 1.0], [1.0, 1.0]) == np.inf
    assert eval_kl([1.0], [-1.0]) == np.inf


def test_kl_zero_f_convention():
    # 0*log(a/0) = 0, so bins with f = 0 contribute just v
    assert eval_kl([2.0, 1.0], [0.0, 1.0]) == pytest.approx(2.0)


def test_kl_scalar_value():
    assert eval_kl([2.0], [1.0]) == pytest.approx(1.0 - np.log(2.0))


@given(
    st.lists(st.floats(0.01, 50.0), min_size=1, max_size=20),
    st.lists(st.floats(0.01, 50.0), min_size=1, max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_kl_nonnegative(v, f):
    n = min(len(v), len(f))
    assert eval_kl(v[:n], f[:n]) >= 0.0


def test_kl_l1_inequality_1000_pairs():
    # ||v - f||_1^2 <= (2/3 ||f||_1 + 4/3 ||v||_1) * KL(v, f)
    rng = np.random.default_rng(42)
    violations = 0
    for _ in range(1000):
        n = rng.integers(1, 30)
        v = rng.gamma(1.5, 2.0, n) + 1e-9
        f = rng.gamma(1.5, 2.0, n) + 1e-9
        lhs = np.sum(np.abs(v - f)) ** 2
        rhs = (2.0 / 3.0 * f.sum() + 4.0 / 3.0 * v.sum()) * eval_kl(v, f)
        if lhs > rhs * (1.0 + 1e-12) + 1e-12:
            violations += 1
    assert violations == 0


def test_kl_continuity_bound():
    # perturbing the second argument moves KL by at most C * KL(f_dagger, f)^(1/2)
    # when v is pinched between multiples of f_dagger; the constant comes from
    # the log-ratio bound combined with the l1 estimate above
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = rng.integers(2, 25)
        f_dag = rng.gamma(2.0, 1.0, n) + 0.05
        ratio = rng.uniform(0.5, 2.0, n)
        v = f_dag * ratio
        f = f_dag * rng.uniform(0.8, 1.25, n)
        kl_ff = eval_kl(f_dag, f)
        lhs = abs(eval_kl(v, f) - eval_kl(v, f_dag))
        logs = np.abs(np.log(v / f_dag)).max()
        c = logs * np.sqrt(2.0 / 3.0 * max(f.sum(), f_dag.sum()) + 4.0 / 3.0 * f_dag.sum())
        # the bound also carries the direct |f - f_dag| log-ratio term
        lin = float(np.sum(np.abs(f - f_dag)) * logs)
        assert lhs <= c * np.sqrt(kl_ff) + lin + 1e-9


# --- dual proximal maps -------------------------------------------------------


def test_prox_l2_dual_formula():
    # denominator uses 2*lambda so the data term is exactly lam*||.-f||^2:
    # the scalar objective lam*t^2 has conjugate r^2/(4 lam)
    out = prox_l2_dual(np.array([2.0]), sigma=1.0, lam=1.0)
    assert out[0] == pytest.approx(2.0 / 1.5)


def test_prox_l2_dual_large_lambda_limit():
    fhat = np.array([3.7, -2.0])
    out = prox_l2_dual(fhat, sigma=1.0, lam=1e12)
    np.testing.assert_allclose(out, fhat, atol=1e-9)


def test_prox_l2_dual_moreau_oracle():
    # prox of the conjugate via Moreau: prox_{sF*}(x) = x - s*prox_{F/s}(x/s),
    # and prox_{F/s} of F(t) = lam*t^2 is z/(1 + 2*lam/s) in closed form
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x = rng.uniform(-10, 10)
        s = rng.uniform(0.05, 5.0)
        lam = rng.uniform(0.05, 50.0)
        primal = (x / s) / (1.0 + 2.0 * lam / s)
        oracle = x - s * primal
        got = prox_l2_dual(np.array([x]), s, lam)[0]
        assert got == pytest.approx(oracle, abs=1e-10)


def test_prox_kl_dual_formula_points():
    assert prox_kl_dual(np.array([1.0]), np.array([1.0]), 1.0, 1.0)[0] == pytest.approx(0.0)
    # f = 0 reduces to min(rhat, lam)
    assert prox_kl_dual(np.array([5.0]), np.array([0.0]), 1.0, 3.0)[0] == pytest.approx(3.0)
    assert prox_kl_dual(np.array([2.0]), np.array([0.0]), 1.0, 3.0)[0] == pytest.approx(2.0)


def test_prox_kl_dual_domain_constraint():
    rng = np.random.default_rng(2)
    rhat = rng.uniform(-5, 20, 500)
    f = rng.uniform(0.01, 10, 500)
    out = prox_kl_dual(rhat, f, 0.7, 2.5)
    assert np.all(out < 2.5)


def test_prox_kl_dual_golden_section_oracle():
    # brute-force the primal prox of (lam/sigma)*KL(., f) pointwise, then
    # map through the Moreau identity
    rng = np.random.default_rng(3)
    for _ in range(1000):
        x = rng.uniform(-5, 15)
        s = rng.uniform(0.1, 4.0)
        lam = rng.uniform(0.1, 20.0)
        f = rng.uniform(0.01, 10.0)

        def objective(t):
            return 0.5 * (t - x / s) ** 2 + (lam / s) * (t - f - f * np.log(t / f))

        def slope(t):
            return t - x / s + (lam / s) * (1.0 - f / t)

        hi = max(x / s, 0.0) + f + 3 * lam / s + 10.0
        t_star = golden_min(objective, 1e-12, hi)
        # the objective is flat to ~sqrt(eps) around the minimum, so polish
        # the golden-section bracket by bisecting the strictly increasing slope
        lo_b, hi_b = max(t_star - 1e-4, 1e-14), t_star + 1e-4
        for _ in range(80):
            mid = 0.5 * (lo_b + hi_b)
            if slope(mid) > 0:
                hi_b = mid
            else:
                lo_b = mid
        t_star = 0.5 * (lo_b + hi_b)
        oracle = x - s * t_star
        got = prox_kl_dual(np.array([x]), np.array([f]), s, lam)[0]
        assert got == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("which", ["l2", "kl"])
def test_prox_firmly_nonexpansive(which):
    rng = np.random.default_rng(4)
    for _ in range(1000):
        a, b = rng.uniform(-10, 10, 2)
        s = rng.uniform(0.1, 3.0)
        lam = rng.uniform(0.1, 10.0)
        if which == "l2":
            pa = prox_l2_dual(np.array([a]), s, lam)[0]
            pb = prox_l2_dual(np.array([b]), s, lam)[0]
        else:
            f = np.array([rng.uniform(0.01, 5.0)])
            pa = prox_kl_dual(np.array([a]), f, s, lam)[0]
            pb = prox_kl_dual(np.array([b]), f, s, lam)[0]
        assert abs(pa - pb) <= abs(a - b) + 1e-12
        # firm: (prox a - prox b)(a - b) >= (prox a - prox b)^2
        assert (pa - pb) * (a - b) >= (pa - pb) ** 2 - 1e-10


# --- noise --------------------------------------------------------------------


def test_gaussian_noise_exact_delta():
    rng = np.random.default_rng(5)
    f = rng.random(64)
    nz = add_gaussian_noise(f, 0.37, seed=11)
    assert np.linalg.norm(nz.data - f) == pytest.approx(0.37, abs=1e-12)
    assert nz.delta == pytest.approx(0.37, abs=1e-12)


def test_gaussian_noise_zero_target():
    f = np.arange(5.0)
    nz = add_gaussian_noise(f, 0.0, seed=0)
    np.testing.assert_array_equal(nz.data, f)
    assert nz.delta == 0.0


def test_poisson_noise_properties():
    f = np.random.default_rng(6).random(128) + 0.1
    nz = add_poisson_noise(f, 500.0, seed=3)
    assert np.all(nz.data >= 0)
    assert nz.delta == pytest.approx(eval_kl(f, nz.data))
    # bins with zero truth stay zero
    f2 = f.copy()
    f2[::4] = 0.0
    nz2 = add_poisson_noise(f2, 500.0, seed=3)
    assert np.all(nz2.data[::4] == 0.0)


def test_poisson_noise_shrinks_with_counts():
    f = np.random.default_rng(8).random(256) + 0.2
    low = [add_poisson_noise(f, 1e2, seed=s).delta for s in range(20)]
    high = [add_poisson_noise(f, 1e4, seed=s).delta for s in range(20)]
    assert np.median(high) < np.median(low)


def test_poisson_scale_for_delta_calibration():
    f = np.random.default_rng(9).random(400) + 0.5
    target = 0.05
    s = poisson_scale_for_delta(f, target)
    realized = [add_poisson_noise(f, s, seed=k).delta for k in range(30)]
    assert np.median(realized) == pytest.approx(target, rel=0.5)


_ONES = np.ones(4)

# scalar arguments that a plain ``x <= 0`` check lets through
NON_FINITE_SCALARS = {
    "ball_radius_nan": (lambda: project_dual_ball_array(np.ones((2, 2, 1, 2)), np.nan), "alpha"),
    "ball_radius_inf": (lambda: project_dual_ball_array(np.ones((2, 2, 1, 2)), np.inf), "alpha"),
    "l2_sigma_nan": (lambda: prox_l2_dual(_ONES, np.nan, 1.0), "sigma"),
    "l2_lam_nan": (lambda: prox_l2_dual(_ONES, 1.0, np.nan), "lam"),
    "l2_lam_inf": (lambda: prox_l2_dual(_ONES, 1.0, np.inf), "lam"),
    "kl_sigma_nan": (lambda: prox_kl_dual(_ONES, _ONES, np.nan, 1.0), "sigma"),
    "kl_sigma_inf": (lambda: prox_kl_dual(_ONES, _ONES, np.inf, 1.0), "sigma"),
    "kl_lam_nan": (lambda: prox_kl_dual(_ONES, _ONES, 1.0, np.nan), "lam"),
    "kl_lam_inf": (lambda: prox_kl_dual(_ONES, _ONES, 1.0, np.inf), "lam"),
    "poisson_delta_nan": (lambda: poisson_scale_for_delta(_ONES, np.nan), "target_delta"),
    "poisson_delta_inf": (lambda: poisson_scale_for_delta(_ONES, np.inf), "target_delta"),
    "loglog_x_nan": (lambda: fit_loglog_slope([1.0, 2.0, np.nan], [1.0, 2.0, 3.0]), "nan"),
    "loglog_y_inf": (lambda: fit_loglog_slope([1.0, 2.0, 3.0], [1.0, np.inf, 3.0]), "inf"),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_SCALARS))
def test_scalar_checks_reject_nan_and_inf(name):
    call, message = NON_FINITE_SCALARS[name]
    with pytest.raises(ValueError, match=message):
        call()
