import numpy as np
import pytest

from coupledrec.forward import identity_op
from coupledrec.grids import Grid
from coupledrec.problem import ChannelSpec, ProblemSpec, Quadratic, TGV2, WaveletL21


def _chan(grid, kind="l2", lam=1.0, data=None):
    op = identity_op(grid)
    if data is None:
        data = np.ones(op.codomain_dim)
    return ChannelSpec(op=op, data=data, lam=lam, kind=kind)


def test_regularizer_validation():
    with pytest.raises(ValueError):
        TGV2(alpha0=0.0, alpha1=1.0)
    with pytest.raises(ValueError):
        TGV2(alpha0=1.0, alpha1=1.0, coupling="spectral")
    with pytest.raises(ValueError):
        WaveletL21(levels=0)
    with pytest.raises(ValueError):
        Quadratic(weight=-1.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Grid((8, 8), (np.nan, 1.0)), "finite"),
        (lambda: Grid((8, 8), (np.inf, 1.0)), "finite"),
        (lambda: TGV2(np.nan, 1.0), "finite"),
        (lambda: TGV2(1.0, np.inf), "finite"),
        (lambda: Quadratic(np.inf), "finite"),
        (lambda: Quadratic(np.nan), "finite"),
        (lambda: WaveletL21(2.5), "integer"),
        (lambda: WaveletL21(np.nan), "integer"),
        (lambda: WaveletL21(True), "integer"),
    ],
    ids=[
        "spacing_nan",
        "spacing_inf",
        "tgv_alpha0_nan",
        "tgv_alpha1_inf",
        "quad_inf",
        "quad_nan",
        "levels_fraction",
        "levels_nan",
        "levels_bool",
    ],
)
def test_non_finite_model_numbers_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_channel_spec_flattens_and_validates():
    g = Grid((3, 3))
    c = _chan(g, data=np.ones((3, 3)))
    assert c.data.shape == (9,)
    with pytest.raises(ValueError):
        _chan(g, data=np.ones(5))
    with pytest.raises(ValueError):
        _chan(g, lam=0.0)
    with pytest.raises(ValueError):
        _chan(g, kind="huber")
    with pytest.raises(ValueError):
        _chan(g, data=np.array([np.nan] + [1.0] * 8))


def test_kl_channel_gets_zero_background_and_rejects_negative_data():
    g = Grid((2, 2))
    c = _chan(g, kind="kl", data=np.ones(4))
    np.testing.assert_array_equal(c.background, np.zeros(4))
    with pytest.raises(ValueError):
        _chan(g, kind="kl", data=np.array([1.0, -0.5, 0.0, 2.0]))


def test_l2_channel_keeps_background_none():
    g = Grid((2, 2))
    assert _chan(g, kind="l2").background is None


def test_problem_spec_channel_index_sets():
    g = Grid((2, 2))
    spec = ProblemSpec(
        grid=g,
        channels=(_chan(g, "l2"), _chan(g, "kl"), _chan(g, "l2")),
        regularizer=Quadratic(1.0),
    )
    assert spec.n_channels == 3
    assert spec.kl_channels == [1]


def test_problem_spec_rejects_empty_and_mismatched_grid():
    g = Grid((2, 2))
    with pytest.raises(ValueError):
        ProblemSpec(grid=g, channels=(), regularizer=Quadratic(1.0))
    with pytest.raises(ValueError):
        ProblemSpec(grid=Grid((3, 3)), channels=(_chan(g),), regularizer=Quadratic(1.0))
