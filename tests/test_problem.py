import numpy as np
import pytest

from coupledrec.forward import default_n_bins, identity_op, radon_op
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


@pytest.mark.parametrize("background", [np.zeros(4), 3.0, "junk"], ids=["zeros", "scalar", "junk"])
def test_l2_channel_rejects_a_background(background):
    g = Grid((2, 2))
    with pytest.raises(ValueError, match="KL channels only"):
        ChannelSpec(op=identity_op(g), data=np.ones(4), lam=1.0, kind="l2", background=background)


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


def test_kl_channel_rejects_positive_data_on_a_bin_no_pixel_reaches():
    # with default_n_bins the corner bins of the 8x8, 6-angle sinogram see no
    # pixel, so KL(T u, f) would be +inf for every u where f > 0 there
    g = Grid((8, 8))
    radon = radon_op(g, np.arange(6) * np.pi / 6, default_n_bins(g))
    empty = radon.empty_rows
    assert empty.size > 0
    data = np.ones(radon.codomain_dim)
    with pytest.raises(ValueError, match="never reaches"):
        ChannelSpec(op=radon, data=data, lam=1.0, kind="kl")
    # an L2 term stays finite there, and so does KL with a background there
    ChannelSpec(op=radon, data=data, lam=1.0, kind="l2")
    bg = np.zeros(radon.codomain_dim)
    bg[empty] = 0.5
    assert ChannelSpec(op=radon, data=data, lam=1.0, kind="kl", background=bg).has_background
    data[empty] = 0.0
    assert not ChannelSpec(op=radon, data=data, lam=1.0, kind="kl").has_background


def test_kl_channel_records_whether_its_background_is_zero():
    g = Grid((2, 2))
    assert not _chan(g, kind="kl").has_background
    assert not _chan(g, kind="l2").has_background
    tiny = [0.0, 0.0, 1e-300, 0.0]
    c = ChannelSpec(op=identity_op(g), data=np.ones(4), lam=1.0, kind="kl", background=tiny)
    assert c.has_background
