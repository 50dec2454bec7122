import struct

import numpy as np
import pytest

from coupledrec.fileio import read_mask, read_mfi, write_mfi, write_pgm
from coupledrec.grids import Grid, MultiImage


def test_mfi_roundtrip(tmp_path):
    g = Grid((6, 4))
    rng = np.random.default_rng(0)
    img = MultiImage(g, rng.standard_normal((6, 4, 3)))
    p = tmp_path / "x.mfi"
    write_mfi(p, img)
    back = read_mfi(p)
    assert back.grid.dims == g.dims
    np.testing.assert_array_equal(back.values, img.values)


def test_mfi_roundtrip_3d(tmp_path):
    g = Grid((4, 4, 2))
    img = MultiImage(g, np.arange(64.0).reshape(4, 4, 2, 2))
    p = tmp_path / "x.mfi"
    write_mfi(p, img)
    np.testing.assert_array_equal(read_mfi(p).values, img.values)


def test_mfi_header_layout(tmp_path):
    p = tmp_path / "x.mfi"
    write_mfi(p, MultiImage.zeros(Grid((2, 3)), 1))
    raw = p.read_bytes()
    assert raw[:4] == b"MFI1"
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:12], "little") == 2
    assert int.from_bytes(raw[12:16], "little") == 3
    assert len(raw) == 4 + 4 + 8 + 4 + 6 * 8


def test_mfi_rejects_garbage(tmp_path):
    p = tmp_path / "bad.mfi"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        read_mfi(p)


def test_mfi_rejects_truncated(tmp_path):
    g = Grid((4, 4))
    p = tmp_path / "x.mfi"
    write_mfi(p, MultiImage.zeros(g, 2))
    p.write_bytes(p.read_bytes()[:-9])
    with pytest.raises(ValueError, match="truncated MFI1 payload"):
        read_mfi(p)


def test_mfi_rejects_a_header_larger_than_any_payload(tmp_path):
    # 3 axes of 2^32 - 1 sites: more values than a 64-bit count can hold
    p = tmp_path / "x.mfi"
    p.write_bytes(b"MFI1" + struct.pack("<5I", 3, *(3 * [2**32 - 1]), 1) + bytes(64))
    with pytest.raises(ValueError, match="truncated MFI1 payload"):
        read_mfi(p)


def test_pgm_header_and_range(tmp_path):
    p = tmp_path / "x.pgm"
    write_pgm(p, np.array([[0.0, 1.0], [0.5, 0.25]]))
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    body = raw.split(b"255\n", 1)[1]
    assert body[0] == 0 and body[1] == 255


def test_pgm_constant_image(tmp_path):
    p = tmp_path / "c.pgm"
    write_pgm(p, np.full((3, 3), 7.0))
    body = p.read_bytes().split(b"255\n", 1)[1]
    assert set(body) == {0}


def test_mask_roundtrip(tmp_path):
    g = Grid((4, 5))
    mask = np.random.default_rng(1).random((4, 5)) < 0.5
    p = tmp_path / "m.mask"
    mask.astype(np.uint8).tofile(p)
    np.testing.assert_array_equal(read_mask(p, g), mask)


def test_mask_rejects_wrong_size(tmp_path):
    p = tmp_path / "m.mask"
    np.ones((3, 3), np.uint8).tofile(p)
    with pytest.raises(ValueError):
        read_mask(p, Grid((4, 4)))


def test_mask_rejects_nonbinary(tmp_path):
    p = tmp_path / "m.mask"
    p.write_bytes(bytes([0, 1, 2, 1]))
    with pytest.raises(ValueError):
        read_mask(p, Grid((2, 2)))
