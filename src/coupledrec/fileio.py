"""File formats: the MFI1 image container, PGM export, and 0/1 mask rasters.

MFI1 layout (little endian): magic ``MFI1``, u32 d, u32 dims[d], u32 N,
then float64 values in site-major, channel-minor order.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .grids import Grid, MultiImage

_MAGIC = b"MFI1"


def write_mfi(path: str | Path, image: MultiImage) -> None:
    dims = image.grid.dims
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(dims)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        fh.write(struct.pack("<I", image.channels))
        fh.write(np.ascontiguousarray(image.values, dtype="<f8").tobytes())


def read_mfi(path: str | Path) -> MultiImage:
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not an MFI1 file")
    off = 4
    (d,) = struct.unpack_from("<I", raw, off)
    off += 4
    dims = struct.unpack_from(f"<{d}I", raw, off)
    off += 4 * d
    (n,) = struct.unpack_from("<I", raw, off)
    off += 4
    count = math.prod(dims) * n
    if 8 * count > len(raw) - off:
        raise ValueError(f"{path}: truncated MFI1 payload")
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
    return MultiImage(Grid(tuple(dims)), values.reshape(dims + (n,)).astype(np.float64))


def write_pgm(path: str | Path, channel: np.ndarray) -> None:
    """Write one 2D channel as binary PGM, min-max scaled to 0..255."""
    arr = np.asarray(channel, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("PGM export needs a 2D array")
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        scaled = (arr - lo) / (hi - lo)
    else:
        scaled = np.zeros_like(arr)
    pix = np.round(scaled * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())


def read_mask(path: str | Path, grid: Grid) -> np.ndarray:
    """Read a flat u8 0/1 raster with one entry per grid site, site-major."""
    raw = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8)
    if raw.size != grid.sites:
        raise ValueError(f"{path}: mask has {raw.size} entries, grid has {grid.sites} sites")
    if not np.all((raw == 0) | (raw == 1)):
        raise ValueError(f"{path}: mask entries must be 0 or 1")
    return raw.reshape(grid.dims).astype(bool)
