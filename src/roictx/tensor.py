"""Dense float32 tensors and their on-disk format.

Tensors are plain numpy float32 arrays in C (row-major) order, rank 1..4.
Everything downstream (feature maps D x H x W, RoI maps D x ph x pw,
gradients) is carried this way.  This module owns channel concatenation and
the FTEN v1 file format.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, ShapeError

MAX_RANK = 4


def _check_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not 1 <= len(dims) <= MAX_RANK:
        raise ShapeError(f"rank must be 1..{MAX_RANK}, got {len(dims)}")
    if any(d < 1 for d in dims):
        raise ShapeError(f"all extents must be >= 1, got {dims}")
    return dims


def concat_channels(parts) -> np.ndarray:
    """Stack rank-3 maps of identical shape D x ph x pw along channels.

    Part i occupies channel block [i*D, (i+1)*D) of the (n*D) x ph x pw
    result; values are preserved bit-exactly.
    """
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_channels needs at least one part")
    first = parts[0]
    if first.ndim != 3:
        raise ShapeError(f"parts must be rank 3, got rank {first.ndim}")
    for p in parts[1:]:
        if p.shape != first.shape:
            raise ShapeError(
                f"mismatched part shapes: {first.shape} vs {p.shape}")
    return np.concatenate([np.asarray(p, dtype=np.float32) for p in parts],
                          axis=0)


def save_ften(path, tensor: np.ndarray) -> None:
    """Write FTEN v1: ASCII header `FTEN <rank> <d0> ...\\n`, then raw
    little-endian float32 payload in row-major order."""
    arr = np.ascontiguousarray(tensor, dtype=np.float32)
    dims = _check_dims(arr.shape)
    header = "FTEN " + str(len(dims)) + " " + " ".join(str(d) for d in dims) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(arr.astype("<f4", copy=False).tobytes())


def load_ften(path) -> np.ndarray:
    """Read an FTEN v1 file; round-trips save_ften bit-exactly."""
    with open(path, "rb") as fh:
        header = bytearray()
        while True:
            ch = fh.read(1)
            if not ch:
                raise FormatError(f"{path}: truncated FTEN header")
            if ch == b"\n":
                break
            header.extend(ch)
            if len(header) > 256:
                raise FormatError(f"{path}: unterminated FTEN header")
        fields = header.decode("ascii", errors="replace").split()
        if not fields or fields[0] != "FTEN":
            raise FormatError(f"{path}: not an FTEN file")
        try:
            rank = int(fields[1])
            dims = tuple(int(x) for x in fields[2:])
        except (IndexError, ValueError) as exc:
            raise FormatError(f"{path}: bad FTEN header {fields!r}") from exc
        if rank != len(dims):
            raise FormatError(
                f"{path}: header rank {rank} but {len(dims)} extents")
        dims = _check_dims(dims)
        count = int(np.prod(dims))
        payload = fh.read(4 * count)
        if len(payload) != 4 * count:
            raise FormatError(
                f"{path}: payload has {len(payload)} bytes, expected {4 * count}")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    return np.frombuffer(payload, dtype="<f4").astype(np.float32).reshape(dims)
