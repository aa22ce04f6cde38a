"""Binary PPM (P6, maxval 255) reader/writer, and the atomic file write that
checkpoints and latent dumps share.

Pixels map 8-bit <-> [-1, 1] as x / 127.5 - 1 with the symmetric clamped
inverse, so load -> save -> load is bit-exact. ``quantize_roundtrip`` applies
the same pair of maps to an array of any shape.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .tensor import DataError


class FormatError(DataError):
    """Malformed image file; the message carries the byte offset."""


def _read_token(blob: bytes, pos: int, path: str) -> tuple[bytes, int]:
    n = len(blob)
    while pos < n:
        c = blob[pos : pos + 1]
        if c == b"#":
            while pos < n and blob[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise FormatError(f"{path}: unexpected end of header at byte offset {pos}")
    start = pos
    while pos < n and not blob[pos : pos + 1].isspace():
        pos += 1
    return blob[start:pos], pos


def load_ppm(path: str) -> np.ndarray:
    """Read a binary PPM into a float32 array of shape 3 x H x W in [-1, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P6":
        raise FormatError(f"{path}: bad magic {blob[:2]!r} at byte offset 0, expected b'P6'")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_token(blob, pos, path)
        if not token.isdigit():
            raise FormatError(f"{path}: non-numeric header field {token!r} at byte offset {pos - len(token)}")
        fields.append(int(token))
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval} at byte offset {pos - len(str(maxval))}")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad dimensions {width}x{height} in header")
    pos += 1  # single whitespace byte separating header from raster
    expected = width * height * 3
    raster = blob[pos : pos + expected]
    if len(raster) != expected:
        raise FormatError(
            f"{path}: raster has {len(raster)} bytes at offset {pos}, expected {expected} for {width}x{height}"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)
    return _dequantize(pixels).transpose(2, 0, 1)


def _quantize(image) -> np.ndarray:
    """[-1, 1] floats -> clamped uint8 codes, elementwise, computed in the
    input's own float precision."""
    arr = np.asarray(image)
    return np.clip(np.rint((arr + 1.0) * 127.5), 0, 255).astype(np.uint8)


def _dequantize(codes: np.ndarray) -> np.ndarray:
    return codes.astype(np.float32) / 127.5 - 1.0


def to_uint8(image: np.ndarray) -> np.ndarray:
    """[-1, 1] float image (3 x H x W) -> H x W x 3 uint8 with clamping."""
    if np.ndim(image) != 3 or np.shape(image)[0] != 3:
        raise FormatError(f"expected a 3 x H x W image, got shape {np.shape(image)}")
    return _quantize(image).transpose(1, 2, 0)


def save_ppm(image: np.ndarray, path: str) -> None:
    pixels = to_uint8(image)
    h, w, _ = pixels.shape
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(pixels.tobytes())


def quantize_roundtrip(image: np.ndarray) -> np.ndarray:
    """The exact pixel values a save -> load cycle would produce, for an array
    of any shape (a 3 x H x W image or a batch of them)."""
    return _dequantize(_quantize(image))


@contextlib.contextmanager
def atomic_write(path: str):
    """A binary file whose bytes replace ``path`` only once the ``with`` block
    completes: they go to ``<path>.tmp``, are fsynced, then replace ``path``
    in one rename. A crash or a failed write leaves the previous file intact
    and no temporary file behind."""
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp_path)
        raise
