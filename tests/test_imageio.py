from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstok.imageio import FormatError, load_ppm, quantize_roundtrip, save_ppm, to_uint8
from mstok.tensor import make_rng


def write_raw_ppm(path, w, h, payload, header=None):
    with open(path, "wb") as fh:
        fh.write(header if header is not None else b"P6\n%d %d\n255\n" % (w, h))
        fh.write(payload)


def test_zero_bytes_map_to_minus_one(tmp_path):
    path = str(tmp_path / "black.ppm")
    write_raw_ppm(path, 2, 2, bytes(12))
    img = load_ppm(path)
    np.testing.assert_array_equal(img, np.full((3, 2, 2), -1.0, dtype=np.float32))


def test_255_bytes_map_to_plus_one(tmp_path):
    path = str(tmp_path / "white.ppm")
    write_raw_ppm(path, 2, 1, bytes([255] * 6))
    img = load_ppm(path)
    np.testing.assert_allclose(img, 1.0, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(w=st.integers(1, 6), h=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_save_load_save_roundtrip_bytes(tmp_path_factory, w, h, seed):
    tmp = tmp_path_factory.mktemp("ppm")
    rng = make_rng(seed)
    pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    a = str(tmp / "a.ppm")
    b = str(tmp / "b.ppm")
    write_raw_ppm(a, w, h, pixels.tobytes())
    save_ppm(load_ppm(a), b)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_roundtrip_preserves_tensor(tmp_path):
    rng = make_rng(1)
    img = (rng.integers(0, 256, size=(3, 4, 4)).astype(np.float32) / 127.5) - 1.0
    path = str(tmp_path / "x.ppm")
    save_ppm(img, path)
    np.testing.assert_array_equal(load_ppm(path), img)


def test_header_comments_and_whitespace(tmp_path):
    path = str(tmp_path / "c.ppm")
    header = b"P6\n# a comment\n 2\t1 # inline\n255\n"
    write_raw_ppm(path, 2, 1, bytes(6), header=header)
    img = load_ppm(path)
    assert img.shape == (3, 1, 2)


def test_bad_magic_reports_offset(tmp_path):
    path = str(tmp_path / "bad.ppm")
    path_obj = tmp_path / "bad.ppm"
    path_obj.write_bytes(b"P3\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(FormatError) as err:
        load_ppm(path)
    assert "offset 0" in str(err.value)


def test_truncated_raster_reports_offset(tmp_path):
    path = str(tmp_path / "short.ppm")
    write_raw_ppm(path, 4, 4, bytes(10))
    with pytest.raises(FormatError) as err:
        load_ppm(path)
    assert "offset" in str(err.value)


def test_wrong_maxval_rejected(tmp_path):
    path = str(tmp_path / "m.ppm")
    write_raw_ppm(path, 1, 1, bytes(3), header=b"P6\n1 1\n65535\n")
    with pytest.raises(FormatError):
        load_ppm(path)


def test_quantize_roundtrip_matches_file_cycle(tmp_path):
    rng = make_rng(2)
    img = rng.uniform(-1.3, 1.3, size=(3, 8, 8)).astype(np.float32)  # includes out-of-range
    path = str(tmp_path / "q.ppm")
    save_ppm(img, path)
    np.testing.assert_array_equal(load_ppm(path), quantize_roundtrip(img))


def test_to_uint8_rejects_bad_shape():
    with pytest.raises(FormatError):
        to_uint8(np.zeros((1, 4, 4)))
