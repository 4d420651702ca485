import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdnorm import DepthMap, read_csv_map, read_mask, read_pfm, write_mask, write_pfm
from hdnorm.depth_core import delinearize, linearize
from hdnorm.errors import FormatError


def test_depthmap_rejects_nan_at_valid_pixel():
    with pytest.raises(ValueError):
        DepthMap(np.array([[np.nan]]), np.array([[True]]))


def test_depthmap_allows_nan_at_invalid_pixel():
    m = DepthMap(np.array([[np.nan, 1.0]]), np.array([[False, True]]))
    assert m.valid_count == 1


def test_depthmap_is_immutable():
    m = DepthMap(np.array([[1.0]]))
    with pytest.raises(ValueError):
        m.values[0, 0] = 2.0


def test_linearize_roundtrip():
    for r in range(5):
        for c in range(7):
            assert delinearize(linearize(r, c, 7), 7) == (r, c)


# --- PFM ---

def test_pfm_single_pixel(tmp_path):
    p = tmp_path / "one.pfm"
    write_pfm(DepthMap(np.array([[3.0]])), p)
    m = read_pfm(p)
    assert m.height == m.width == 1
    assert m.values[0, 0] == 3.0
    assert m.valid.all()


def test_pfm_roundtrip_bit_exact(tmp_path, rng):
    vals = rng.normal(size=(8, 8)).astype(np.float32).astype(np.float64)
    p = tmp_path / "rt.pfm"
    write_pfm(DepthMap(vals), p)
    assert np.array_equal(read_pfm(p).values, vals)


def test_pfm_negative_scale_little_endian_byte_oracle(tmp_path):
    # hand-built 2x2 file, rows stored bottom-to-top: [3,4] then [1,2]
    payload = struct.pack("<4f", 3.0, 4.0, 1.0, 2.0)
    p = tmp_path / "hand.pfm"
    p.write_bytes(b"Pf\n2 2\n-1.0\n" + payload)
    m = read_pfm(p)
    assert np.array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])


def test_pfm_positive_scale_big_endian(tmp_path):
    payload = struct.pack(">4f", 3.0, 4.0, 1.0, 2.0)
    p = tmp_path / "be.pfm"
    p.write_bytes(b"Pf\n2 2\n1.0\n" + payload)
    assert np.array_equal(read_pfm(p).values, [[1.0, 2.0], [3.0, 4.0]])


def test_pfm_color_rejected(tmp_path):
    p = tmp_path / "color.pfm"
    p.write_bytes(b"PF\n1 1\n-1.0\n" + b"\0" * 12)
    with pytest.raises(FormatError, match="color"):
        read_pfm(p)


def test_pfm_truncated(tmp_path):
    p = tmp_path / "trunc.pfm"
    p.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\0" * 10)
    with pytest.raises(FormatError, match="truncated"):
        read_pfm(p)


def test_pfm_bad_header(tmp_path):
    p = tmp_path / "bad.pfm"
    p.write_bytes(b"Qx\n1 1\n-1.0\n" + b"\0" * 4)
    with pytest.raises(FormatError, match="header"):
        read_pfm(p)


def test_pfm_zero_value_roundtrip(tmp_path):
    p = tmp_path / "z.pfm"
    write_pfm(DepthMap(np.array([[0.0]])), p)
    assert read_pfm(p).values[0, 0] == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_pfm_roundtrip_property(h, w, seed):
    import tempfile, os
    vals = np.random.default_rng(seed).normal(size=(h, w))
    vals = vals.astype(np.float32).astype(np.float64)
    fd, p = tempfile.mkstemp(suffix=".pfm")
    os.close(fd)
    try:
        write_pfm(DepthMap(vals), p)
        assert np.array_equal(read_pfm(p).values, vals)
    finally:
        os.unlink(p)


# --- PGM masks ---

def test_mask_all_valid(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + b"\xff" * 4)
    assert read_mask(p).all()


def test_mask_all_invalid(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
    assert not read_mask(p).any()


def test_mask_checkerboard_byte_oracle(tmp_path):
    p = tmp_path / "m.pgm"
    rows = b"\xff\x00\xff\x00" + b"\x00\xff\x00\xff"
    p.write_bytes(b"P5\n4 4\n255\n" + rows + rows)
    mask = read_mask(p)
    expect = np.indices((4, 4)).sum(axis=0) % 2 == 0
    assert np.array_equal(mask, expect)


def test_mask_roundtrip(tmp_path, rng):
    mask = rng.random((5, 7)) > 0.5
    p = tmp_path / "m.pgm"
    write_mask(mask, p)
    assert np.array_equal(read_mask(p), mask)


def test_masked_map_roundtrip_via_sidecar(tmp_path, rng):
    vals = rng.normal(size=(4, 4)).astype(np.float32).astype(np.float64)
    mask = rng.random((4, 4)) > 0.3
    m = DepthMap(vals, mask)
    write_pfm(m, tmp_path / "v.pfm")
    write_mask(m.valid, tmp_path / "v.pgm")
    back = DepthMap(read_pfm(tmp_path / "v.pfm").values,
                    read_mask(tmp_path / "v.pgm"))
    assert np.array_equal(back.values, m.values)
    assert np.array_equal(back.valid, m.valid)


def test_mask_bad_maxval(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(FormatError, match="maxval"):
        read_mask(p)



@pytest.mark.parametrize("reader,fmt,magic", [
    (read_pfm, "PFM", b"Pf\n"),
    (read_mask, "PGM", b"P5\n"),
])
@pytest.mark.parametrize("garbage", [b"", b"1"])
def test_header_without_newline_rejected_fast(tmp_path, reader, fmt, magic, garbage):
    # 2 MB with no newline, as the first header line or after the magic
    p = tmp_path / "no_newline"
    p.write_bytes((magic if garbage else b"") + b"7" * (2 << 20))
    t0 = time.monotonic()
    with pytest.raises(FormatError, match=f"{fmt} .*line longer than"):
        reader(p)
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("reader,fmt", [(read_pfm, "PFM"), (read_mask, "PGM")])
def test_header_eof_names_format(tmp_path, reader, fmt):
    p = tmp_path / "short"
    p.write_bytes(b"P")
    with pytest.raises(FormatError, match=f"end of file while reading {fmt} header"):
        reader(p)


@pytest.mark.parametrize("dims", [b"x 2", b"2 2.5", b"0 2", b"2 -1"])
def test_mask_bad_dimensions(tmp_path, dims):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n" + dims + b"\n255\n" + b"\xff" * 4)
    with pytest.raises(FormatError, match="PGM dimensions"):
        read_mask(p)

# --- CSV ---

def test_csv_all_valid(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4")
    m = read_csv_map(p)
    assert np.array_equal(m.values, [[1, 2], [3, 4]])
    assert m.valid.all()


def test_csv_nan_cell(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,nan")
    m = read_csv_map(p)
    assert m.valid.tolist() == [[True, False]]


def test_csv_trailing_newline_equivalence(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("1,2\n3,4")
    b.write_text("1,2\n3,4\n")
    ma, mb = read_csv_map(a), read_csv_map(b)
    assert np.array_equal(ma.values, mb.values)
    assert np.array_equal(ma.valid, mb.valid)


def test_csv_ragged_reports_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3")
    with pytest.raises(FormatError, match="row 1"):
        read_csv_map(p)
