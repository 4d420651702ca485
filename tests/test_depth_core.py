import copy
import os
import pickle
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hdnorm import DepthMap, read_csv_map, read_mask, read_pfm, write_mask, write_pfm
from hdnorm.errors import FormatError, HdnormError, InvalidMapError


def test_depthmap_rejects_nan_at_valid_pixel():
    with pytest.raises(ValueError):
        DepthMap(np.array([[np.nan]]), np.array([[True]]))


@pytest.mark.parametrize("values,valid", [
    (np.zeros(3), None),                      # not 2-D
    (np.zeros((0, 2)), None),                 # empty
    ([["a", "1"]], None),                     # not numeric
    ([[object()]], None),                     # not numeric
    (np.zeros((2, 2)), np.ones((1, 2))),      # mask of another shape
    (np.array([[1.0, np.inf]]), None),        # non-finite at a valid pixel
    ([[1j]], None),                           # complex
])
def test_depthmap_errors_are_typed(values, valid):
    # also a ValueError, for callers that caught the untyped error
    with pytest.raises(InvalidMapError) as info:
        DepthMap(values, valid)
    assert isinstance(info.value, HdnormError) and isinstance(info.value, ValueError)


def test_write_pfm_non_finite_is_typed(tmp_path):
    m = DepthMap(np.array([[np.nan, 1.0]]), np.array([[False, True]]))
    with pytest.raises(InvalidMapError):
        write_pfm(m, tmp_path / "x.pfm")
    assert not (tmp_path / "x.pfm").exists()


@pytest.mark.parametrize("value", [1e39, -1e39, 3.5e38])
def test_write_pfm_refuses_values_past_float32(tmp_path, value):
    # the float32 cast would make them inf, which read_pfm rejects
    with pytest.raises(InvalidMapError, match="float32"):
        write_pfm(DepthMap(np.array([[1.0, value]])), tmp_path / "x.pfm")
    assert not (tmp_path / "x.pfm").exists()


def test_write_pfm_rounds_tiny_values_as_float32(tmp_path):
    p = tmp_path / "t.pfm"
    write_pfm(DepthMap(np.array([[1e-50, 1e-40]])), p)
    assert read_pfm(p).values.tolist() == [[0.0, float(np.float32(1e-40))]]


def test_depthmap_allows_nan_at_invalid_pixel():
    m = DepthMap(np.array([[np.nan, 1.0]]), np.array([[False, True]]))
    assert int(m.valid.sum()) == 1


def test_depthmap_is_immutable():
    m = DepthMap(np.array([[1.0]]))
    with pytest.raises(ValueError):
        m.values[0, 0] = 2.0


@pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)),
                                   copy.deepcopy])
def test_depthmap_copies_go_through_the_constructor(clone):
    m = DepthMap(np.array([[1.0, np.nan], [3.0, 4.0]]),
                 np.array([[True, False], [True, True]]))
    c = clone(m)
    assert not c.values.flags.writeable and not c.valid.flags.writeable
    assert c.values.dtype is np.dtype(np.float64) and c.valid.dtype is np.dtype(bool)
    assert np.array_equal(c.values, m.values, equal_nan=True)
    assert np.array_equal(c.valid, m.valid)


def test_depthmap_from_unpickled_arrays_has_numpy_dtypes():
    # an unpickled array's dtype equals numpy's float64 (or bool) but is
    # another object, which np.add.at takes off its fast path
    values = pickle.loads(pickle.dumps(np.arange(6.0).reshape(2, 3)))
    valid = pickle.loads(pickle.dumps(np.ones((2, 3), dtype=bool)))
    m = DepthMap(values, valid)
    assert m.values.dtype is np.dtype(np.float64) and m.valid.dtype is np.dtype(bool)


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


def test_read_pfm_converts_once(tmp_path):
    # the float32 payload plus one float64 copy of it
    p = tmp_path / "vga.pfm"
    write_pfm(DepthMap(np.ones((480, 640))), p)
    tracemalloc.start()
    try:
        m = read_pfm(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * m.values.nbytes, peak / m.values.nbytes


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



@pytest.mark.parametrize("header", [
    b"P5\n# Created by GIMP version 2.10.34 PNM plug-in\n5 3\n255\n",
    b"P5\n#\n  # two\n5 3\n# before maxval\n255\n",
], ids=["gimp", "before_each_line"])
def test_mask_comment_lines(tmp_path, rng, header):
    # Netpbm allows whole '#' lines in the header; GIMP writes one
    mask = rng.random((3, 5)) > 0.5
    write_mask(mask, tmp_path / "plain.pgm")
    payload = (tmp_path / "plain.pgm").read_bytes()[len(b"P5\n5 3\n255\n"):]
    p = tmp_path / "commented.pgm"
    p.write_bytes(header + payload)
    assert np.array_equal(read_mask(p), mask)


def test_mask_comments_alone_rejected_fast(tmp_path):
    p = tmp_path / "comments.pgm"
    p.write_bytes(b"P5\n" + b"# c\n" * (1 << 19))  # 2 MB of comment lines
    t0 = time.monotonic()
    with pytest.raises(FormatError, match="more than 16 comment lines before PGM dimensions"):
        read_mask(p)
    assert time.monotonic() - t0 < 1.0


def test_mask_one_line_header_rejected(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5 2 2 255\n" + b"\xff" * 4)
    with pytest.raises(FormatError, match="bad PGM header"):
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


@pytest.mark.parametrize("reader,fmt,blob", [
    (read_pfm, "PFM", b"Pf\n100000 100000\n-1.0\n\0"),
    (read_mask, "PGM", b"P5\n200000 200000\n255\n\0"),
])
def test_oversized_dimensions_rejected(tmp_path, reader, fmt, blob):
    # the declared size is checked against the file before any payload
    # buffer is allocated
    p = tmp_path / "huge"
    p.write_bytes(blob)
    t0 = time.monotonic()
    with pytest.raises(FormatError, match=f"truncated {fmt} payload: got 1 of"):
        reader(p)
    assert time.monotonic() - t0 < 1.0


def _read_pipe(reader, data):
    """reader's result on a pipe holding data."""
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    try:
        return reader(f"/dev/fd/{r}")
    finally:
        os.close(r)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pfm_from_pipe():
    # a pipe has no size to check in advance, so it is read as a stream; a
    # header whose payload is past the index range is rejected unread
    blob = b"Pf\n2 1\n-1.0\n" + struct.pack("<2f", 1.0, 2.0)
    assert _read_pipe(read_pfm, blob).values.tolist() == [[1.0, 2.0]]
    with pytest.raises(FormatError, match="truncated PFM payload: got 7 of 8"):
        _read_pipe(read_pfm, blob[:-1])
    with pytest.raises(FormatError, match="PFM payload longer than 2x1"):
        _read_pipe(read_pfm, blob + b"\0")
    with pytest.raises(FormatError, match="bad PFM dimensions 10000000000x10000000000"):
        _read_pipe(read_pfm, b"Pf\n10000000000 10000000000\n-1.0\n")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_mask_from_pipe():
    assert _read_pipe(read_mask, b"P5\n2 1\n255\n\x00\x01").tolist() == [[False, True]]
    with pytest.raises(FormatError, match="PGM payload longer than 2x1"):
        _read_pipe(read_mask, b"P5\n2 1\n255\n\x00\x01\x00")
    with pytest.raises(FormatError, match="bad PGM dimensions 99999999999x99999999999"):
        _read_pipe(read_mask, b"P5\n99999999999 99999999999\n255\n")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("reader,fmt,header", [
    (read_pfm, "PFM", b"Pf\n1000000000 1000000000\n-1.0\n"),
    (read_mask, "PGM", b"P5\n3000000000 3000000000\n255\n")])
def test_pipe_payload_past_memory_is_a_format_error(reader, fmt, header):
    # within the index range, but no read can allocate 4e18 or 9e18
    # bytes; a pipe has no file size to cap the read
    r, w = os.pipe()
    os.write(w, header)
    os.close(w)
    path = f"/dev/fd/{r}"
    t0 = time.monotonic()
    try:
        with pytest.raises(FormatError, match=f"^{path}: {fmt} payload of "
                                              r"\d+ bytes does not fit in memory$"):
            reader(path)
    finally:
        os.close(r)
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("scale", [b"nan", b"inf", b"-inf", b"1e999"])
def test_pfm_non_finite_scale(tmp_path, scale):
    p = tmp_path / "s.pfm"
    p.write_bytes(b"Pf\n1 1\n" + scale + b"\n" + b"\0" * 4)
    with pytest.raises(FormatError, match="PFM scale"):
        read_pfm(p)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_pfm_non_finite_value(tmp_path, value):
    p = tmp_path / "v.pfm"
    p.write_bytes(b"Pf\n2 1\n-1.0\n" + struct.pack("<2f", 1.0, value))
    with pytest.raises(FormatError, match="non-finite"):
        read_pfm(p)

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


@pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e999", "-nan"])
def test_csv_non_finite_cell(tmp_path, cell):
    # only the exact "nan" marker means invalid; other non-finite cells
    # are malformed
    p = tmp_path / "m.csv"
    p.write_text(f"1,{cell}")
    with pytest.raises(FormatError, match="non-finite CSV cell"):
        read_csv_map(p)


def test_csv_empty_file(tmp_path):
    # a file of line breaks alone is empty too, not a row of one '' cell
    p = tmp_path / "m.csv"
    for data in (b"", b"\n", b"\n\n", b"\r\n"):
        p.write_bytes(data)
        with pytest.raises(FormatError, match="empty CSV map"):
            read_csv_map(p)


def test_csv_ragged_reads_no_more_than_its_head(tmp_path):
    # a wide first row over many one-cell rows: the error comes before
    # any array of rows x width is made (3000 x 3000 would be 81 MB)
    p = tmp_path / "m.csv"
    p.write_text(",".join(["1"] * 3000) + "\n1" * 3000)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="ragged CSV: row 1 has 1 cells, expected 3000"):
            read_csv_map(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_csv_non_ascii(tmp_path):
    p = tmp_path / "m.csv"
    p.write_bytes("1,2\n3,\u00b74".encode("utf-8"))
    with pytest.raises(FormatError, match="non-ASCII"):
        read_csv_map(p)


# --- fuzzing: garbled or truncated files raise FormatError within 1 s ---

READERS = {"pfm": read_pfm, "pgm": read_mask, "csv": read_csv_map}
# bytes that make any CSV cell they enter unparseable: no digit, sign,
# point, separator or whitespace, nor a letter of "nan", "inf",
# "infinity" or an exponent
BAD_CSV_BYTES = [bytes([b]) for b in b"bcdghjkmopqrsuvwxzBCDGHJ#@!?%&*"]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def rejected_fast(path, fmt, blob):
    path.write_bytes(blob)
    t0 = time.monotonic()
    with pytest.raises(FormatError):
        READERS[fmt](path)
    assert time.monotonic() - t0 < 1.0


def raster_file(draw, fmt):
    """(header, payload) of a well-formed PFM or PGM file of up to 4x4."""
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if fmt == "pfm":
        vals = draw(st.lists(st.floats(-1e3, 1e3, width=32),
                             min_size=h * w, max_size=h * w))
        return f"Pf\n{w} {h}\n-1.0\n".encode(), struct.pack(f"<{h * w}f", *vals)
    return f"P5\n{w} {h}\n255\n".encode(), draw(st.binary(min_size=h * w, max_size=h * w))


def csv_text(draw, min_rows, min_cols):
    """A well-formed CSV map without a trailing newline."""
    h, w = draw(st.integers(min_rows, 4)), draw(st.integers(min_cols, 4))
    cell = st.one_of(st.just("nan"), st.floats(allow_nan=False, allow_infinity=False).map(repr))
    return "\n".join(",".join(draw(cell) for _ in range(w)) for _ in range(h))


@pytest.mark.parametrize("fmt", ["pfm", "pgm", "csv"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reader_fuzz_truncated(fuzz_path, fmt, data):
    draw = data.draw
    if fmt == "csv":
        # cut inside the last row, before its last comma: too few cells
        text = csv_text(draw, 2, 2)
        cut = draw(st.integers(text.rindex("\n") + 2, text.rindex(",")))
        blob = text[:cut].encode()
    else:
        header, payload = raster_file(draw, fmt)
        blob = (header + payload)[:draw(st.integers(0, len(header + payload) - 1))]
    rejected_fast(fuzz_path, fmt, blob)


@pytest.mark.parametrize("fmt", ["pfm", "pgm", "csv"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reader_fuzz_garbled(fuzz_path, fmt, data):
    draw = data.draw
    if fmt == "csv":
        blob = csv_text(draw, 1, 1).encode()
        pos = draw(st.integers(0, len(blob)))
        bad = draw(st.one_of(st.sampled_from(BAD_CSV_BYTES),
                             st.integers(0x80, 0xFF).map(lambda b: bytes([b]))))
        rejected_fast(fuzz_path, fmt, blob[:pos] + bad + blob[pos:])
        return
    magic = b"Pf" if fmt == "pfm" else b"P5"
    header, payload = raster_file(draw, fmt)
    hows = ["header", "dimensions", "noise", "trailing"] + (
        ["payload"] if fmt == "pfm" else [])
    how = draw(st.sampled_from(hows))
    if how == "header":
        # a non-ASCII byte anywhere in the header spoils the line it lands in
        pos = draw(st.integers(0, len(header) - 1))
        byte = bytes([draw(st.integers(0x80, 0xFF))])
        blob = header[:pos] + byte + header[pos + 1:] + payload
    elif how == "payload":
        i = draw(st.integers(0, len(payload) // 4 - 1))
        value = struct.pack("<f", draw(st.sampled_from([np.nan, np.inf, -np.inf])))
        blob = header + payload[:4 * i] + value + payload[4 * i + 4:]
    elif how == "trailing":
        # a payload longer than its header's W*H values
        blob = header + payload + draw(st.binary(min_size=1, max_size=64))
    elif how == "noise":
        # random bytes whose first line cannot be the magic
        blob = draw(st.binary(max_size=300))
        assume(b"P" not in blob.split(b"\n", 1)[0])
    else:
        # dimensions whose payload exceeds the 64 bytes that follow
        w, h = draw(st.integers(65, 10**12)), draw(st.integers(1, 10**12))
        last = b"-1.0" if fmt == "pfm" else b"255"
        blob = b"%s\n%d %d\n%s\n" % (magic, w, h, last) + draw(st.binary(max_size=64))
    rejected_fast(fuzz_path, fmt, blob)
