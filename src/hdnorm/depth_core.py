"""Depth map container and PFM / PGM / CSV file I/O.

Values are representation-agnostic (depth, inverse depth, or disparity);
nothing here assumes units. Internals are float64; PFM payloads are float32
as the format dictates, so PFM round-trips are exact at 32-bit width.
Validity masks travel as sidecar binary PGM files ("P5", maxval 255,
nonzero byte = valid) because NaN-in-PFM payloads are nonportable.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInputError, FormatError, InvalidMapError, ShapeMismatchError


@dataclass(frozen=True)
class DepthMap:
    """An H x W grid of real values plus a per-pixel validity mask.

    Immutable after construction; safe for concurrent read-only access.
    """

    values: np.ndarray
    valid: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        try:
            values = np.array(self.values, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidMapError(f"values must be numeric: {exc}") from None
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise InvalidMapError(f"values must be 2-D and non-empty, got shape {values.shape}")
        valid = self.valid
        if valid is None:
            valid = np.ones(values.shape, dtype=bool)
        else:
            valid = np.array(valid, dtype=bool)
            if valid.shape != values.shape:
                raise InvalidMapError(f"mask shape {valid.shape} != values shape {values.shape}")
        if not np.all(np.isfinite(values[valid])):
            raise InvalidMapError("non-finite value at a valid pixel")
        values.setflags(write=False)
        valid.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "valid", valid)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def valid_count(self) -> int:
        return int(self.valid.sum())

    def require_valid(self) -> None:
        if self.valid_count == 0:
            raise EmptyInputError("map has no valid pixels")


def joint_valid(pred: DepthMap, gt: DepthMap) -> np.ndarray:
    """The mask of pixels valid in both maps, which must share their
    shape and have at least one such pixel."""
    if (pred.height, pred.width) != (gt.height, gt.width):
        raise ShapeMismatchError(
            f"pred {pred.height}x{pred.width} vs gt {gt.height}x{gt.width}")
    joint = pred.valid & gt.valid
    if not joint.any():
        raise EmptyInputError("no jointly valid pixels")
    return joint


# ---------------------------------------------------------------------------
# PFM: "Pf\n<W> <H>\n<scale>\n" + W*H float32, rows bottom-to-top.
# scale < 0 means little-endian payload, scale > 0 big-endian.

def read_pfm(path) -> DepthMap:
    """Read a grayscale PFM file. All pixels are marked valid."""
    with open(path, "rb") as f:
        header = _read_token_line(f, "PFM", "header")
        if header == "PF":
            raise FormatError("color PFM ('PF') not supported; expected grayscale 'Pf'")
        if header != "Pf":
            raise FormatError(f"bad PFM header {header!r}; expected 'Pf'")
        height, width, scale, payload = _read_raster(f, "PFM", "scale", _pfm_scale, 4)
    dtype = np.dtype("<f4" if scale < 0 else ">f4")
    data = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    if not np.isfinite(data).all():
        raise FormatError("non-finite value in PFM payload")
    # rows are stored bottom-to-top
    return DepthMap(np.flipud(data).astype(np.float64))


def _pfm_scale(line: str) -> float:
    try:
        scale = float(line)
    except ValueError as exc:
        raise FormatError(f"bad PFM scale {line!r}") from exc
    if scale == 0 or not math.isfinite(scale):
        raise FormatError(f"PFM scale must be finite and nonzero, got {line!r}")
    return scale


def write_pfm(map_: DepthMap, path) -> None:
    """Write values as a grayscale little-endian PFM (scale -1.0)."""
    if not np.all(np.isfinite(map_.values)):
        raise InvalidMapError("write_pfm requires finite values at every pixel")
    data = np.flipud(map_.values).astype("<f4")
    with open(path, "wb") as f:
        f.write(f"Pf\n{map_.width} {map_.height}\n-1.0\n".encode("ascii"))
        f.write(data.tobytes())


# Longer than any well-formed PFM/PGM header line, so a file without
# newlines is rejected after reading this many bytes.
_MAX_HEADER_LINE = 256


def _read_token_line(f, fmt: str, what: str) -> str:
    line = f.readline(_MAX_HEADER_LINE + 1)
    if not line.endswith(b"\n"):
        if len(line) > _MAX_HEADER_LINE:
            raise FormatError(
                f"{fmt} {what} line longer than {_MAX_HEADER_LINE} bytes")
        raise FormatError(f"unexpected end of file while reading {fmt} {what}")
    return line.decode("ascii", errors="replace").strip()


def _read_raster(f, fmt: str, last: str, parse_last, itemsize: int):
    """The rest of a PFM/PGM header after its magic line, and the payload:
    the "<W> <H>" line, the `last` line (the PFM scale, the PGM maxval),
    checked by parse_last, and W*H*itemsize payload bytes. No more than
    the bytes left in a regular file are read, so no header can make the
    reader allocate more than the file holds (a pipe's length is unknown
    until it is read). Returns (height, width, parse_last(line), payload)."""
    dims = _read_token_line(f, fmt, "dimensions").split()
    if len(dims) != 2:
        raise FormatError(f"bad {fmt} dimensions line {dims!r}")
    try:
        width, height = int(dims[0]), int(dims[1])
    except ValueError as exc:
        raise FormatError(f"bad {fmt} dimensions {dims!r}") from exc
    if width < 1 or height < 1:
        raise FormatError(f"bad {fmt} dimensions {width}x{height}")
    parsed = parse_last(_read_token_line(f, fmt, last))
    size = width * height * itemsize
    st = os.fstat(f.fileno())
    left = st.st_size - f.tell() if stat.S_ISREG(st.st_mode) else size
    payload = f.read(min(size, left))
    if len(payload) != size:
        raise FormatError(f"truncated {fmt} payload: got {len(payload)} of {size} bytes")
    return height, width, parsed, payload


# ---------------------------------------------------------------------------
# PGM P5 masks

def read_mask(path) -> np.ndarray:
    """Read a binary PGM ("P5", maxval 255); nonzero byte = valid."""
    with open(path, "rb") as f:
        magic = _read_token_line(f, "PGM", "header")
        if magic != "P5":
            raise FormatError(f"bad PGM header {magic!r}; expected 'P5'")
        height, width, _, payload = _read_raster(f, "PGM", "maxval", _pgm_maxval, 1)
    return (np.frombuffer(payload, dtype=np.uint8).reshape(height, width) != 0)


def _pgm_maxval(line: str) -> None:
    if line != "255":
        raise FormatError(f"bad PGM maxval {line!r}; expected 255")


def write_mask(mask: np.ndarray, path) -> None:
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        f.write((mask.astype(np.uint8) * 255).tobytes())


# ---------------------------------------------------------------------------
# CSV fixtures: comma-separated decimals, "nan" marks an invalid pixel.

def read_csv_map(path) -> DepthMap:
    with open(path, "rb") as f:
        try:
            text = f.read().decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"non-ASCII byte in CSV map: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines:
        raise FormatError("empty CSV map")
    rows, valids = [], []
    width = None
    for rownum, line in enumerate(lines):
        tokens = line.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise FormatError(f"ragged CSV: row {rownum} has {len(tokens)} cells, expected {width}")
        row, vrow = [], []
        for tok in tokens:
            tok = tok.strip()
            if tok.lower() == "nan":
                row.append(0.0)
                vrow.append(False)
            else:
                try:
                    value = float(tok)
                except ValueError as exc:
                    raise FormatError(f"bad CSV cell {tok!r} in row {rownum}") from exc
                if not math.isfinite(value):
                    raise FormatError(f"non-finite CSV cell {tok!r} in row {rownum}")
                row.append(value)
                vrow.append(True)
        rows.append(row)
        valids.append(vrow)
    return DepthMap(np.array(rows, dtype=np.float64), np.array(valids, dtype=bool))
