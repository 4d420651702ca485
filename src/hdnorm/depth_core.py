"""Depth map container and PFM / PGM / CSV file I/O.

Values are representation-agnostic (depth, inverse depth, or disparity);
nothing here assumes units. Internals are float64; PFM payloads are float32
as the format dictates, so PFM round-trips are exact at 32-bit width.
Validity masks travel as sidecar binary PGM files ("P5", maxval 255,
nonzero byte = valid) because NaN-in-PFM payloads are nonportable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInputError, FormatError


@dataclass(frozen=True)
class DepthMap:
    """An H x W grid of real values plus a per-pixel validity mask.

    Immutable after construction; safe for concurrent read-only access.
    """

    values: np.ndarray
    valid: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"values must be 2-D and non-empty, got shape {values.shape}")
        valid = self.valid
        if valid is None:
            valid = np.ones(values.shape, dtype=bool)
        else:
            valid = np.array(valid, dtype=bool)
            if valid.shape != values.shape:
                raise ValueError(f"mask shape {valid.shape} != values shape {values.shape}")
        if not np.all(np.isfinite(values[valid])):
            raise ValueError("non-finite value at a valid pixel")
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


def linearize(row: int, col: int, width: int) -> int:
    return row * width + col


def delinearize(linear: int, width: int) -> tuple[int, int]:
    return divmod(linear, width)


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
        dims = _read_token_line(f, "PFM", "dimensions").split()
        if len(dims) != 2:
            raise FormatError(f"bad PFM dimensions line {dims!r}")
        try:
            width, height = int(dims[0]), int(dims[1])
        except ValueError as exc:
            raise FormatError(f"bad PFM dimensions {dims!r}") from exc
        if width < 1 or height < 1:
            raise FormatError(f"bad PFM dimensions {width}x{height}")
        scale_line = _read_token_line(f, "PFM", "scale")
        try:
            scale = float(scale_line)
        except ValueError as exc:
            raise FormatError(f"bad PFM scale {scale_line!r}") from exc
        if scale == 0:
            raise FormatError("PFM scale must be nonzero")
        count = width * height
        payload = f.read(4 * count)
        if len(payload) != 4 * count:
            raise FormatError(f"truncated PFM payload: got {len(payload)} of {4 * count} bytes")
    dtype = np.dtype("<f4" if scale < 0 else ">f4")
    data = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    # rows are stored bottom-to-top
    return DepthMap(np.flipud(data).astype(np.float64))


def write_pfm(map_: DepthMap, path) -> None:
    """Write values as a grayscale little-endian PFM (scale -1.0)."""
    if not np.all(np.isfinite(map_.values)):
        raise ValueError("write_pfm requires finite values at every pixel")
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


# ---------------------------------------------------------------------------
# PGM P5 masks

def read_mask(path) -> np.ndarray:
    """Read a binary PGM ("P5", maxval 255); nonzero byte = valid."""
    with open(path, "rb") as f:
        magic = _read_token_line(f, "PGM", "header")
        if magic != "P5":
            raise FormatError(f"bad PGM header {magic!r}; expected 'P5'")
        dims = _read_token_line(f, "PGM", "dimensions").split()
        if len(dims) != 2:
            raise FormatError(f"bad PGM dimensions line {dims!r}")
        try:
            width, height = int(dims[0]), int(dims[1])
        except ValueError as exc:
            raise FormatError(f"bad PGM dimensions {dims!r}") from exc
        if width < 1 or height < 1:
            raise FormatError(f"bad PGM dimensions {width}x{height}")
        maxval = _read_token_line(f, "PGM", "maxval")
        if maxval != "255":
            raise FormatError(f"bad PGM maxval {maxval!r}; expected 255")
        payload = f.read(width * height)
        if len(payload) != width * height:
            raise FormatError(f"truncated PGM payload: got {len(payload)} of {width * height} bytes")
    return (np.frombuffer(payload, dtype=np.uint8).reshape(height, width) != 0)


def write_mask(mask: np.ndarray, path) -> None:
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        f.write((mask.astype(np.uint8) * 255).tobytes())


# ---------------------------------------------------------------------------
# CSV fixtures: comma-separated decimals, "nan" marks an invalid pixel.

def read_csv_map(path) -> DepthMap:
    with open(path, "r", encoding="ascii") as f:
        text = f.read()
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
                    row.append(float(tok))
                except ValueError as exc:
                    raise FormatError(f"bad CSV cell {tok!r} in row {rownum}") from exc
                vrow.append(True)
        rows.append(row)
        valids.append(vrow)
    return DepthMap(np.array(rows, dtype=np.float64), np.array(valids, dtype=bool))
