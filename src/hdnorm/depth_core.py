"""Depth map container, PFM / PGM / CSV file I/O and the synthetic scene.

Values are representation-agnostic (depth, inverse depth, or disparity);
nothing here assumes units. Internals are float64; PFM payloads are float32
as the format dictates, so PFM round-trips are exact at 32-bit width.
Validity masks travel as sidecar binary PGM files ("P5", maxval 255,
nonzero byte = valid) because NaN-in-PFM payloads are nonportable.
"""

from __future__ import annotations

import math
import numbers
import os
import stat
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (EmptyInputError, FormatError, InvalidMapError, ParameterError,
                     ShapeMismatchError)


@dataclass(frozen=True)
class DepthMap:
    """An H x W grid of real values plus a per-pixel validity mask.

    Immutable after construction, also when pickled or copied (both go
    through the constructor); safe for concurrent read-only access.
    """

    values: np.ndarray
    valid: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        try:
            # one copy; the view swaps an unpickled array's dtype object
            # for numpy's own, which np.add.at's fast path needs
            values = np.array(self.values, dtype=np.float64).view(np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidMapError(f"values must be numeric: {exc}") from None
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise InvalidMapError(f"values must be 2-D and non-empty, got shape {values.shape}")
        valid = self.valid
        if valid is None:
            valid = np.ones(values.shape, dtype=bool)
        else:
            valid = np.array(valid, dtype=bool).view(bool)
            if valid.shape != values.shape:
                raise InvalidMapError(f"mask shape {valid.shape} != values shape {values.shape}")
        if not np.isfinite(values)[valid].all():
            raise InvalidMapError("non-finite value at a valid pixel")
        values.setflags(write=False)
        valid.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "valid", valid)

    def __reduce__(self):
        return (DepthMap, (self.values, self.valid))

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
    return DepthMap(np.flipud(data))


def _pfm_scale(line: str) -> float:
    try:
        scale = float(line)
    except ValueError as exc:
        raise FormatError(f"bad PFM scale {line!r}") from exc
    if scale == 0 or not math.isfinite(scale):
        raise FormatError(f"PFM scale must be finite and nonzero, got {line!r}")
    return scale


def write_pfm(map_: DepthMap, path) -> None:
    """Write values as a grayscale little-endian PFM (scale -1.0). Every
    value, valid or not, must be finite in float32; values round to
    float32 as the format dictates, so tiny ones may become 0."""
    with np.errstate(over="ignore"):
        data = np.flipud(map_.values).astype("<f4")
    if not np.isfinite(data).all():
        raise InvalidMapError(
            "write_pfm requires values finite in float32 at every pixel")
    with open(path, "wb") as f:
        f.write(f"Pf\n{map_.width} {map_.height}\n-1.0\n".encode("ascii"))
        f.write(data.tobytes())


# Longer than any well-formed PFM/PGM header line, so a file without
# newlines is rejected after reading this many bytes.
_MAX_HEADER_LINE = 256
# Whole '#' comment lines a PGM header may hold before each of its
# lines (Netpbm allows them; GIMP writes one), so a file or pipe of
# comments alone is rejected after this many.
_MAX_COMMENT_LINES = 16


def _read_token_line(f, fmt: str, what: str, comments: int = 0) -> str:
    """The next header line, stripped, after up to `comments` whole lines
    that start with '#'."""
    for _ in range(comments + 1):
        line = f.readline(_MAX_HEADER_LINE + 1)
        if not line.endswith(b"\n"):
            if len(line) > _MAX_HEADER_LINE:
                raise FormatError(
                    f"{fmt} {what} line longer than {_MAX_HEADER_LINE} bytes")
            raise FormatError(f"unexpected end of file while reading {fmt} {what}")
        text = line.decode("ascii", errors="replace").strip()
        if not (comments and text.startswith("#")):
            return text
    raise FormatError(f"more than {comments} comment lines before {fmt} {what}")


def _read_raster(f, fmt: str, last: str, parse_last, itemsize: int,
                 comments: int = 0):
    """The rest of a PFM/PGM header after its magic line, and the payload:
    the "<W> <H>" line, the `last` line (the PFM scale, the PGM maxval),
    checked by parse_last, and exactly W*H*itemsize payload bytes. Up to
    `comments` '#' lines may come before each header line. No more than
    the bytes left in a regular file are read, so no header can make the
    reader allocate more than the file holds (a pipe's length is unknown
    until it is read). Returns (height, width, parse_last(line), payload)."""
    dims = _read_token_line(f, fmt, "dimensions", comments).split()
    if len(dims) != 2:
        raise FormatError(f"bad {fmt} dimensions line {dims!r}")
    try:
        width, height = int(dims[0]), int(dims[1])
    except ValueError as exc:
        raise FormatError(f"bad {fmt} dimensions {dims!r}") from exc
    size = width * height * itemsize
    # a payload past the index range is more than one read can return
    if width < 1 or height < 1 or size > sys.maxsize:
        raise FormatError(f"bad {fmt} dimensions {width}x{height}")
    parsed = parse_last(_read_token_line(f, fmt, last, comments))
    st = os.fstat(f.fileno())
    left = st.st_size - f.tell() if stat.S_ISREG(st.st_mode) else size
    payload = f.read(min(size, left))
    if len(payload) != size:
        raise FormatError(f"truncated {fmt} payload: got {len(payload)} of {size} bytes")
    if f.read(1):
        raise FormatError(f"{fmt} payload longer than {width}x{height}")
    return height, width, parsed, payload


# ---------------------------------------------------------------------------
# PGM P5 masks

def read_mask(path) -> np.ndarray:
    """Read a binary PGM ("P5", maxval 255); nonzero byte = valid. Whole
    '#' comment lines may follow the magic line and the dimensions."""
    with open(path, "rb") as f:
        magic = _read_token_line(f, "PGM", "header")
        if magic != "P5":
            raise FormatError(f"bad PGM header {magic!r}; expected 'P5'")
        height, width, _, payload = _read_raster(f, "PGM", "maxval", _pgm_maxval, 1,
                                                 _MAX_COMMENT_LINES)
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
    if not text.strip("\r\n"):  # no bytes, or only line breaks
        raise FormatError("empty CSV map")
    cells = [line.split(",") for line in text.removesuffix("\n").split("\n")]
    width = len(cells[0])
    # a ragged file allocates only the rows before its first ragged one
    height = next((r for r, row in enumerate(cells) if len(row) != width), len(cells))
    values = np.zeros((height, width))
    valid = np.ones((height, width), dtype=bool)
    for r in range(height):
        for c, tok in enumerate(cells[r]):
            tok = tok.strip()
            if tok.lower() == "nan":
                valid[r, c] = False
                continue
            try:
                values[r, c] = float(tok)
            except ValueError as exc:
                raise FormatError(f"bad CSV cell {tok!r} in row {r}") from exc
            if not math.isfinite(values[r, c]):
                raise FormatError(f"non-finite CSV cell {tok!r} in row {r}")
    if height < len(cells):
        raise FormatError(f"ragged CSV: row {height} has {len(cells[height])} cells, "
                          f"expected {width}")
    return DepthMap(values, valid)


# ---------------------------------------------------------------------------
# Synthetic scenes

@dataclass(frozen=True)
class SceneSpec:
    """A flat background with a closer rectangular foreground carrying a
    sinusoidal ridge pattern along the column axis. The defaults are the
    standard fixture: 64x64 with a ~10:1 background/foreground depth
    ratio, so global normalization compresses the +/-0.2 foreground
    ridges."""

    height: int = 64
    width: int = 64
    background_depth: float = 10.0
    fg_top: int = 16
    fg_bottom: int = 48  # exclusive
    fg_left: int = 16
    fg_right: int = 48  # exclusive
    base_depth: float = 1.0
    ridge_amplitude: float = 0.2
    ridge_period: float = 8.0
    noise_sigma: float = 0.0
    seed: int = 7

    def __post_init__(self):
        for f in fields(self):  # each field takes its default's kind
            value = getattr(self, f.name)
            kind, word = ((numbers.Integral, "an integer") if type(f.default) is int
                          else (numbers.Real, "a number"))
            if not isinstance(value, kind):
                raise ParameterError(f"{f.name} must be {word}, got {value!r}")
        if self.height < 1 or self.width < 1:
            raise ParameterError("scene dimensions must be positive")
        if not (0 <= self.fg_top < self.fg_bottom <= self.height
                and 0 <= self.fg_left < self.fg_right <= self.width):
            raise ParameterError("foreground rectangle must lie within the image")
        if not all(map(math.isfinite, (self.background_depth, self.base_depth,
                                       self.ridge_amplitude, self.ridge_period,
                                       self.noise_sigma))):
            raise ParameterError("scene depths, ridge and noise must be finite")
        if self.base_depth <= 0 or self.background_depth <= 0:
            raise ParameterError("depths must be positive")
        if self.ridge_amplitude < 0 or self.ridge_period <= 0 or self.noise_sigma < 0:
            raise ParameterError("bad ridge/noise parameters")
        if self.noise_sigma > 0 and self.seed < 0:
            raise ParameterError(f"noise seed must be >= 0, got {self.seed}")
        if self.base_depth + self.ridge_amplitude >= self.background_depth:
            raise ParameterError("foreground must be strictly closer than background")

    @property
    def foreground(self) -> tuple:
        return (self.fg_top, self.fg_bottom, self.fg_left, self.fg_right)


def generate_scene(spec: SceneSpec) -> DepthMap:
    """Deterministic ground-truth scene for the given spec."""
    try:
        values = np.full((spec.height, spec.width), spec.background_depth)
    except ValueError:  # a shape past numpy's index range
        raise ParameterError(f"scene dimensions {spec.height}x{spec.width} "
                             "are too large") from None
    cols = np.arange(spec.fg_left, spec.fg_right)
    ridge = spec.base_depth + spec.ridge_amplitude * np.sin(
        2 * np.pi * cols / spec.ridge_period)
    values[spec.fg_top:spec.fg_bottom, spec.fg_left:spec.fg_right] = ridge
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        values = values + spec.noise_sigma * rng.standard_normal(values.shape)
    return DepthMap(values)
