"""Normalization contexts: global, batch, spatial grids, depth-value bins.

A context is a set of linear pixel indices that share normalization
statistics. Depth-domain contexts are always computed from the ground
truth, never from predictions, so prediction and ground truth see
identical index sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .depth_core import DepthMap
from .errors import EmptyInputError, ParameterError

KINDS = ("spatial", "depth_percentile", "depth_range")


@dataclass(frozen=True)
class Partition:
    """One level's disjoint decomposition of the valid pixels; contexts
    are arrays of linear indices."""

    level_tag: str
    contexts: tuple
    npixels: int


@dataclass(frozen=True)
class ContextHierarchy:
    """Ordered list of partitions; one per scale level."""

    levels: tuple


@dataclass(frozen=True)
class LevelSpec:
    kind: str
    sizes: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown context kind {self.kind!r}")
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes:
            raise ParameterError("sizes must be non-empty")
        if any(s < 1 for s in sizes):
            raise ParameterError(f"sizes must be >= 1, got {sizes}")
        if len(set(sizes)) != len(sizes):
            raise ParameterError(f"sizes must be distinct, got {sizes}")
        object.__setattr__(self, "sizes", sizes)


def _valid_linear(map_: DepthMap) -> np.ndarray:
    map_.require_valid()
    return np.flatnonzero(map_.valid.ravel())


def global_context(map_: DepthMap) -> Partition:
    """Single context over all valid pixels."""
    idx = _valid_linear(map_)
    return Partition("global", (idx,), map_.height * map_.width)


def batch_context(maps: Sequence[DepthMap]) -> Partition:
    """One context spanning all valid pixels of all maps.

    Pixel indices live in the concatenated pixel space, offset by each
    map's base offset.
    """
    if not maps:
        raise EmptyInputError("batch_context needs at least one map")
    pieces, base = [], 0
    for m in maps:
        pieces.append(_valid_linear(m) + base)
        base += m.height * m.width
    return Partition("batch", (np.concatenate(pieces),), base)


def spatial_grid(map_: DepthMap, S: int) -> Partition:
    """S x S grid over the image plane; pixel (r, c) lands in cell
    (floor(r*S/H), floor(c*S/W)). Empty cells are dropped."""
    S = _check_s(S)
    idx = _valid_linear(map_)
    H, W = map_.height, map_.width
    rows, cols = np.divmod(idx, W)
    cell = (rows * S) // H * S + (cols * S) // W
    contexts = _group_by(idx, cell)
    return Partition(f"spatial-{S}", contexts, H * W)


def depth_percentile_bins(gt: DepthMap, S: int) -> Partition:
    """Equal-count bins: valid pixels sorted by (gt value, linear index)
    and split into S contiguous runs, sizes differing by at most one with
    the larger runs first."""
    S = _check_s(S)
    idx = _valid_linear(gt)
    vals = gt.values.ravel()[idx]
    order = np.lexsort((idx, vals))
    ranked = idx[order]
    M = ranked.size
    q, rem = divmod(M, S)
    sizes = [q + 1] * rem + [q] * (S - rem)
    contexts, pos = [], 0
    for n in sizes:
        if n == 0:
            continue
        contexts.append(np.sort(ranked[pos:pos + n]))
        pos += n
    return Partition(f"depth_percentile-{S}", tuple(contexts), gt.height * gt.width)


def depth_range_bins(gt: DepthMap, S: int) -> Partition:
    """Equal-width bins over [min, max] of the valid gt values; the
    maximum is clamped into the last bin; empty bins are dropped."""
    S = _check_s(S)
    idx = _valid_linear(gt)
    vals = gt.values.ravel()[idx]
    lo, hi = vals.min(), vals.max()
    if hi == lo:
        binno = np.zeros(idx.shape, dtype=np.int64)
    else:
        w = (hi - lo) / S
        binno = np.minimum(np.floor((vals - lo) / w).astype(np.int64), S - 1)
    contexts = _group_by(idx, binno)
    return Partition(f"depth_range-{S}", contexts, gt.height * gt.width)


_BUILDERS = {
    "spatial": spatial_grid,
    "depth_percentile": depth_percentile_bins,
    "depth_range": depth_range_bins,
}


def build_hierarchy(gt: DepthMap, spec: LevelSpec) -> ContextHierarchy:
    """One partition per size in spec.sizes, all of spec.kind."""
    builder = _BUILDERS[spec.kind]
    return ContextHierarchy(tuple(builder(gt, s) for s in spec.sizes))


def partition_dump(p: Partition) -> str:
    """Deterministic listing for golden tests: contexts ordered by
    smallest member, one line per context."""
    ordered = sorted(p.contexts, key=lambda idx: int(idx.min()))
    lines = []
    for k, idx in enumerate(ordered):
        members = " ".join(str(int(i)) for i in np.sort(idx))
        lines.append(f"ctx{k}: {members}")
    return "\n".join(lines)


def _check_s(S) -> int:
    S = int(S)
    if S < 1:
        raise ParameterError(f"grid/bin count must be >= 1, got {S}")
    return S


def _group_by(idx: np.ndarray, key: np.ndarray) -> tuple:
    """Split idx into per-key groups, ordered by key; groups stay sorted."""
    order = np.argsort(key, kind="stable")
    sidx, skey = idx[order], key[order]
    cuts = np.flatnonzero(np.diff(skey)) + 1
    return tuple(np.sort(g) for g in np.split(sidx, cuts))
