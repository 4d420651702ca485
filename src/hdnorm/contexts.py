"""Normalization contexts: the global context, spatial grids, depth-value bins.

A context is a set of linear pixel indices that share normalization
statistics. Depth-domain contexts are always computed from the ground
truth, never from predictions, so prediction and ground truth see
identical index sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .depth_core import DepthMap
from .errors import ParameterError

KINDS = ("spatial", "depth_percentile", "depth_range")


@dataclass(frozen=True)
class Partition:
    """One level's disjoint decomposition of the valid pixels; contexts
    are ascending arrays of linear indices."""

    level_tag: str
    contexts: tuple


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
        try:
            sizes = tuple(int(s) for s in self.sizes)
        except (TypeError, ValueError):
            raise ParameterError(f"sizes must be integers: {self.sizes!r}") from None
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
    return Partition("global", (_valid_linear(map_),))


def _key_function(gt: DepthMap, idx: np.ndarray, kind: str):
    """S -> the context key of each valid pixel idx; the work that depends
    only on gt is done here, once per hierarchy.

    spatial: pixel (r, c) lands in cell (floor(r*S/H), floor(c*S/W)).
    depth_percentile: pixels ranked by (gt value, linear index) are split
    into S contiguous runs, sizes differing by at most one with the larger
    runs first. depth_range: S equal-width bins over [min, max] of the gt
    values, the maximum clamped into the last bin.
    """
    if kind == "spatial":
        H, W = gt.height, gt.width
        rows, cols = np.divmod(idx, W)
        return lambda S: (rows * S) // H * S + (cols * S) // W
    vals = gt.values.ravel()[idx]
    if kind == "depth_percentile":
        order = np.argsort(vals, kind="stable")  # idx ascending: ties by index

        def runs(S):
            q, rem = divmod(idx.size, S)
            key = np.empty(idx.size, dtype=np.int64)
            key[order] = np.repeat(np.arange(S), q + (np.arange(S) < rem))
            return key
        return runs
    lo, hi = vals.min(), vals.max()
    if hi == lo:
        return lambda S: np.zeros(idx.shape, dtype=np.int64)
    return lambda S: np.minimum(
        np.floor((vals - lo) / ((hi - lo) / S)).astype(np.int64), S - 1)


def build_hierarchy(gt: DepthMap, spec: LevelSpec) -> ContextHierarchy:
    """One partition per size in spec.sizes, all of spec.kind; keys with
    no pixel give no context."""
    idx = _valid_linear(gt)
    key = _key_function(gt, idx, spec.kind)
    return ContextHierarchy(tuple(
        Partition(f"{spec.kind}-{S}", _group_by(idx, key(S))) for S in spec.sizes))


def partition_dump(p: Partition) -> str:
    """Deterministic listing for golden tests: contexts ordered by
    smallest member, one line per context."""
    ordered = sorted(p.contexts, key=lambda idx: int(idx[0]))
    lines = []
    for k, idx in enumerate(ordered):
        members = " ".join(str(int(i)) for i in idx)
        lines.append(f"ctx{k}: {members}")
    return "\n".join(lines)


def _group_by(idx: np.ndarray, key: np.ndarray) -> tuple:
    """Split ascending idx into per-key groups, ordered by key; the stable
    sort keeps each group ascending."""
    order = np.argsort(key, kind="stable")
    cuts = np.flatnonzero(np.diff(key[order])) + 1
    return tuple(np.split(idx[order], cuts))
