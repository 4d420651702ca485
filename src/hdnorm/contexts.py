"""Normalization contexts: the global context, spatial grids, depth-value bins.

A context is a set of linear pixel indices that share normalization
statistics. Depth-domain contexts are always computed from the ground
truth, never from predictions, so prediction and ground truth see
identical index sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .depth_core import DepthMap
from .errors import ParameterError

KINDS = ("spatial", "depth_percentile", "depth_range")
# loss kind -> context kind of its levels; None is the one global context
LOSS_KINDS = {"ssi": None, "hdn_s": "spatial", "hdn_dp": "depth_percentile",
              "hdn_dr": "depth_range"}


@dataclass(frozen=True)
class Partition:
    """One level's disjoint decomposition of the valid pixels: members
    lists them context by context, each context ascending, and sizes
    gives the member count of each context."""

    level_tag: str
    members: np.ndarray
    sizes: np.ndarray

    @cached_property
    def contexts(self) -> tuple:
        """Each context's members, as views of members."""
        return tuple(np.split(self.members, np.cumsum(self.sizes[:-1])))


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
            given = tuple(self.sizes)  # once, so that a generator works
            sizes = tuple(int(s) for s in given)
            if sizes != given:  # int() truncated 2.7 or parsed "3"
                raise ValueError
        except (TypeError, ValueError, OverflowError):
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
    idx = _valid_linear(map_)
    return Partition("global", idx, np.array([idx.size]))


def stable_argsort(vals: np.ndarray) -> np.ndarray:
    """np.argsort(vals, kind="stable"): tied values keep ascending
    position. The default sort, 4-5x faster on float64, gives that order
    up to the order within runs of tied values. When there are ties, the
    keys (dense rank of the value) * n + position are sorted already but
    within those runs; a stable sort of them, fast on nearly sorted
    input, gives the order as the key modulo n."""
    order = np.argsort(vals)
    ranked = vals[order]
    new = ranked[1:] != ranked[:-1]
    n = vals.size
    if new.all():
        return order
    if n > 2**31:  # the largest key, n * n - 1, must fit in int64
        return np.argsort(vals, kind="stable")
    key = np.zeros(n, dtype=np.int64)
    np.cumsum(new, out=key[1:])
    key *= n
    key += order
    key.sort(kind="stable")
    key %= n
    return key


def _key_function(gt: DepthMap, idx: np.ndarray, kind: str):
    """S -> the context key of each valid pixel idx; the work that depends
    only on gt is done here, once per hierarchy. No S, however large,
    wraps a key or allocates memory in proportion to S.

    spatial: pixel (r, c) lands in cell (floor(r*S/H), floor(c*S/W)). A
    row's dense rank is floor(r*min(S, H)/H), as the cells are dense for
    S <= H and strictly increasing for S >= H (columns alike); the key is
    the row rank times the number of column cells plus the column rank.
    depth_percentile: pixels ranked by (gt value, linear index) are split
    into S contiguous runs, sizes differing by at most one with the larger
    runs first; a pixel's run follows from its rank. depth_range: S
    equal-width bins over [min, max] of the gt values, the maximum clamped
    into the last bin; S is capped where a bin gets finer than any gap
    between values, and the float bin index is keyed by its bits.
    """
    if kind == "spatial":
        H, W = gt.height, gt.width

        def cells(S):
            rows = np.arange(H, dtype=np.int64) * min(S, H) // H
            cols = np.arange(W, dtype=np.int64) * min(S, W) // W
            return (rows[:, None] * (cols[-1] + 1) + cols).ravel()[idx]
        return cells
    vals = gt.values.ravel()[idx]
    if kind == "depth_percentile":
        rank = np.empty(idx.size, dtype=np.int64)
        rank[stable_argsort(vals)] = np.arange(idx.size)  # ties by index

        def runs(S):
            q, rem = divmod(idx.size, S)
            big = rem * (q + 1)  # members of the larger runs; all when q == 0
            return np.where(rank < big, rank // (q + 1),
                            rem + (rank - big) // max(q, 1))
        return runs
    lo, hi = vals.min(), vals.max()
    if math.isinf(float(hi) - float(lo)):
        # halving is exact (but in the last bit of subnormals, far below
        # any bin) and brings the span into range
        vals, lo, hi = vals / 2, lo / 2, hi / 2

    def bins(S):
        # a bin (hi - lo) / 2**1000 wide is finer than the float spacing of
        # every value but those within 2**-948 (hi - lo) of 0. A width that
        # underflows to 0 becomes the least float, of which every gap between
        # two floats is a multiple, so each distinct value keeps its own bin.
        S = min(S, 2**1000)
        width = max((hi - lo) / S, np.nextafter(0.0, 1.0))
        key = np.minimum(np.floor((vals - lo) / width), S - 1)
        key += 0.0  # gt -0.0 over a min of +0.0 gives -0.0; make it +0.0
        return key.view(np.int64)  # the bits of floats >= +0 sort as they do
    return bins


def build_hierarchy(gt: DepthMap, spec: LevelSpec) -> ContextHierarchy:
    """One partition per size in spec.sizes, all of spec.kind; keys with
    no pixel give no context."""
    idx = _valid_linear(gt)
    key = _key_function(gt, idx, spec.kind)
    return ContextHierarchy(tuple(
        Partition(f"{spec.kind}-{S}", *_group_by(idx, key(S))) for S in spec.sizes))


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
    """(members, sizes) of ascending idx split into per-key groups,
    ordered by key; the stable sort keeps each group ascending."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    cuts = np.flatnonzero(key[1:] != key[:-1]) + 1
    return idx[order], np.diff(cuts, prepend=0, append=idx.size)
