"""SSI and hierarchical (HDN) losses with analytical gradients.

The per-pixel loss at location i averages, over the pixel's surviving
contexts, the absolute difference between the median/MAD-normalized
prediction and ground truth. The outer mean runs over pixels that kept
at least one context after filtering. So the value is a weighted sum
over members: each |residual| weighs 1/(its pixel's context count),
and the sum is divided by the number of such pixels.

SSI is the one-level case: a hierarchy of the single global context.
Batch SSI is SSI on the maps concatenated into one.

Context filtering is a fixed rule: a context needs at least two
joint-valid pixels and a ground-truth MAD above EPS. A smaller or
degenerate context carries no relative-depth signal (a singleton has
gt MAD 0). Every MAD is clamped at EPS before it divides.

An evaluation has two parts. The *plan* holds what depends only on the
gt and the joint mask: per level, the members of the surviving contexts
as one flat array grouped by context, their normalized gt values and
their weights. A LossConfig remembers the plan of the last (gt, joint
mask) it evaluated, so calls that reuse one gt build it once. The
*pass* does the per-prediction work with no loop over contexts: one
argsort of pred serves every level, a stable sort of each level's
context labels regroups it (unless the level is one context over every
used pixel) so that every context's median sits at a known offset, and
segment sums give the MAD and the gradient terms. The median's
derivative is nonzero only at a context's one or two middle ranks, so
its terms are a sparse update at those pixels.

Gradients treat the median's sort selection and every sign() as
locally constant; the loss is piecewise smooth and tests skip tie
neighborhoods. Among tied pred values the lower linear index ranks
first, and the median derivative follows that rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .contexts import ContextHierarchy
from .depth_core import DepthMap, joint_valid
from .errors import DegenerateInputError, ParameterError

EPS = 1e-6
# how close to a median/sign/clamp tie tie_mask flags a context
TIE_MARGIN = 1e-4


@dataclass(frozen=True)
class LossConfig:
    hierarchy: ContextHierarchy
    # (gt, joint mask, plan) of the last evaluation, see _plan_for
    _memo: Optional[tuple] = field(default=None, init=False, repr=False,
                                   compare=False)


@dataclass(frozen=True)
class LossReport:
    value: float
    gradient: Optional[np.ndarray]
    per_level: list
    used_pixels: int


@dataclass(frozen=True)
class _LevelPlan:
    """The surviving contexts of one level. Members are listed context
    by context, in ascending linear index within each context."""

    tag: str
    pix: np.ndarray      # linear index of each member
    sizes: np.ndarray    # members per context
    offsets: np.ndarray  # start of each context in pix
    label: np.ndarray    # per map pixel: its context, len(sizes) if none
    ng: np.ndarray       # normalized gt per member
    share: np.ndarray = None  # per member: 1 / surviving contexts of its pixel


@dataclass(frozen=True)
class _Plan:
    levels: tuple
    used: np.ndarray  # pixels in at least one surviving context


def _build_plan(gt: DepthMap, joint: np.ndarray, cfg: LossConfig) -> _Plan:
    """Filter every context to the joint-valid pixels, drop those the
    filter rule rejects, and flatten the rest."""
    jf = joint.ravel()
    gf = gt.values.ravel()
    npix = gf.size
    counts = np.zeros(npix, dtype=np.int64)
    levels = []
    for part in cfg.hierarchy.levels:
        kept, ngs = [], []
        for ctx in part.contexts:
            idx = ctx[jf[ctx]]
            if idx.size < 2:
                continue
            gvals = gf[idx]
            gm = np.median(gvals)
            gmad = np.mean(np.abs(gvals - gm))
            if gmad <= EPS:
                continue
            kept.append(idx)
            ngs.append((gvals - gm) / gmad)
        k = len(kept)
        sizes = np.array([idx.size for idx in kept], dtype=np.intp)
        pix = np.concatenate(kept) if kept else np.empty(0, dtype=np.intp)
        label = np.full(npix, k, dtype=np.int16 if k < 2**15 else np.int32)
        label[pix] = np.repeat(np.arange(k), sizes)
        counts += label < k
        levels.append(_LevelPlan(part.level_tag, pix, sizes,
                                 np.cumsum(sizes) - sizes, label,
                                 np.concatenate(ngs) if ngs else np.empty(0)))
    used = np.flatnonzero(counts)
    if used.size == 0:
        raise DegenerateInputError("all contexts filtered out")
    # a pixel's context count is known once every level is filtered
    return _Plan(tuple(replace(lv, share=1.0 / counts[lv.pix]) for lv in levels),
                 used)


def _plan_for(cfg: LossConfig, gt: DepthMap, joint: np.ndarray) -> _Plan:
    """cfg's plan for (gt, joint), rebuilt only when either changed. gt
    is compared by identity: a DepthMap holds read-only copies of its
    arrays, so one object always carries the same values."""
    memo = cfg._memo
    if memo is not None and memo[0] is gt and np.array_equal(memo[1], joint):
        return memo[2]
    plan = _build_plan(gt, joint, cfg)
    object.__setattr__(cfg, "_memo", (gt, joint, plan))
    return plan


def _pred_order(plan: _Plan, pf: np.ndarray, stable: bool) -> np.ndarray:
    """The used pixels in ascending pred order, shared by every level.
    Tied values share one median value, which is all the forward pass
    reads. The gradient also needs which pixel holds the median rank, so
    with stable set, tied values keep ascending linear index order.
    Without ties the default sort, 4-5x faster than the stable one on
    float64, already gives that order."""
    vals = pf[plan.used]
    order = np.argsort(vals)
    if stable:
        ranked = vals[order]
        if np.any(ranked[1:] == ranked[:-1]):
            order = np.argsort(vals, kind="stable")
    return plan.used[order]


def _middle_ranks(lv: _LevelPlan, order: np.ndarray):
    """Pixels at the lower and upper middle rank of each context (one
    pixel for odd sizes). The stable sort of the labels, a radix sort
    for int16, keeps pred order within each context. A level whose one
    context holds every used pixel is already in that order."""
    lo, hi = lv.offsets + (lv.sizes - 1) // 2, lv.offsets + lv.sizes // 2
    if lv.sizes.size != 1 or lv.sizes[0] < order.size:
        perm = np.argsort(lv.label[order], kind="stable")
        lo, hi = perm[lo], perm[hi]
    return order[lo], order[hi]


def _level_pass(lv: _LevelPlan, pf: np.ndarray, order: np.ndarray):
    """(lo, hi, dev, mad, res) of one level: the middle-rank pixels, and
    per member the deviation from the context median and the normalized
    residual; mad is the unclamped MAD per context."""
    lo, hi = _middle_ranks(lv, order)
    # equals np.median's (a + b) / 2 and cannot overflow when a == b
    med = 0.5 * pf[lo] + 0.5 * pf[hi]
    dev = pf[lv.pix]
    dev -= np.repeat(med, lv.sizes)
    mad = np.add.reduceat(np.abs(dev), lv.offsets) / lv.sizes
    res = dev / np.repeat(np.maximum(mad, EPS), lv.sizes)
    res -= lv.ng
    return lo, hi, dev, mad, res


def hdn_loss(pred: DepthMap, gt: DepthMap, cfg: LossConfig,
             with_gradient: bool = False) -> LossReport:
    """Hierarchical loss over cfg.hierarchy (built from this gt). With
    with_gradient set, the report also holds the analytical
    d(loss)/d(pred) as an H x W array, zero at invalid pixels and at
    pixels with no surviving context."""
    plan = _plan_for(cfg, gt, joint_valid(pred, gt))
    pf = pred.values.ravel()
    order = _pred_order(plan, pf, stable=with_gradient)
    used, value = plan.used.size, 0.0
    gradient = np.zeros(pred.values.shape) if with_gradient else None
    per_level = []
    for lv in plan.levels:
        lo, hi, dev, mad, res = _level_pass(lv, pf, order)
        if with_gradient:
            _add_level_gradient(gradient.reshape(-1), lv, lo, hi, dev, mad, res, used)
        res = np.abs(res)
        per_level.append((lv.tag, float(res.sum()) / res.size if res.size else 0.0))
        res *= lv.share
        value += float(res.sum())
    value /= used
    return LossReport(value=value, gradient=gradient, per_level=per_level,
                      used_pixels=int(used))


def _add_level_gradient(gradient, lv, lo, hi, dev, mad, res, used) -> None:
    """Add one level's d(loss)/d(pred) to gradient: ws/s - sign(dev)*v
    at every member, and each context's median term z at its lower and
    upper middle-rank pixel (one pixel, twice, for odd sizes)."""
    # deadband so numerically-affine predictions (residuals at
    # rounding noise) get an exactly zero gradient
    ws = np.where(np.abs(res) > 1e-12, np.copysign(lv.share, res), 0.0)
    sgn = np.sign(dev)
    s = np.maximum(mad, EPS)
    c = 1.0 / (s * used)  # ws holds share, so 1/used folds in here
    # -d(loss)/d(MAD) / n; zero where the clamp holds s at EPS
    v = np.add.reduceat(ws * dev, lv.offsets) / s * c / lv.sizes
    v[mad <= EPS] = 0.0
    z = 0.5 * (np.add.reduceat(sgn, lv.offsets) * v
               - np.add.reduceat(ws, lv.offsets) * c)
    ws *= np.repeat(c, lv.sizes)
    sgn *= np.repeat(v, lv.sizes)
    ws -= sgn
    gradient[lv.pix] += ws
    gradient[lo] += z
    gradient[hi] += z


def l1_plus_hdn(pred: DepthMap, gt: DepthMap, cfg: LossConfig,
                lam: float, with_gradient: bool = False) -> LossReport:
    """L1 regression loss plus lam times the hierarchical loss."""
    if lam < 0:
        raise ParameterError(f"lambda must be >= 0, got {lam}")
    joint = joint_valid(pred, gt)
    idx = joint.ravel()
    diff = pred.values.ravel()[idx] - gt.values.ravel()[idx]
    l1 = float(np.mean(np.abs(diff)))
    hdn = hdn_loss(pred, gt, cfg, with_gradient=with_gradient)
    gradient = None
    if with_gradient:
        gradient = np.zeros(pred.values.size)
        gradient[np.flatnonzero(idx)] = np.sign(diff) / diff.size
        gradient = gradient.reshape(pred.values.shape) + lam * hdn.gradient
    return LossReport(value=l1 + lam * hdn.value, gradient=gradient,
                      per_level=[("l1", l1)] + hdn.per_level,
                      used_pixels=hdn.used_pixels)


# ---------------------------------------------------------------------------
# Finite-difference checking support

def numerical_gradient(pred: DepthMap, gt: DepthMap, cfg: LossConfig,
                       step: float = 1e-5) -> np.ndarray:
    """Central finite differences of hdn_loss over the joint-valid pixels."""
    if step <= 0:
        raise ParameterError(f"finite-difference step must be > 0, got {step}")
    joint = joint_valid(pred, gt)
    base = np.array(pred.values)
    grad = np.zeros_like(base)
    for r, c in zip(*np.nonzero(joint)):
        for sgn in (+1, -1):
            bumped = np.array(base)
            bumped[r, c] += sgn * step
            val = hdn_loss(DepthMap(bumped, pred.valid), gt, cfg).value
            grad[r, c] += sgn * val
        grad[r, c] /= 2 * step
    return grad


def tie_mask(pred: DepthMap, gt: DepthMap, cfg: LossConfig) -> np.ndarray:
    """Pixels near a median/sign tie, where finite differences straddle a
    kink of the piecewise-smooth loss. Conservative: if any member of a
    context is within TIE_MARGIN of a tie, the whole context is flagged."""
    plan = _plan_for(cfg, gt, joint_valid(pred, gt))
    pf = pred.values.ravel()
    order = _pred_order(plan, pf, stable=False)
    tied = np.zeros(pf.size, dtype=bool)
    for lv in plan.levels:
        lo, hi, dev, mad, res = _level_pass(lv, pf, order)
        d = pf[lv.pix]
        absdev = np.abs(dev)
        # sign(dev) flips; the middle's own dev is identically zero
        near = (absdev > 0) & (absdev < TIE_MARGIN)
        # order crossings that reselect the median
        for mid in (lo, hi):
            dist = np.abs(d - np.repeat(pf[mid], lv.sizes))
            near |= (dist > 0) & (dist < TIE_MARGIN)
        # residual sign flips, scaled by the normalization slope
        s = np.maximum(mad, EPS)
        near |= np.abs(res) < np.repeat(TIE_MARGIN * np.maximum(1.0, 1.0 / s),
                                        lv.sizes)
        flag = np.logical_or.reduceat(near, lv.offsets)
        # clamp branch switch
        flag |= np.abs(mad - EPS) < TIE_MARGIN
        tied[lv.pix[np.repeat(flag, lv.sizes)]] = True
    return tied.reshape(pred.values.shape)
