"""SSI and hierarchical (HDN) losses with analytical gradients.

The per-pixel loss at location i averages, over the pixel's surviving
contexts, the absolute difference between the median/MAD-normalized
prediction and ground truth. The outer mean runs over pixels that kept
at least one context after filtering. So the value is a weighted sum
over members: each |residual| weighs 1/(its pixel's context count),
and the sum is divided by the number of such pixels.

SSI is the one-level case: a hierarchy of the single global context.
Batch SSI is SSI on the maps concatenated into one.

Context filtering is one rule: a context is kept when the MAD of its
joint-valid gt values is above 0. A context of constant gt (a singleton
among them) carries no relative-depth signal. A pred context divides by
its MAD, or by 1 when it is 0 (every deviation is 0 then, so the
residuals are -ng). gt and pred are each first multiplied by the power
of two that brings their largest used |value| into [0.5, 1): exact
unless a product falls below the normal range, and no MAD sum can
overflow. So every finite map has a loss, gt -> 2^k * gt keeps the same
contexts at any k, and pred -> a * pred + b leaves the loss unchanged.

An evaluation has two parts. The *plan* holds what depends only on the
gt and the joint mask. It is built level by level from each partition's
flat member array: one joint-mask filter, one gather of gt values, and
per-context medians (one np.partition each, as np.median) and MADs (the
pass's own segment sum, so hdn_loss(gt, gt) is 0). Its levels form
one *block* if they total at most BLOCK_MEMBERS members, else one block
each. A block lists the members of its levels' surviving contexts as one
flat array grouped by context, with their normalized gt values and their
weights (one float when every used pixel survives in the same number of
contexts). A LossConfig remembers the plan of the last (gt, joint mask)
it evaluated, so calls that reuse one gt build it once. The *pass* does
the per-prediction work with no loop over contexts. One stable argsort
of pred serves every level, with or without the gradient, and a stable
sort of each level's context labels, each as narrow as the level's
context count allows, regroups it so that every context's median sits at
a known offset. Each block then runs one forward and one backward pass:
elementwise ops, and segment sums for the MAD and the gradient terms.
The loss and the per-level values sum each level's slice of the block.
On a small map numpy's per-call cost dominates, so stacking its levels
pays; a large map runs its levels one at a time, because stacked
temporaries fall out of cache. The median's derivative is nonzero only
at a context's one or two middle ranks, so its terms are a sparse update
at those pixels. Each block runs in a call of its own, so its
member-sized arrays are freed before the next block starts; within it
the residuals are divided into the repeated-MAD buffer, and the gradient
overwrites the residuals and deviations with its weights and signs. At
480x640 a pass then holds about three member-sized arrays at a time
beyond its inputs.

Gradients treat the median's sort selection and every sign() as
locally constant; the loss is piecewise smooth, and numerical_gradient
skips a pixel whose forward and backward differences show a kink within
the step. Among tied pred values the lower linear index ranks first, and
the median derivative follows that rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .contexts import (LOSS_KINDS, ContextHierarchy, LevelSpec, build_hierarchy,
                       global_context, stable_argsort)
from .depth_core import DepthMap, joint_valid
from .errors import DegenerateInputError, InvalidMapError, ParameterError, ShapeMismatchError

GRAD_STEP = 1e-5  # numerical_gradient's bump, relative to pred's size
# a gradient check's bound on the relative error; numerical_gradient also
# skips a pixel whose forward and backward differences disagree by more
GRAD_TOLERANCE = 1e-4
# a hierarchy of at most this many members is one block, else one per level:
# stacked 4k-member levels (64x64) ran 25% faster, 73k-member ones 10% slower
BLOCK_MEMBERS = 2**16


@dataclass(frozen=True)
class LossConfig:
    hierarchy: ContextHierarchy
    # (gt, joint mask, plan) of the last evaluation, see _plan_for
    _memo: Optional[tuple] = field(default=None, init=False, repr=False,
                                   compare=False)


def loss_config(gt: DepthMap, loss_kind: str,
                level_sizes: tuple = (1,)) -> LossConfig:
    """The LossConfig of a loss kind over gt; ssi ignores level_sizes."""
    if not isinstance(loss_kind, str) or loss_kind not in LOSS_KINDS:
        raise ParameterError(f"unknown loss kind {loss_kind!r}")
    if LOSS_KINDS[loss_kind] is None:
        return LossConfig(ContextHierarchy((global_context(gt),), gt.values.shape))
    return LossConfig(build_hierarchy(gt, LevelSpec(LOSS_KINDS[loss_kind], level_sizes)))


@dataclass(frozen=True)
class LossReport:
    value: float
    gradient: Optional[np.ndarray]
    per_level: list
    used_pixels: int


@dataclass(frozen=True)
class _Level:
    """One level of a block. Its surviving contexts are listed in order,
    members [start, stop) of the block's flat arrays."""

    tag: str
    label: np.ndarray  # per map pixel: its context, the context count if none
    start: int
    stop: int
    lo: np.ndarray     # per context: position of its lower and upper
    hi: np.ndarray     # middle rank in the level's pred-sorted members


@dataclass(frozen=True)
class _Block:
    """Consecutive levels run as one pass. Members are listed level by
    level, context by context, in ascending linear index within each
    context."""

    levels: tuple
    pix: np.ndarray      # linear index of each member
    sizes: np.ndarray    # members per context
    offsets: np.ndarray  # start of each context in pix
    ng: np.ndarray       # normalized gt per member
    # per member: 1 / surviving contexts of its pixel; one float when every
    # member's pixel survives in the same number of contexts
    share: np.ndarray | float


@dataclass(frozen=True)
class _Plan:
    blocks: tuple
    used: np.ndarray  # pixels in at least one surviving context


def _prescale(lo, hi) -> float:
    """2^-e bringing max(-lo, hi) into [0.5, 1), with e >= -1021 to stay finite."""
    return np.ldexp(1.0, -max(np.frexp(max(-lo, hi))[1], -1021))


def _center(dev, med, sizes, offsets) -> np.ndarray:
    """Subtract each context's median from its members of dev in place and
    return each context's MAD, the mean |deviation| by one segment sum."""
    dev -= np.repeat(med, sizes)
    return np.add.reduceat(np.abs(dev), offsets) / sizes


def _build_plan(gt: DepthMap, joint: np.ndarray, cfg: LossConfig) -> _Plan:
    """Filter every context to the joint-valid pixels, drop those the
    filter rule rejects, and make the blocks. Each level is one flat
    pass over its members; only the medians (np.median's values) take a
    loop over contexts, and _center takes the MADs as the pass does."""
    if cfg.hierarchy.shape != gt.values.shape:
        raise ShapeMismatchError("cfg was built from a {}x{} map, not the {}x{} gt".format(
            *cfg.hierarchy.shape, *gt.values.shape))
    jf = joint.ravel()
    gf = gt.values.ravel()
    scale = _prescale(gf.min(initial=0.0, where=jf), gf.max(initial=0.0, where=jf))
    npix = gf.size
    counts = np.zeros(npix, dtype=np.min_scalar_type(len(cfg.hierarchy.levels)))
    levels = []
    for part in cfg.hierarchy.levels:
        pix, sizes = part.members, part.sizes
        joint_pix = jf[pix]
        if not joint_pix.all():
            pix = pix[joint_pix]
            sizes = np.add.reduceat(joint_pix, np.cumsum(sizes) - sizes, dtype=np.intp)
        keep = sizes >= 2  # a smaller context has MAD 0; spare it the median loop
        if not keep.all():
            pix, sizes = pix[np.repeat(keep, sizes)], sizes[keep]
        g = gf[pix]
        g *= scale
        offsets = np.cumsum(sizes) - sizes
        med = np.empty(sizes.size)
        for k, (a, n) in enumerate(zip(offsets.tolist(), sizes.tolist())):
            # one kth selects several times faster than two
            h = n // 2
            part_g = np.partition(g[a:a + n], h)
            med[k] = part_g[h] if n % 2 else (part_g[:h].max() + part_g[h]) / 2
        mad = _center(g, med, sizes, offsets)  # g now holds the deviations
        keep = mad > 0
        if not keep.all():
            sel = np.repeat(keep, sizes)
            pix, g, sizes, mad = pix[sel], g[sel], sizes[keep], mad[keep]
        k = sizes.size
        label = np.full(npix, k, dtype=np.min_scalar_type(k))
        label[pix] = np.repeat(np.arange(k, dtype=label.dtype), sizes)
        counts += label < k
        g /= np.repeat(mad, sizes)
        levels.append((part.level_tag, label, pix, sizes, g))
    used = np.flatnonzero(counts)
    if used.size == 0:
        raise DegenerateInputError("all contexts filtered out")
    fits = sum(lv[2].size for lv in levels) <= BLOCK_MEMBERS
    groups = [levels] if fits else [[lv] for lv in levels]
    # a pixel's context count is known once every level is filtered
    top = int(counts.max())
    if np.count_nonzero(counts == top) == used.size:
        counts = 1.0 / top  # every used pixel has top contexts
    return _Plan(tuple(_block(g, counts) for g in groups), used)


def _block(group, counts) -> _Block:
    """One block of the (tag, label, pix, sizes, ng) levels in group. A
    block of one level holds that level's own arrays. counts is the
    per-pixel context count, or the one share of every pixel."""
    def cat(arrays):
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    levels, start = [], 0
    for tag, label, pix, sizes, _ in group:
        offsets = np.cumsum(sizes) - sizes
        levels.append(_Level(tag, label, start, start + pix.size,
                             offsets + (sizes - 1) // 2, offsets + sizes // 2))
        start += pix.size
    pix = cat([g[2] for g in group])
    sizes = cat([g[3] for g in group])
    share = counts if isinstance(counts, float) else 1.0 / counts[pix]
    return _Block(tuple(levels), pix, sizes, np.cumsum(sizes) - sizes,
                  cat([g[4] for g in group]), share)


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


def _pred_order(plan: _Plan, pf: np.ndarray) -> np.ndarray:
    """The used pixels in ascending pred order, shared by every level and
    by every caller; tied values keep ascending linear index order, so
    the gradient knows which pixel holds a median rank."""
    return plan.used[stable_argsort(pf[plan.used])]


def _middle_ranks(lv: _Level, order: np.ndarray):
    """Pixels at the lower and upper middle rank of each context of one
    level (one pixel for odd sizes). The stable sort of the labels (one
    radix pass when they are uint8, up to 255 contexts) keeps pred order
    within each context."""
    perm = np.argsort(lv.label[order], kind="stable")
    return order[perm[lv.lo]], order[perm[lv.hi]]


def hdn_loss(pred: DepthMap, gt: DepthMap, cfg: LossConfig,
             with_gradient: bool = False) -> LossReport:
    """Hierarchical loss over cfg.hierarchy; a cfg built from a map of another
    shape than gt raises ShapeMismatchError. With with_gradient set, the report
    also holds the analytical d(loss)/d(pred) as an H x W array, zero at invalid
    pixels and at pixels with no surviving context. Every finite pred has a
    value; a gradient whose 1 / pred MAD overflows raises InvalidMapError."""
    plan = _plan_for(cfg, gt, joint_valid(pred, gt))
    pf = pred.values.ravel()
    order = _pred_order(plan, pf)
    used, value = plan.used.size, 0.0
    gradient = np.zeros(pred.values.shape) if with_gradient else None
    per_level = []
    for block in plan.blocks:
        # a call per block, so no block's arrays outlive it
        for tag, mean, total in _run_block(block, pf, order, gradient, used):
            per_level.append((tag, mean))
            value += total
    value /= used
    return LossReport(value=value, gradient=gradient, per_level=per_level,
                      used_pixels=int(used))


def _run_block(block: _Block, pf: np.ndarray, order: np.ndarray,
               gradient: Optional[np.ndarray], used: int) -> list:
    """(tag, mean |residual|, sum of share * |residual|) of each level
    of one block; adds the block's gradient terms when gradient is set.
    lo and hi are the middle-rank pixels of each context, s its MAD
    divisor (1 in pred units where the MAD is 0), and per member dev is
    the deviation from the median and res the normalized residual."""
    scale = _prescale(pf[order[0]], pf[order[-1]])  # order is sorted
    lo, hi = map(np.concatenate,
                 zip(*(_middle_ranks(lv, order) for lv in block.levels)))
    # equals np.median's (a + b) / 2 and cannot overflow when a == b
    med = (0.5 * pf[lo] + 0.5 * pf[hi]) * scale
    dev = pf[block.pix]
    dev *= scale
    mad = _center(dev, med, block.sizes, block.offsets)
    s = np.where(mad > 0, mad, scale)
    res = np.repeat(s, block.sizes)
    np.divide(dev, res, out=res)
    res -= block.ng
    absres = np.abs(res)
    means = [float(absres[lv.start:lv.stop].sum()) / (lv.stop - lv.start)
             if lv.stop > lv.start else 0.0 for lv in block.levels]
    # deadband so numerically-affine predictions (residuals at
    # rounding noise) get an exactly zero gradient
    dead = absres <= 1e-12 if gradient is not None else None
    absres *= block.share
    totals = [float(absres[lv.start:lv.stop].sum()) for lv in block.levels]
    del absres  # before the gradient's temporaries
    if gradient is not None:
        try:
            with np.errstate(over="raise", invalid="raise"):
                _add_block_gradient(gradient.reshape(-1), block, lo, hi, dev,
                                    s, res, dead, used, scale)
        except FloatingPointError:
            raise InvalidMapError("pred values too small to differentiate: 1 / "
                                  "the MAD of a context overflows") from None
    return [(lv.tag, m, t) for lv, m, t in zip(block.levels, means, totals)]


def _add_block_gradient(gradient, block, lo, hi, dev, s, res, dead,
                        used, scale) -> None:
    """Add one block's d(loss)/d(pred) to gradient: ws/s - sign(dev)*v
    at every member, and each context's median term z at its lower and
    upper middle-rank pixel (one pixel, twice, for odd sizes). A pixel
    is a member, and may be a middle rank, once per level, so the adds
    accumulate repeated indices. ws = share * sign(res), +0.0 where dead
    is set, overwrites res, and sign(dev) overwrites dev."""
    ws = np.copysign(block.share, res, out=res)
    ws[dead] = 0.0
    c = scale / s / used  # 1 / (pred-unit MAD * used); ws holds share
    # -d(loss)/d(MAD) / n; zero where the MAD is 0, as dev is
    v = np.add.reduceat(ws * dev, block.offsets) / s * c / block.sizes
    sgn = np.sign(dev, out=dev)
    z = 0.5 * (np.add.reduceat(sgn, block.offsets) * v
               - np.add.reduceat(ws, block.offsets) * c)
    ws *= np.repeat(c, block.sizes)
    sgn *= np.repeat(v, block.sizes)
    ws -= sgn
    np.add.at(gradient, block.pix, ws)
    np.add.at(gradient, lo, z)
    np.add.at(gradient, hi, z)


def l1_plus_hdn(pred: DepthMap, gt: DepthMap, cfg: LossConfig,
                lam: float, with_gradient: bool = False) -> LossReport:
    """L1 regression loss plus lam times the hierarchical loss."""
    if not 0 <= lam < np.inf:
        raise ParameterError(f"lambda must be finite and >= 0, got {lam}")
    hdn = hdn_loss(pred, gt, cfg, with_gradient=with_gradient)
    idx = joint_valid(pred, gt).ravel()
    with np.errstate(over="ignore"):
        diff = pred.values.ravel()[idx] - gt.values.ravel()[idx]
        l1 = float(np.mean(np.abs(diff)))
    if not np.isfinite(l1):
        raise InvalidMapError("pred values too large to normalize: the L1 "
                              "mean overflows")
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

def _relative_error(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| / max(|a|, |b|, 1e-6 x the largest |a| or |b|); 0 where both are 0."""
    size = np.maximum(np.abs(a), np.abs(b))
    return np.abs(a - b) / np.maximum(size, 1e-6 * size.max(initial=0.0) or 1.0)


def numerical_gradient(pred: DepthMap, gt: DepthMap, cfg: LossConfig) -> np.ndarray:
    """Central differences of hdn_loss at the pixels a gradient check
    compares, NaN elsewhere. Each pixel in a surviving context is bumped by
    +-GRAD_STEP x (the smallest power of two above every |pred| there),
    each side over the step it took: exact in pred's scale. A pixel whose
    step is 0 or whose forward and backward differences disagree (a kink
    within the step) is skipped. A non-finite quotient raises InvalidMapError."""
    used = _plan_for(cfg, gt, joint_valid(pred, gt)).used
    base = np.array(pred.values)
    flat, grad = base.reshape(-1), np.full(base.shape, np.nan)
    h = np.ldexp(GRAD_STEP, np.frexp(np.abs(flat[used]).max())[1])
    value = hdn_loss(pred, gt, cfg).value
    diffs, steps = np.empty((2, used.size)), np.empty((2, used.size))
    for k, i in enumerate(used.tolist()):
        x = flat[i]
        for side, bumped in enumerate((x + h, x - h)):
            flat[i], steps[side, k] = bumped, bumped - x
            diffs[side, k] = hdn_loss(DepthMap(base, pred.valid), gt, cfg).value - value
        flat[i] = x
    stepped = (steps != 0).all(axis=0)
    used, (up, down), (hu, hd) = used[stepped], diffs[:, stepped], steps[:, stepped]
    with np.errstate(over="ignore"):  # a subnormal step can overflow them
        fwd, bwd = up / hu, down / hd
    finite = np.isfinite(fwd) & np.isfinite(bwd)
    if not finite.all():
        r, c = divmod(int(used[np.argmin(finite)]), base.shape[1])
        raise InvalidMapError(f"non-finite loss difference quotient at pixel ({r}, {c})")
    agree = _relative_error(fwd, bwd) <= GRAD_TOLERANCE
    grad.flat[used[agree]] = ((up - down) / (hu - hd))[agree]
    return grad
