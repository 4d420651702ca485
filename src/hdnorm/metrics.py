"""Evaluation protocol: least-squares scale/shift alignment, AbsRel,
delta-threshold accuracy, and the prediction-vs-gt scatter sample.

Predictions are aligned to ground truth by the closed-form least-squares
(scale, shift) before metric computation. Pixels with nonpositive ground
truth are excluded (the relative error divides by gt); negative aligned
predictions are kept as-is and count as delta1 failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .depth_core import DepthMap, joint_valid
from .errors import DegenerateAlignmentError, EmptyInputError


@dataclass(frozen=True)
class EvalReport:
    absrel: float
    delta1: float
    scale: float
    shift: float
    pixels: int
    excluded_nonpositive_gt: int


def _joint_values(pred: DepthMap, gt: DepthMap):
    joint = joint_valid(pred, gt)
    return pred.values[joint], gt.values[joint]


def align_scale_shift(pred: DepthMap, gt: DepthMap) -> tuple[float, float]:
    """(s, t) minimizing sum (s*d + t - d*)^2 over joint-valid pixels;
    the 2x2 normal-equations solution."""
    d, dstar = _joint_values(pred, gt)
    if d.size < 2:
        raise DegenerateAlignmentError("need at least 2 jointly valid pixels")
    # A scale-invariant loss can grow a fitted pred toward the float
    # limit, where the sums below overflow. Scaling d by a power of two
    # is exact and leaves t unchanged, so d's largest magnitude is
    # brought into [0.5, 1) and s is scaled back at the end.
    _, exp = math.frexp(float(np.max(np.abs(d))))
    d = np.ldexp(d, -exp)
    n = float(d.size)
    sxx, sx = float(np.dot(d, d)), float(d.sum())
    det = sxx * n - sx * sx
    # det / (sxx * n) = variance / mean square of d, which is zero iff
    # pred is constant over the mask and does not depend on pred's scale
    if det <= 1e-12 * sxx * n:
        raise DegenerateAlignmentError("constant prediction over the joint mask")
    sxy, sy = float(np.dot(d, dstar)), float(dstar.sum())
    s = (sxy * n - sx * sy) / det
    t = (sxx * sy - sx * sxy) / det
    return math.ldexp(s, -exp), t


def absrel(pred_aligned: DepthMap, gt: DepthMap) -> float:
    """Mean |d - d*| / d* over joint-valid pixels with d* > 0."""
    d, dstar = _joint_values(pred_aligned, gt)
    keep = dstar > 0
    if not keep.any():
        raise EmptyInputError("no pixels with positive ground truth")
    return float(np.mean(np.abs(d[keep] - dstar[keep]) / dstar[keep]))


def delta1(pred_aligned: DepthMap, gt: DepthMap, threshold: float = 1.25) -> float:
    """Fraction of counted pixels with max(d/d*, d*/d) < threshold.
    Nonpositive aligned predictions count as failures."""
    d, dstar = _joint_values(pred_aligned, gt)
    keep = dstar > 0
    if not keep.any():
        raise EmptyInputError("no pixels with positive ground truth")
    d, dstar = d[keep], dstar[keep]
    ok = d > 0
    ratio = np.full(d.shape, np.inf)
    ratio[ok] = np.maximum(d[ok] / dstar[ok], dstar[ok] / d[ok])
    return float(np.mean(ratio < threshold))


def evaluate(pred: DepthMap, gt: DepthMap, align: bool = True) -> EvalReport:
    """Full protocol: optional alignment, then AbsRel and delta1."""
    if align:
        s, t = align_scale_shift(pred, gt)
        aligned = DepthMap(s * pred.values + t, pred.valid)
    else:
        s, t = 1.0, 0.0
        aligned = pred
    _, dstar = _joint_values(pred, gt)
    counted = int((dstar > 0).sum())
    return EvalReport(
        absrel=absrel(aligned, gt),
        delta1=delta1(aligned, gt),
        scale=s, shift=t,
        pixels=counted,
        excluded_nonpositive_gt=int(dstar.size - counted),
    )


def scatter_sample(pred: DepthMap, gt: DepthMap, n: int, seed: int) -> list:
    """n joint-valid (pred, gt) pairs sampled without replacement with a
    seeded generator; all pairs in index order when n >= M."""
    idx = np.flatnonzero(joint_valid(pred, gt).ravel())
    if n < idx.size:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(idx, size=n, replace=False))
    pf, gf = pred.values.ravel(), gt.values.ravel()
    return [(float(pf[i]), float(gf[i])) for i in idx]


def scatter_csv(pairs) -> str:
    """CSV with header "pred,gt" and 9 significant digits per value."""
    lines = ["pred,gt"]
    for p, g in pairs:
        lines.append(f"{p:.9g},{g:.9g}")
    return "\n".join(lines) + "\n"
