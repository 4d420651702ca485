"""Evaluation protocol: least-squares scale/shift alignment, AbsRel,
delta1 accuracy, and the prediction-vs-gt scatter sample.

`evaluate` is the one scorer. By default it first aligns the prediction
to ground truth by the closed-form least-squares (scale, shift). It
scores the joint-valid pixels with positive ground truth (the relative
error divides by gt). Negative aligned predictions are kept as-is and
count as delta1 failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .depth_core import DepthMap, joint_valid
from .errors import (DegenerateAlignmentError, EmptyInputError, InvalidMapError,
                     ParameterError)


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
    return _align(*_joint_values(pred, gt))


def _align(d: np.ndarray, dstar: np.ndarray) -> tuple[float, float]:
    """align_scale_shift on the joint-valid values d (pred), dstar (gt)."""
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
    with np.errstate(over="ignore", invalid="ignore"):
        sxy, sy = float(np.dot(d, dstar)), float(dstar.sum())
        s = float(np.ldexp((sxy * n - sx * sy) / det, -exp))
    t = (sxx * sy - sx * sxy) / det
    if not (math.isfinite(s) and math.isfinite(t)):
        raise InvalidMapError("pred and gt too far apart in scale to align: "
                              "the scale or shift overflows")
    return s, t


def evaluate(pred: DepthMap, gt: DepthMap, align: bool = True) -> EvalReport:
    """AbsRel (mean |d - d*| / d*) and delta1 (the fraction with
    max(d/d*, d*/d) < 1.25) over the joint-valid pixels with d* > 0,
    where d = s*pred + t with (s, t) from align_scale_shift, or
    d = pred without align."""
    d, dstar = _joint_values(pred, gt)
    s, t = _align(d, dstar) if align else (1.0, 0.0)
    keep = dstar > 0
    if not keep.any():
        raise EmptyInputError("no pixels with positive ground truth")
    dstar = dstar[keep]
    # a nonpositive d fails; the ratios it makes are masked out
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = s * d[keep] + t
        absrel = float(np.mean(np.abs(d - dstar) / dstar))
        within = (d > 0) & (np.maximum(d / dstar, dstar / d) < 1.25)
    # a non-finite d makes absrel non-finite; its percentage must be finite too
    if not math.isfinite(100 * absrel):
        raise InvalidMapError("AbsRel out of float range: the aligned prediction "
                              "is too large or not finite at a counted pixel")
    return EvalReport(
        absrel=absrel,
        delta1=float(np.mean(within)),
        scale=s, shift=t,
        pixels=int(d.size),
        excluded_nonpositive_gt=int(keep.size - d.size),
    )


def scatter_sample(pred: DepthMap, gt: DepthMap, n: int, seed: int) -> list:
    """n joint-valid (pred, gt) pairs sampled without replacement with a
    seeded generator; all pairs in index order when n >= M."""
    if n < 0 or seed < 0:
        raise ParameterError(f"n and seed must be >= 0, got {n} and {seed}")
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
