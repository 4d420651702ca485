"""Desk-scale experiments: synthetic scenes and direct gradient-descent
fitting of a depth map under different normalization losses.

Instead of training a network, the prediction map itself is optimized.
This isolates the loss-landscape property under study: global
normalization compresses fine depth structure in close regions, while
hierarchical contexts keep it supervised.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .contexts import LevelSpec, build_hierarchy
from .depth_core import DepthMap
from .errors import DivergenceError, ParameterError
from .loss import LossConfig, hdn_loss
from .metrics import absrel, align_scale_shift
from .normalization import DEFAULT_EPS

# loss kind -> context kind of its levels; ssi is the single global level
_CONTEXT_KINDS = {
    "ssi": "spatial",
    "hdn_s": "spatial",
    "hdn_dp": "depth_percentile",
    "hdn_dr": "depth_range",
}
LOSS_KINDS = tuple(_CONTEXT_KINDS)
INIT_KINDS = ("constant", "noisy_gt", "random")


@dataclass(frozen=True)
class SceneSpec:
    """A flat background with a closer rectangular foreground carrying a
    sinusoidal ridge pattern along the column axis."""

    height: int
    width: int
    background_depth: float
    fg_top: int
    fg_bottom: int  # exclusive
    fg_left: int
    fg_right: int  # exclusive
    base_depth: float
    ridge_amplitude: float
    ridge_period: float
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ParameterError("scene dimensions must be positive")
        if not (0 <= self.fg_top < self.fg_bottom <= self.height
                and 0 <= self.fg_left < self.fg_right <= self.width):
            raise ParameterError("foreground rectangle must lie within the image")
        if self.base_depth <= 0 or self.background_depth <= 0:
            raise ParameterError("depths must be positive")
        if self.ridge_amplitude < 0 or self.ridge_period <= 0 or self.noise_sigma < 0:
            raise ParameterError("bad ridge/noise parameters")
        if self.base_depth + self.ridge_amplitude >= self.background_depth:
            raise ParameterError("foreground must be strictly closer than background")

    @property
    def foreground(self) -> tuple:
        return (self.fg_top, self.fg_bottom, self.fg_left, self.fg_right)


@dataclass(frozen=True)
class FitConfig:
    loss_kind: str
    level_sizes: tuple = (1,)
    steps: int = 300
    step_size: float = 100.0
    init: str = "noisy_gt"
    seed: int = 7
    eps: float = DEFAULT_EPS
    min_context: int = 2

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ParameterError(f"unknown loss kind {self.loss_kind!r}")
        if self.init not in INIT_KINDS:
            raise ParameterError(f"unknown init {self.init!r}")
        if self.steps < 1 or self.step_size <= 0:
            raise ParameterError("steps must be >= 1 and step_size > 0")
        object.__setattr__(self, "level_sizes", tuple(int(s) for s in self.level_sizes))

    @property
    def label(self) -> str:
        levels = ",".join(str(s) for s in self.level_sizes)
        return f"{self.loss_kind}[{levels}]"


@dataclass(frozen=True)
class FitReport:
    final_loss: float
    global_absrel: float
    foreground_local_absrel: float
    loss_trajectory: list


def standard_fixture() -> SceneSpec:
    """64x64 scene with a ~10:1 background/foreground depth ratio, so
    global normalization compresses the +/-0.2 foreground ridges."""
    return SceneSpec(
        height=64, width=64, background_depth=10.0,
        fg_top=16, fg_bottom=48, fg_left=16, fg_right=48,
        base_depth=1.0, ridge_amplitude=0.2, ridge_period=8.0,
        noise_sigma=0.0, seed=7,
    )


def generate_scene(spec: SceneSpec) -> DepthMap:
    """Deterministic ground-truth scene for the given spec."""
    values = np.full((spec.height, spec.width), spec.background_depth)
    cols = np.arange(spec.fg_left, spec.fg_right)
    ridge = spec.base_depth + spec.ridge_amplitude * np.sin(
        2 * np.pi * cols / spec.ridge_period)
    values[spec.fg_top:spec.fg_bottom, spec.fg_left:spec.fg_right] = ridge
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        values = values + spec.noise_sigma * rng.standard_normal(values.shape)
    return DepthMap(values)


def loss_config(gt: DepthMap, loss_kind: str, level_sizes: tuple,
                eps: float, min_context: int) -> LossConfig:
    """The LossConfig of a loss kind over gt; ssi ignores level_sizes."""
    sizes = (1,) if loss_kind == "ssi" else level_sizes
    spec = LevelSpec(_CONTEXT_KINDS[loss_kind], sizes)
    return LossConfig(hierarchy=build_hierarchy(gt, spec),
                      eps=eps, min_context=min_context)


def _initial_prediction(gt: DepthMap, cfg: FitConfig) -> np.ndarray:
    vals = gt.values[gt.valid]
    lo, hi = float(vals.min()), float(vals.max())
    rng = np.random.default_rng(cfg.seed)
    if cfg.init == "constant":
        return np.full(gt.values.shape, float(vals.mean()))
    if cfg.init == "noisy_gt":
        sigma = 0.1 * max(hi - lo, 1.0)
        return gt.values + sigma * rng.standard_normal(gt.values.shape)
    return rng.uniform(lo, hi, size=gt.values.shape)


def fit_depth(gt: DepthMap, cfg: FitConfig, foreground=None):
    """Fixed-step gradient descent on the prediction map, with the step
    halved whenever a step would increase the loss or leave a non-finite
    value at a valid pixel. Contexts are built once from gt and never
    change. Raises DivergenceError when the loss is non-finite or no
    halving of the step gives a finite candidate."""
    loss_cfg = loss_config(gt, cfg.loss_kind, cfg.level_sizes, cfg.eps,
                           cfg.min_context)
    pred_vals = _initial_prediction(gt, cfg)
    lr = cfg.step_size

    report = hdn_loss(DepthMap(pred_vals, gt.valid), gt, loss_cfg, with_gradient=True)
    trajectory = [report.value]
    grad = report.gradient
    for step in range(cfg.steps):
        current = trajectory[-1]
        if not np.isfinite(current):
            raise DivergenceError(step)
        moved = finite = False
        for _ in range(60):
            with np.errstate(over="ignore", invalid="ignore"):
                cand = pred_vals - lr * grad
            if np.isfinite(cand[gt.valid]).all():
                finite = True
                cand_report = hdn_loss(DepthMap(cand, gt.valid), gt, loss_cfg,
                                       with_gradient=True)
                if cand_report.value <= current:
                    pred_vals = cand
                    grad = cand_report.gradient
                    trajectory.append(cand_report.value)
                    moved = True
                    break
            lr /= 2
        if not finite:
            raise DivergenceError(step)
        if not moved:
            trajectory.append(current)  # converged; stay put

    fitted = DepthMap(pred_vals, gt.valid)
    global_ar = _aligned_absrel(fitted, gt)
    if foreground is None:
        fg_ar = global_ar
    else:
        r0, r1, c0, c1 = foreground
        fg_pred = DepthMap(fitted.values[r0:r1, c0:c1], fitted.valid[r0:r1, c0:c1])
        fg_gt = DepthMap(gt.values[r0:r1, c0:c1], gt.valid[r0:r1, c0:c1])
        fg_ar = _aligned_absrel(fg_pred, fg_gt)
    return fitted, FitReport(
        final_loss=trajectory[-1],
        global_absrel=global_ar,
        foreground_local_absrel=fg_ar,
        loss_trajectory=trajectory,
    )


def _aligned_absrel(pred: DepthMap, gt: DepthMap) -> float:
    s, t = align_scale_shift(pred, gt)
    return absrel(DepthMap(s * pred.values + t, pred.valid), gt)


def compare_losses(spec: SceneSpec, configs) -> list:
    """One result row per config plus signed-percent changes versus the
    first (baseline) row."""
    if not configs:
        raise ParameterError("compare_losses needs at least one config")
    gt = generate_scene(spec)
    rows = []
    for cfg in configs:
        _, report = fit_depth(gt, cfg, foreground=spec.foreground)
        rows.append({
            "label": cfg.label,
            "final_loss": report.final_loss,
            "global_absrel": report.global_absrel,
            "foreground_local_absrel": report.foreground_local_absrel,
        })
    base = rows[0]
    for row in rows:
        for key in ("global_absrel", "foreground_local_absrel"):
            ref = base[key]
            row[f"{key}_change_pct"] = (
                100.0 * (row[key] - ref) / ref if ref != 0 else 0.0)
    return rows


def format_table(rows) -> str:
    """Aligned text table of compare_losses rows."""
    headers = ["config", "final_loss", "global_absrel", "glob%",
               "fg_absrel", "fg%"]
    table = [headers]
    for row in rows:
        table.append([
            row["label"],
            f"{row['final_loss']:.6f}",
            f"{row['global_absrel']:.6f}",
            f"{row['global_absrel_change_pct']:+.1f}",
            f"{row['foreground_local_absrel']:.6f}",
            f"{row['foreground_local_absrel_change_pct']:+.1f}",
        ])
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
             for r in table]
    return "\n".join(lines)


def rows_to_csv(rows) -> str:
    cols = ["label", "final_loss", "global_absrel", "global_absrel_change_pct",
            "foreground_local_absrel", "foreground_local_absrel_change_pct"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(
            row[c] if c == "label" else f"{row[c]:.9g}" for c in cols))
    return "\n".join(lines) + "\n"
