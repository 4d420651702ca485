"""Desk-scale experiments: direct gradient-descent fits of a synthetic
scene's depth map under different normalization losses, compared A/B.

Instead of training a network, the prediction map itself is optimized.
This isolates the loss-landscape property under study: global
normalization compresses fine depth structure in close regions, while
hierarchical contexts keep it supervised.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import metrics
from .contexts import LOSS_KINDS, LevelSpec
from .depth_core import DepthMap, SceneSpec, generate_scene
from .errors import DivergenceError, InvalidMapError, ParameterError
from .loss import hdn_loss, loss_config


@dataclass(frozen=True)
class FitConfig:
    loss_kind: str
    level_sizes: tuple = (1,)
    steps: int = 300
    step_size: float = 100.0
    seed: int = 7

    def __post_init__(self):
        if not isinstance(self.loss_kind, str) or self.loss_kind not in LOSS_KINDS:
            raise ParameterError(f"unknown loss kind {self.loss_kind!r}")
        if not all(isinstance(v, numbers.Integral) for v in (self.steps, self.seed)):
            raise ParameterError(f"steps and seed must be integers: {(self.steps, self.seed)}")
        if not isinstance(self.step_size, numbers.Real):
            raise ParameterError(f"step_size must be a number, got {self.step_size!r}")
        # an inf step size stays inf when halved: fit_depth reports it diverged
        if self.steps < 1 or not self.step_size > 0 or self.seed < 0:
            raise ParameterError("steps must be >= 1, step_size > 0 and seed >= 0")
        # LevelSpec's size rule, which every context kind shares
        object.__setattr__(self, "level_sizes",
                           LevelSpec("spatial", self.level_sizes).sizes)

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
    """The scene of the README's A/B experiment: SceneSpec's defaults."""
    return SceneSpec()


def _initial_prediction(gt: DepthMap, cfg: FitConfig) -> np.ndarray:
    vals = gt.values[gt.valid]
    sigma = 0.1 * max(float(vals.max()) - float(vals.min()), 1.0)
    rng = np.random.default_rng(cfg.seed)
    return gt.values + sigma * rng.standard_normal(gt.values.shape)


def fit_depth(spec: SceneSpec, cfg: FitConfig):
    """Fit a prediction map to generate_scene(spec) by fixed-step gradient
    descent, with the step halved whenever a step would increase the loss,
    leave a non-finite value at a valid pixel or give a pred the loss
    rejects. Contexts are built once from gt and never change. Returns the
    fitted map and a report with AbsRel on the map and on spec.foreground.
    Raises DivergenceError when no halving of the step gives a candidate
    the loss can evaluate."""
    gt = generate_scene(spec)
    loss_cfg = loss_config(gt, cfg.loss_kind, cfg.level_sizes)
    pred = DepthMap(_initial_prediction(gt, cfg), gt.valid)
    lr = cfg.step_size

    report = hdn_loss(pred, gt, loss_cfg, with_gradient=True)
    trajectory = [report.value]
    for step in range(cfg.steps):
        cand_report = None
        for _ in range(60):
            with np.errstate(over="ignore", invalid="ignore"):
                cand = pred.values - lr * report.gradient
            try:  # DepthMap rejects a non-finite value at a valid pixel,
                # the loss a pred it cannot differentiate
                cand_map = DepthMap(cand, gt.valid)
                cand_report = hdn_loss(cand_map, gt, loss_cfg, with_gradient=True)
            except InvalidMapError:
                lr /= 2
                continue
            if cand_report.value <= report.value:
                pred, report = cand_map, cand_report
                break
            lr /= 2
        else:  # no candidate was lower: stay put, unless none had a loss
            if cand_report is None:
                raise DivergenceError(step)
        trajectory.append(report.value)

    r0, r1, c0, c1 = spec.foreground
    fg_pred = DepthMap(pred.values[r0:r1, c0:c1], pred.valid[r0:r1, c0:c1])
    fg_gt = DepthMap(gt.values[r0:r1, c0:c1], gt.valid[r0:r1, c0:c1])
    return pred, FitReport(
        final_loss=trajectory[-1],
        global_absrel=metrics.evaluate(pred, gt).absrel,
        foreground_local_absrel=metrics.evaluate(fg_pred, fg_gt).absrel,
        loss_trajectory=trajectory,
    )


def _init_worker(parent: int) -> None:
    # a worker whose parent is gone has no one to report to: have Linux
    # kill it when the parent exits (prctl PR_SET_PDEATHSIG = 1), and
    # exit now if the parent exited before the call
    import ctypes
    import signal
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    prctl(1, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _fit_report(spec: SceneSpec, cfg: FitConfig) -> FitReport:
    """One compare job; the scene is made where the job runs."""
    return fit_depth(spec, cfg)[1]


def compare_losses(spec: SceneSpec, configs) -> list:
    """One result row per config plus signed-percent changes versus the
    first (baseline) row.

    The fits are independent, so they run in forked worker processes,
    one per CPU this process may run on and at most one per config. With
    one worker (one config, one CPU, or no fork) they run in this
    process. The rows are the same either way. The first fit to raise
    ends the others, and its error is raised here. A worker also ends
    when this process exits, even when it is killed."""
    if not configs:
        raise ParameterError("compare_losses needs at least one config")
    # every platform with os.sched_getaffinity can fork; the others fit
    # serially
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(configs), cpus)
    if workers > 1:  # imported here, so `import hdnorm.cli` skips them
        from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
        from multiprocessing import get_context
        # a job is its spec and config, a few hundred bytes, and each
        # worker makes the scene itself, so the jobs queued for them never
        # fill the pipe: a pipe left full when the workers are ended can
        # stall shutdown
        with ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                                 initializer=_init_worker,
                                 initargs=(os.getpid(),)) as pool:
            futures = [pool.submit(_fit_report, spec, cfg) for cfg in configs]
            done, _ = wait(futures, return_when=FIRST_EXCEPTION)
            errors = [f.exception() for f in futures if f in done and f.exception()]
            if errors:
                # end the running fits now (3.14: pool.terminate_workers())
                for proc in pool._processes.values():
                    proc.terminate()
                raise errors[0]
            reports = [f.result() for f in futures]
    else:
        reports = [_fit_report(spec, cfg) for cfg in configs]
    rows = [{
        "label": cfg.label,
        "final_loss": report.final_loss,
        "global_absrel": report.global_absrel,
        "foreground_local_absrel": report.foreground_local_absrel,
    } for cfg, report in zip(configs, reports)]
    base = rows[0]
    for row in rows:
        for key in ("global_absrel", "foreground_local_absrel"):
            ref = base[key]
            row[f"{key}_change_pct"] = (
                100.0 * (row[key] - ref) / ref if ref != 0 else 0.0)
    return rows


# a compare row's columns: (row key, table header, table format). The CSV
# writes every key as it is and prints numbers to 9 significant digits
_COLUMNS = (
    ("label", "config", ""),
    ("final_loss", "final_loss", ".6f"),
    ("global_absrel", "global_absrel", ".6f"),
    ("global_absrel_change_pct", "glob%", "+.1f"),
    ("foreground_local_absrel", "fg_absrel", ".6f"),
    ("foreground_local_absrel_change_pct", "fg%", "+.1f"),
)


def format_table(rows) -> str:
    """Aligned text table of compare_losses rows."""
    table = [[header for _, header, _ in _COLUMNS]] + [
        [format(row[key], spec) for key, _, spec in _COLUMNS] for row in rows]
    widths = [max(map(len, col)) for col in zip(*table)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
                     for r in table)


def rows_to_csv(rows) -> str:
    table = [[key for key, _, _ in _COLUMNS]] + [
        [row[key] if key == "label" else f"{row[key]:.9g}" for key, _, _ in _COLUMNS]
        for row in rows]
    return "".join(",".join(line) + "\n" for line in table)
