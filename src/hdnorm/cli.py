"""Command-line interface.

Subcommands: loss, grad-check, partition, eval, scatter, synth, fit,
compare. All output on stdout is machine-parseable (key: value lines or
CSV); diagnostics go to stderr. Exit codes: 0 success, 1 check failure,
2 usage or input error. Output files are written atomically (temp file
plus rename) so failed commands never leave partial outputs behind.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

from . import depth_core, harness, loss as loss_mod, metrics
from .contexts import KINDS, LevelSpec, build_hierarchy, partition_dump
from .depth_core import DepthMap
from .errors import HdnormError
from .harness import FitConfig, SceneSpec


def _load_map(path: str, mask_path=None) -> DepthMap:
    if path.endswith(".csv"):
        m = depth_core.read_csv_map(path)
    else:
        m = depth_core.read_pfm(path)
    if mask_path:
        mask = depth_core.read_mask(mask_path)
        if mask.shape != m.values.shape:
            raise HdnormError(
                f"mask {mask.shape} does not match map {m.values.shape}")
        m = DepthMap(m.values, m.valid & mask)
    return m


def _write_atomic(path: str, writer) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_levels(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise HdnormError(f"bad levels list {text!r}; expected e.g. 1,2,4")


def cmd_loss(args) -> int:
    pred = _load_map(args.pred, args.pred_mask)
    gt = _load_map(args.gt, args.gt_mask)
    cfg = harness.loss_config(gt, args.kind, _parse_levels(args.levels),
                              args.eps, args.min_context)
    if args.lam is not None:
        report = loss_mod.l1_plus_hdn(pred, gt, cfg, args.lam)
    elif args.kind == "ssi":
        report = loss_mod.ssi_loss(pred, gt, eps=args.eps)
    else:
        report = loss_mod.hdn_loss(pred, gt, cfg)
    print(f"value: {report.value:.12g}")
    print(f"used_pixels: {report.used_pixels}")
    for tag, mean in report.per_level:
        print(f"level {tag}: {mean:.12g}")
    return 0


def cmd_grad_check(args) -> int:
    pred = _load_map(args.pred, args.pred_mask)
    gt = _load_map(args.gt, args.gt_mask)
    if args.step <= 0:
        raise HdnormError(f"step must be > 0, got {args.step}")
    cfg = harness.loss_config(gt, args.kind, _parse_levels(args.levels),
                              args.eps, args.min_context)
    analytic = loss_mod.hdn_gradient(pred, gt, cfg)
    numeric = loss_mod.numerical_gradient(pred, gt, cfg, step=args.step)
    tied = loss_mod.tie_mask(pred, gt, cfg)
    keep = (pred.valid & gt.valid) & ~tied
    print(f"gradient_norm: {float(np.abs(analytic).sum()):.12g}")
    if not keep.any():
        print("checked_pixels: 0")
        print("max_rel_error: nan")
        print("result: fail")
        return 1
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    err = float((np.abs(analytic - numeric) / denom)[keep].max())
    ok = err < args.tolerance
    print(f"checked_pixels: {int(keep.sum())}")
    print(f"max_rel_error: {err:.6g}")
    print(f"result: {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def cmd_partition(args) -> int:
    gt = _load_map(args.gt, args.gt_mask)
    part = build_hierarchy(gt, LevelSpec(args.kind, (args.s,))).levels[0]
    print(partition_dump(part))
    return 0


def cmd_eval(args) -> int:
    pred = _load_map(args.pred, args.pred_mask)
    gt = _load_map(args.gt, args.gt_mask)
    report = metrics.evaluate(pred, gt, align=args.align)
    print(f"absrel_percent: {100 * report.absrel:.1f}")
    print(f"delta1_percent: {100 * report.delta1:.1f}")
    print(f"scale: {report.scale:.9g}")
    print(f"shift: {report.shift:.9g}")
    print(f"pixels: {report.pixels}")
    print(f"excluded_nonpositive_gt: {report.excluded_nonpositive_gt}")
    return 0


def cmd_scatter(args) -> int:
    pred = _load_map(args.pred, args.pred_mask)
    gt = _load_map(args.gt, args.gt_mask)
    pairs = metrics.scatter_sample(pred, gt, args.n, args.seed)
    text = metrics.scatter_csv(pairs)
    if args.out:
        _write_atomic(args.out, lambda p: open(p, "w").write(text))
    else:
        sys.stdout.write(text)
    return 0


def _scene_from_args(args) -> SceneSpec:
    fields = {f: getattr(args, f) for f in (
        "height", "width", "background_depth", "fg_top", "fg_bottom",
        "fg_left", "fg_right", "base_depth", "ridge_amplitude",
        "ridge_period", "noise_sigma", "seed")}
    if args.config:
        fields.update(_read_config(args.config, fields))
    return SceneSpec(**fields)


def _read_config(path: str, known: dict) -> dict:
    """One `key = value` option per line; '#' starts a comment."""
    out = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise HdnormError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise HdnormError(f"{path}:{lineno}: unknown option {key!r}")
            template = known[key]
            if isinstance(template, bool):
                out[key] = value.lower() in ("1", "true", "yes")
            elif isinstance(template, int):
                out[key] = int(value)
            elif isinstance(template, float):
                out[key] = float(value)
            else:
                out[key] = value
    return out


def _add_scene_flags(p) -> None:
    std = harness.standard_fixture()
    p.add_argument("--config", help="key = value file overriding scene flags")
    for f in ("height", "width", "fg_top", "fg_bottom", "fg_left", "fg_right",
              "seed"):
        p.add_argument(f"--{f.replace('_', '-')}", dest=f, type=int,
                       default=getattr(std, f))
    for f in ("background_depth", "base_depth", "ridge_amplitude",
              "ridge_period", "noise_sigma"):
        p.add_argument(f"--{f.replace('_', '-')}", dest=f, type=float,
                       default=getattr(std, f))


def cmd_synth(args) -> int:
    scene = harness.generate_scene(_scene_from_args(args))
    _write_atomic(args.out, lambda p: depth_core.write_pfm(scene, p))
    print(f"wrote: {args.out}")
    print(f"shape: {scene.height}x{scene.width}")
    return 0


def _fit_config_from_args(args) -> FitConfig:
    return FitConfig(loss_kind=args.loss_kind,
                     level_sizes=_parse_levels(args.levels),
                     steps=args.steps, step_size=args.step_size,
                     init=args.init, seed=args.fit_seed,
                     eps=args.eps, min_context=args.min_context)


def cmd_fit(args) -> int:
    spec = _scene_from_args(args)
    gt = harness.generate_scene(spec)
    fitted, report = harness.fit_depth(gt, _fit_config_from_args(args),
                                       foreground=spec.foreground)
    if args.out:
        _write_atomic(args.out, lambda p: depth_core.write_pfm(fitted, p))
    print(f"final_loss: {report.final_loss:.12g}")
    print(f"global_absrel: {report.global_absrel:.9g}")
    print(f"foreground_local_absrel: {report.foreground_local_absrel:.9g}")
    print(f"trajectory_steps: {len(report.loss_trajectory) - 1}")
    return 0


def cmd_compare(args) -> int:
    spec = _scene_from_args(args)
    configs = []
    for item in args.loss:
        kind, _, levels = item.partition(":")
        configs.append(FitConfig(
            loss_kind=kind, level_sizes=_parse_levels(levels or "1"),
            steps=args.steps, step_size=args.step_size, init=args.init,
            seed=args.fit_seed, eps=args.eps, min_context=args.min_context))
    rows = harness.compare_losses(spec, configs)
    if args.csv:
        _write_atomic(args.csv, lambda p: open(p, "w").write(
            harness.rows_to_csv(rows)))
    print(harness.format_table(rows))
    return 0


def _add_loss_flags(p, with_lambda=False) -> None:
    p.add_argument("--kind", choices=harness.LOSS_KINDS, default="ssi")
    p.add_argument("--levels", default="1,2,4")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--min-context", dest="min_context", type=int, default=2)
    if with_lambda:
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="if set, compute L1 + lambda * HDN")


def _add_pair_flags(p) -> None:
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--pred-mask", default=None)
    p.add_argument("--gt-mask", default=None)


def _add_fit_flags(p) -> None:
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--step-size", dest="step_size", type=float, default=100.0)
    p.add_argument("--init", choices=harness.INIT_KINDS, default="noisy_gt")
    p.add_argument("--fit-seed", dest="fit_seed", type=int, default=7)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--min-context", dest="min_context", type=int, default=2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdnorm",
        description="Hierarchical depth normalization losses, metrics, and "
                    "desk-scale experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("loss", help="evaluate a loss on a pred/gt pair")
    _add_pair_flags(p)
    _add_loss_flags(p, with_lambda=True)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("grad-check", help="finite-difference gradient check")
    _add_pair_flags(p)
    _add_loss_flags(p)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("partition", help="dump one partition level")
    p.add_argument("gt")
    p.add_argument("--gt-mask", default=None)
    p.add_argument("--kind", choices=KINDS, default="spatial")
    p.add_argument("--s", type=int, default=1)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("eval", help="AbsRel / delta1 evaluation")
    _add_pair_flags(p)
    p.add_argument("--align", action=argparse.BooleanOptionalAction,
                   default=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("scatter", help="sample pred/gt pairs as CSV")
    _add_pair_flags(p)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("synth", help="generate a synthetic scene PFM")
    _add_scene_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="direct gradient-descent fit of a scene")
    _add_scene_flags(p)
    p.add_argument("--loss-kind", dest="loss_kind",
                   choices=harness.LOSS_KINDS, default="hdn_dr")
    p.add_argument("--levels", default="1,2,4")
    _add_fit_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("compare", help="A/B fits under several losses")
    _add_scene_flags(p)
    p.add_argument("--loss", action="append", required=True,
                   help="loss spec kind[:levels], repeatable; first is baseline")
    _add_fit_flags(p)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (HdnormError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
