"""Command-line interface.

Subcommands: loss, grad-check, partition, eval, scatter, synth, fit,
compare. All output on stdout is machine-parseable (key: value lines or
CSV); diagnostics go to stderr. Exit codes: 0 success, 1 check failure,
2 usage or input error. Output files are written atomically (temp file
plus rename) so failed commands never leave partial outputs behind. A
command imports the modules it computes with only when it builds its
flags or runs, so each process loads no more than its command uses.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import sys
from pathlib import Path

import numpy as np

from . import depth_core
from .depth_core import DepthMap
from .errors import FormatError, HdnormError, ParameterError, ShapeMismatchError


def _read(reader, path: str):
    # a header may promise more bytes than memory holds, and the read then
    # raises a MemoryError with no message
    try:
        return reader(path)
    except MemoryError:
        raise MemoryError(f"{path}: out of memory") from None


def _load_map(path: str, mask_path=None) -> DepthMap:
    csv = path.endswith(".csv")
    m = _read(depth_core.read_csv_map if csv else depth_core.read_pfm, path)
    if mask_path:
        mask = _read(depth_core.read_mask, mask_path)
        if mask.shape != m.values.shape:
            raise ShapeMismatchError(
                f"mask {mask.shape} does not match map {m.values.shape}")
        m = DepthMap(m.values, m.valid & mask)
    return m


def _write_atomic(path: str, writer) -> None:
    """Run writer on a new file beside path, then rename it to path. The
    file is made as open(path, "w") makes one, so the output gets the
    same mode (0o666 less the umask); an OS error names path."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f"tmp{os.urandom(6).hex()}.tmp")
    try:
        # O_EXCL: never write through a file or link that is already there
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        try:
            writer(tmp)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def _parse_levels(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ParameterError(f"bad levels list {text!r}; expected e.g. 1,2,4")


def cmd_loss(args) -> int:
    pred = _load_map(args.pred, args.pred_mask)
    gt = _load_map(args.gt, args.gt_mask)
    from . import loss
    cfg = loss.loss_config(gt, args.kind, _parse_levels(args.levels))
    if args.lam is not None:
        report = loss.l1_plus_hdn(pred, gt, cfg, args.lam)
    else:
        report = loss.hdn_loss(pred, gt, cfg)
    print(f"value: {report.value:.12g}")
    print(f"used_pixels: {report.used_pixels}")
    for tag, mean in report.per_level:
        print(f"level {tag}: {mean:.12g}")
    return 0


def cmd_grad_check(args) -> int:
    pred = _load_map(args.pred, args.pred_mask)
    gt = _load_map(args.gt, args.gt_mask)
    from . import loss
    cfg = loss.loss_config(gt, args.kind, _parse_levels(args.levels))
    report = loss.hdn_loss(pred, gt, cfg, with_gradient=True)
    numeric = loss.numerical_gradient(pred, gt, cfg)
    checked = ~np.isnan(numeric)  # numerical_gradient decides what is checked
    print(f"gradient_norm: {float(np.abs(report.gradient).sum()):.12g}")
    print(f"used_pixels: {report.used_pixels}")
    rel = loss._relative_error(report.gradient[checked], numeric[checked])
    err = float(rel.max()) if rel.size else np.nan  # nan fails the check
    ok = err < loss.GRAD_TOLERANCE
    print(f"checked_pixels: {rel.size}")
    print(f"max_rel_error: {err:.6g}")
    print(f"result: {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def cmd_partition(args) -> int:
    gt = _load_map(args.gt, args.gt_mask)
    from . import contexts
    part = contexts.build_hierarchy(
        gt, contexts.LevelSpec(args.kind, (args.s,))).levels[0]
    print(contexts.partition_dump(part))
    return 0


def cmd_eval(args) -> int:
    pred = _load_map(args.pred, args.pred_mask)
    gt = _load_map(args.gt, args.gt_mask)
    from . import metrics
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
    from . import metrics
    pairs = metrics.scatter_sample(pred, gt, args.n, args.seed)
    text = metrics.scatter_csv(pairs)
    if args.out:
        _write_atomic(args.out, lambda p: Path(p).write_text(text))
    else:
        sys.stdout.write(text)
    return 0


def _scene_defaults() -> dict:
    """SceneSpec's fields, each an option whose default is the standard
    fixture's value and whose type is that value's type."""
    return dataclasses.asdict(depth_core.SceneSpec())


def _scene_from_args(args):
    fields = {f: getattr(args, f) for f in _scene_defaults()}
    if args.config:
        fields.update(_read_config(args.config))
    return depth_core.SceneSpec(**fields)


def _read_config(path: str) -> dict:
    """One `key = value` option per line of UTF-8 text; '#' starts a comment."""
    out, defaults = {}, _scene_defaults()
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError:
            raise FormatError(f"{path}: not UTF-8 text") from None
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in defaults:
            raise ParameterError(f"{path}:{lineno}: unknown option {key!r}")
        kind = type(defaults[key])
        try:
            out[key] = kind(value)
        except ValueError:
            raise ParameterError(f"{path}:{lineno}: bad value {value!r} "
                                 f"for {key}; expected {kind.__name__}") from None
    return out


def _add_scene_flags(p) -> None:
    p.add_argument("--config", help="key = value file overriding scene flags")
    for f, default in _scene_defaults().items():
        p.add_argument(f"--{f.replace('_', '-')}", dest=f, type=type(default),
                       default=default)


def cmd_synth(args) -> int:
    scene = depth_core.generate_scene(_scene_from_args(args))
    _write_atomic(args.out, lambda p: depth_core.write_pfm(scene, p))
    print(f"wrote: {args.out}")
    print(f"shape: {scene.height}x{scene.width}")
    return 0


def _fit_config(args, loss_kind: str, levels: str):
    from . import harness
    return harness.FitConfig(loss_kind=loss_kind, level_sizes=_parse_levels(levels),
                             steps=args.steps, step_size=args.step_size,
                             seed=args.fit_seed)


def cmd_fit(args) -> int:
    from . import harness
    fitted, report = harness.fit_depth(
        _scene_from_args(args), _fit_config(args, args.loss_kind, args.levels))
    if args.out:
        _write_atomic(args.out, lambda p: depth_core.write_pfm(fitted, p))
    print(f"final_loss: {report.final_loss:.12g}")
    print(f"global_absrel: {report.global_absrel:.9g}")
    print(f"foreground_local_absrel: {report.foreground_local_absrel:.9g}")
    print(f"trajectory_steps: {len(report.loss_trajectory) - 1}")
    return 0


def cmd_compare(args) -> int:
    from . import harness
    spec = _scene_from_args(args)
    configs = []
    for item in args.loss:
        kind, _, levels = item.partition(":")
        configs.append(_fit_config(args, kind, levels or "1"))
    rows = harness.compare_losses(spec, configs)
    if args.csv:
        _write_atomic(args.csv, lambda p: Path(p).write_text(
            harness.rows_to_csv(rows)))
    print(harness.format_table(rows))
    return 0


def _add_loss_flags(p) -> None:
    """A pred/gt pair's flags and the loss's kind and levels."""
    from .contexts import LOSS_KINDS
    _add_pair_flags(p)
    p.add_argument("--kind", choices=LOSS_KINDS, default="ssi")
    p.add_argument("--levels", default="1,2,4")


def _add_pair_flags(p) -> None:
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--pred-mask", default=None)
    p.add_argument("--gt-mask", default=None)


def _add_fit_flags(p) -> None:
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--step-size", dest="step_size", type=float, default=100.0)
    p.add_argument("--fit-seed", dest="fit_seed", type=int, default=7)


# each command's (help line, handler), in the order `hdnorm --help` lists them
_COMMANDS = {
    "loss": ("evaluate a loss on a pred/gt pair", cmd_loss),
    "grad-check": ("finite-difference gradient check", cmd_grad_check),
    "partition": ("dump one partition level", cmd_partition),
    "eval": ("AbsRel / delta1 evaluation", cmd_eval),
    "scatter": ("sample pred/gt pairs as CSV", cmd_scatter),
    "synth": ("generate a synthetic scene PFM", cmd_synth),
    "fit": ("direct gradient-descent fit of a scene", cmd_fit),
    "compare": ("A/B fits under several losses", cmd_compare),
}


def build_parser(command) -> argparse.ArgumentParser:
    """Every command with its help line, and the flags of `command` alone:
    the others' flags would load modules that this process does not run."""
    parser = argparse.ArgumentParser(
        prog="hdnorm",
        description="Hierarchical depth normalization losses, metrics, and "
                    "desk-scale experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, help=text)
         for name, (text, _) in _COMMANDS.items()}.get(command)

    if command == "loss":
        _add_loss_flags(p)
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="if set, compute L1 + lambda * HDN")
    elif command == "grad-check":
        _add_loss_flags(p)
    elif command == "partition":
        from .contexts import KINDS
        p.add_argument("gt")
        p.add_argument("--gt-mask", default=None)
        p.add_argument("--kind", choices=KINDS, default="spatial")
        p.add_argument("--s", type=int, default=1)
    elif command == "eval":
        _add_pair_flags(p)
        p.add_argument("--align", action=argparse.BooleanOptionalAction,
                       default=True)
    elif command == "scatter":
        _add_pair_flags(p)
        p.add_argument("--n", type=int, default=2000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
    elif command == "synth":
        _add_scene_flags(p)
        p.add_argument("--out", required=True)
    elif command == "fit":
        from .contexts import LOSS_KINDS
        _add_scene_flags(p)
        p.add_argument("--loss-kind", dest="loss_kind",
                       choices=LOSS_KINDS, default="hdn_dr")
        p.add_argument("--levels", default="1,2,4")
        _add_fit_flags(p)
        p.add_argument("--out", default=None)
    elif command == "compare":
        _add_scene_flags(p)
        p.add_argument("--loss", action="append", required=True,
                       help="loss spec kind[:levels], repeatable; first is baseline")
        _add_fit_flags(p)
        p.add_argument("--csv", default=None)
    return parser


def main(argv=None) -> int:
    # the ~21k objects made so far, most by importing numpy, live until
    # exit; frozen, the collections at exit skip them. On a 2-vCPU Xeon
    # that cut exit from 39 to 10 ms per process (median of 9). Once a
    # process has frozen them, a later call freezes nothing more
    if not gc.get_freeze_count():
        gc.freeze()
    argv = sys.argv[1:] if argv is None else argv
    # the command is the first argument that is not an option, as argparse
    # finds it: the top-level parser takes no option with a value
    parser = build_parser(next((a for a in argv if not a.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command][1](args)
    except (HdnormError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
