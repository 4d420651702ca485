import ast
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hdnorm
from hdnorm import (DepthMap, cli, evaluate, hdn_loss, loss_config, read_pfm,
                    write_mask, write_pfm)
from hdnorm import loss as loss_mod
from hdnorm.cli import main
from hdnorm.errors import FormatError, ParameterError, ShapeMismatchError

from conftest import near_median_pair


@pytest.fixture
def fixture_files(tmp_path):
    gt = DepthMap(np.array([[1.0, 2.0], [4.0, 3.0]]))
    pred = DepthMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    gp, pp = tmp_path / "gt.pfm", tmp_path / "pred.pfm"
    write_pfm(gt, gp)
    write_pfm(pred, pp)
    return str(pp), str(gp), tmp_path


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_loss_ssi_identical_maps(capsys, fixture_files):
    _, gp, _ = fixture_files
    rc, out, _ = run(capsys, "loss", gp, gp, "--kind", "ssi")
    assert rc == 0
    assert out.splitlines()[0] == "value: 0"


def test_loss_hdn_s_levels1_equals_ssi(capsys, fixture_files):
    pp, gp, _ = fixture_files
    rc1, out1, _ = run(capsys, "loss", pp, gp, "--kind", "ssi")
    rc2, out2, _ = run(capsys, "loss", pp, gp, "--kind", "hdn_s", "--levels", "1")
    assert rc1 == rc2 == 0
    assert out1.splitlines()[0] == out2.splitlines()[0]


def test_loss_with_lambda(capsys, fixture_files):
    pp, gp, _ = fixture_files
    rc, out, _ = run(capsys, "loss", pp, gp, "--kind", "hdn_dr",
                     "--levels", "1,2", "--lambda", "1.0")
    assert rc == 0
    assert out.startswith("value: ")
    assert "level l1:" in out


def test_loss_missing_file_exit2(capsys, tmp_path):
    rc, _, err = run(capsys, "loss", str(tmp_path / "no.pfm"),
                     str(tmp_path / "no.pfm"))
    assert rc == 2
    assert "error:" in err


def test_loss_shape_mismatch_exit2(capsys, fixture_files, tmp_path):
    pp, _, _ = fixture_files
    other = tmp_path / "other.pfm"
    write_pfm(DepthMap(np.ones((1, 3))), other)
    rc, _, err = run(capsys, "loss", pp, str(other))
    assert rc == 2


def test_loss_ssi_constant_gt_exit2(capsys, fixture_files, tmp_path):
    # ssi filters a degenerate gt context like every other loss kind
    pp, _, _ = fixture_files
    const = tmp_path / "const.pfm"
    write_pfm(DepthMap(np.full((2, 2), 3.0)), const)
    rc, out, err = run(capsys, "loss", pp, str(const), "--kind", "ssi")
    assert rc == 2
    assert out == ""
    assert "all contexts filtered out" in err


@pytest.mark.parametrize("fmt,blob", [
    ("PFM", b"Pf\n100000 100000\n-1.0\n\0"),
    ("PGM", b"P5\n200000 200000\n255\n\0"),
])
def test_loss_oversized_dimensions_exit2(capsys, fixture_files, tmp_path, fmt, blob):
    # the declared payload is far larger than the file: a FormatError,
    # raised before the payload is read
    pp, gp, _ = fixture_files
    bad = tmp_path / "huge"
    bad.write_bytes(blob)
    argv = [pp, gp, "--gt-mask", str(bad)] if fmt == "PGM" else [str(bad), gp]
    rc, out, err = run(capsys, "loss", *argv)
    assert rc == 2
    assert out == ""
    assert f"truncated {fmt} payload" in err


@pytest.mark.parametrize("option,value", [("--step", "1e-5"),
                                          ("--tolerance", "1e-4")])
def test_grad_check_has_no_step_or_tolerance_option(capsys, fixture_files,
                                                    monkeypatch, option, value):
    # the step and the threshold are fixed (loss.GRAD_STEP and
    # loss.GRAD_TOLERANCE): argparse rejects either option, even at its old
    # default, before any loss is evaluated
    monkeypatch.setattr(loss_mod, "hdn_loss", None)
    pp, gp, _ = fixture_files
    rc, out, err = run(capsys, "grad-check", pp, gp, option, value)
    assert (rc, out) == (2, "")
    assert f"unrecognized arguments: {option} {value}" in err


def test_grad_check_random_fixture_passes(capsys, tmp_path):
    rng = np.random.default_rng(5)
    jitter = lambda: rng.uniform(-0.05, 0.05, (5, 5))
    pred = DepthMap(rng.permutation(np.linspace(1, 10, 25)).reshape(5, 5) + jitter())
    gt = DepthMap(rng.permutation(np.linspace(1, 10, 25)).reshape(5, 5) + jitter())
    write_pfm(gt, tmp_path / "g.pfm")
    write_pfm(pred, tmp_path / "p.pfm")
    rc, out, _ = run(capsys, "grad-check", str(tmp_path / "p.pfm"),
                     str(tmp_path / "g.pfm"), "--kind", "hdn_dr",
                     "--levels", "1,2")
    assert rc == 0
    assert "result: pass" in out


def test_grad_check_near_median_pair_passes(capsys, tmp_path):
    # a pixel 5e-4 above the median: every pixel is checked at the fixed
    # step, which stays below that distance
    pred, gt = near_median_pair()
    write_pfm(gt, tmp_path / "g.pfm")
    write_pfm(pred, tmp_path / "p.pfm")
    rc, out, _ = run(capsys, "grad-check", str(tmp_path / "p.pfm"),
                     str(tmp_path / "g.pfm"), "--kind", "ssi")
    assert rc == 0
    assert "checked_pixels: 25\n" in out and out.endswith("result: pass\n")


def _write_csv_pair(tmp_path, pred, gt):
    paths = [str(tmp_path / "pred.csv"), str(tmp_path / "gt.csv")]
    for path, values in zip(paths, (pred, gt)):
        np.savetxt(path, values, fmt="%.17g", delimiter=",")
    return paths


def _sweep_pair():
    """A 6x6 (pred, gt) pair: gt uniform in [1, 10), pred gt plus noise."""
    rng = np.random.default_rng(0)
    gt = rng.uniform(1, 10, (6, 6))
    return gt + 0.1 * rng.standard_normal((6, 6)), gt


@pytest.mark.parametrize("scale", [2.0**-1000, 2.0**-20, 2.0**20, 2.0**1000],
                         ids=["2^-1000", "2^-20", "2^20", "2^1000"])
def test_grad_check_is_the_same_at_any_power_of_two_scale(capsys, tmp_path, scale):
    # the bump and both error floors scale with pred, so pred x 2^k prints
    # the same report but for the gradient's norm, which scales by 2^-k.
    # A bump fixed at 1e-5 left pred x 2^1000 unchanged: no pixel checked
    pred, gt = _sweep_pair()
    flags = ("--kind", "hdn_s", "--levels", "1,2")
    rc, out, _ = run(capsys, "grad-check", *_write_csv_pair(tmp_path, pred, gt), *flags)
    assert (rc, out) == (0, "gradient_norm: 0.490253390124\nused_pixels: 36\n"
                            "checked_pixels: 36\nmax_rel_error: 3.26698e-10\n"
                            "result: pass\n")
    paths = _write_csv_pair(tmp_path, pred * scale, gt)
    rc, scaled, _ = run(capsys, "grad-check", *paths, *flags)
    norm, _, rest = scaled.partition("\n")
    assert (rc, rest) == (0, out.partition("\n")[2])
    assert float(norm.split(": ")[1]) == pytest.approx(0.490253390124 / scale, rel=1e-11)


def _without_median_term(real):
    """_add_block_gradient with each context's median term sent to a
    spare slot past the gradient, so it never reaches a pixel."""
    def patched(gradient, block, lo, hi, *rest):
        spill = np.zeros(gradient.size + 1)
        sink = np.full(lo.shape, gradient.size)
        real(spill, block, sink, sink, *rest)
        gradient += spill[:-1]
    return patched


@pytest.mark.parametrize("flags", [("--kind", "ssi"),
                                   ("--kind", "hdn_s", "--levels", "1,2")])
def test_grad_check_fails_a_gradient_without_its_median_term(capsys, tmp_path,
                                                             monkeypatch, flags):
    paths = _write_csv_pair(tmp_path, *_sweep_pair())
    assert run(capsys, "grad-check", *paths, *flags)[0] == 0
    monkeypatch.setattr(loss_mod, "_add_block_gradient",
                        _without_median_term(loss_mod._add_block_gradient))
    rc, out, _ = run(capsys, "grad-check", *paths, *flags)
    assert rc == 1
    assert "checked_pixels: 36\n" in out and out.endswith("result: fail\n")


def test_grad_check_pred_too_small_exit2(capsys, tmp_path):
    # at 1e-315 the loss has a value but 1 / MAD overflows: the gradient
    # is an input error, not a nan gradient_norm
    gt = np.random.default_rng(0).uniform(1, 10, (6, 6))
    paths = _write_csv_pair(tmp_path, gt * 1e-315, gt)
    assert run(capsys, "loss", *paths, "--kind", "hdn_s", "--levels", "1,2")[0] == 0
    rc, out, err = run(capsys, "grad-check", *paths, "--kind", "hdn_s",
                       "--levels", "1,2")
    assert (rc, out) == (2, "")
    assert err == ("error: pred values too small to differentiate: 1 / the "
                   "MAD of a context overflows\n")


@pytest.mark.parametrize("pred_scale,gt_scale,flags,message", [
    # the alignment scale, about 1e315, is past the float range
    (1e-315, 1.0, (), "pred and gt too far apart in scale to align"),
    # the normal-equation sums overflow
    (1.0, 1e306, (), "pred and gt too far apart in scale to align"),
    # AbsRel is finite, but not as a percentage
    (1e307, 1.0, ("--no-align",), "AbsRel out of float range"),
])
def test_eval_out_of_float_range_exit2(capsys, tmp_path, pred_scale, gt_scale,
                                       flags, message):
    gt = np.random.default_rng(0).uniform(1, 10, (4, 4))
    pred = np.full_like(gt, 1.0) if "--no-align" in flags else gt
    paths = _write_csv_pair(tmp_path, pred * pred_scale, gt * gt_scale)
    rc, out, err = run(capsys, "eval", *paths, *flags)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_float_range_sweep(capsys, tmp_path):
    # pred and gt from the float's subnormal range to near its limit: every
    # run exits 0 with finite numbers or 2 with one error line; no exception,
    # RuntimeWarning or failed gradient check escapes
    pred, gt = _sweep_pair()
    scales = (1e-315, 2.0**-1000, 1.0, 2.0**1000, 1e306)
    commands = [("loss", "--kind", "ssi"),
                ("loss", "--kind", "hdn_s", "--levels", "1,2"),
                ("loss", "--kind", "hdn_dp", "--levels", "1,2", "--lambda", "1.0"),
                ("eval",), ("eval", "--no-align"),
                ("grad-check", "--kind", "hdn_s", "--levels", "1,2")]
    exits, outs = [], {}
    for pred_scale in scales:
        for gt_scale in scales:
            paths = _write_csv_pair(tmp_path, pred * pred_scale, gt * gt_scale)
            for command, *flags in commands:
                rc, out, err = run(capsys, command, *paths, *flags)
                if rc == 0:
                    assert "nan" not in out and "inf" not in out
                else:
                    assert (rc, out) == (2, "") and err.startswith("error: ")
                    assert err.count("\n") == 1
                exits.append((command, rc))
                outs[pred_scale, gt_scale, command, *flags] = out
    assert len(exits) == 150 and {rc for _, rc in exits} == {0, 2}
    # every check that gets an analytical gradient passes: all but the 5 at
    # pred 1e-315, where 1 / a pred MAD overflows
    assert exits.count(("grad-check", 0)) == 20
    # the gt filter has no unit, so a gt x 2^-1000 keeps every context and
    # prints what gt x 1 prints. eval's scale and shift and the L1 term of
    # --lambda are in gt units, so only the plain loss and grad-check apply
    for pred_scale in scales:
        for command in (commands[0], commands[1], commands[5]):
            assert (outs[pred_scale, 2.0**-1000, *command]
                    == outs[pred_scale, 1.0, *command])


def test_grad_check_no_checkable_pixel_fails(capsys, tmp_path):
    # a constant pred has MAD 0, so any bump switches its one context's
    # divisor from 1 to the MAD: the forward and backward differences
    # disagree at every pixel, none is checked, and the report still
    # prints every line and fails
    write_pfm(DepthMap(np.full((3, 3), 5.0)), tmp_path / "p.pfm")
    write_pfm(DepthMap(np.arange(9.0).reshape(3, 3) + 1), tmp_path / "g.pfm")
    rc, out, _ = run(capsys, "grad-check", str(tmp_path / "p.pfm"),
                     str(tmp_path / "g.pfm"), "--kind", "ssi")
    assert rc == 1
    assert out == ("gradient_norm: 0.888888888889\nused_pixels: 9\n"
                   "checked_pixels: 0\nmax_rel_error: nan\nresult: fail\n")


def _synth_pair(capsys, tmp_path):
    """Paths of the README's A/B pair: synth --noise-sigma 0.1 as pred,
    synth as gt."""
    gp, pp = str(tmp_path / "gt.pfm"), str(tmp_path / "pred.pfm")
    assert run(capsys, "synth", "--out", gp)[0] == 0
    assert run(capsys, "synth", "--noise-sigma", "0.1", "--out", pp)[0] == 0
    return pp, gp


def test_grad_check_skips_pixels_outside_surviving_contexts(capsys, tmp_path):
    # hdn_dr at S = 4 on the synth pair keeps only the 1,024-pixel
    # foreground context; the 3,072 background pixels (gt MAD 0) are in
    # no surviving context, so none is used or checked
    rc, out, _ = run(capsys, "grad-check", *_synth_pair(capsys, tmp_path),
                     "--kind", "hdn_dr", "--levels", "4")
    assert rc == 0
    assert out == ("gradient_norm: 6.55891143371\nused_pixels: 1024\n"
                   "checked_pixels: 1022\nmax_rel_error: 4.16675e-10\n"
                   "result: pass\n")


def _scaled_by(real, factor):
    """_add_block_gradient with every term it adds scaled by factor."""
    def patched(gradient, *args):
        terms = np.zeros_like(gradient)
        real(terms, *args)
        gradient += factor * terms
    return patched


def test_grad_check_fails_a_gradient_one_percent_off(capsys, tmp_path, monkeypatch):
    # on the README pair the check compares over a thousand pixels, so a
    # gradient 1% off fails it; unpatched, the same run passes (above)
    paths = _synth_pair(capsys, tmp_path)
    flags = ("--kind", "hdn_dr", "--levels", "4")
    monkeypatch.setattr(loss_mod, "_add_block_gradient",
                        _scaled_by(loss_mod._add_block_gradient, 1.01))
    rc, out, _ = run(capsys, "grad-check", *paths, *flags)
    assert rc == 1 and out.endswith("result: fail\n")
    checked = int(out.split("checked_pixels: ")[1].split("\n")[0])
    assert checked > 1000


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e7, 2.0**1000],
                         ids=["1", "1e6", "1e7", "2^1000"])
def test_grad_check_fails_a_gradient_one_percent_off_at_any_scale(
        capsys, tmp_path, monkeypatch, scale):
    # with floors fixed at 1e-6, such a gradient passed at pred x 1e7
    # (max_rel 6.6e-5): the floor, not the gradient, set the bound
    pred, gt = _sweep_pair()
    paths = _write_csv_pair(tmp_path, pred * scale, gt)
    monkeypatch.setattr(loss_mod, "_add_block_gradient",
                        _scaled_by(loss_mod._add_block_gradient, 1.01))
    rc, out, _ = run(capsys, "grad-check", *paths, "--kind", "hdn_s", "--levels", "1,2")
    assert rc == 1
    assert out.endswith("checked_pixels: 36\nmax_rel_error: 0.00990099\nresult: fail\n")


def test_grad_check_on_the_readme_pair_is_scale_free(capsys, tmp_path):
    # hdn_dr{4} on the README pair, whose pred values are float32: the same
    # pixels used and checked, the same error and verdict, at pred x 2^-20,
    # x 1 and x 2^20
    pp, gp = _synth_pair(capsys, tmp_path)
    pred, gt = read_pfm(pp), read_pfm(gp)
    reports = []
    for scale in (2.0**-20, 1.0, 2.0**20):
        paths = _write_csv_pair(tmp_path, pred.values * scale, gt.values)
        rc, out, _ = run(capsys, "grad-check", *paths, "--kind", "hdn_dr", "--levels", "4")
        reports.append((rc, out.partition("\n")[2]))
    assert reports == [(0, "used_pixels: 1024\nchecked_pixels: 1022\n"
                           "max_rel_error: 4.16675e-10\nresult: pass\n")] * 3


def test_partition_golden_dump(capsys, fixture_files):
    _, gp, _ = fixture_files
    rc, out, _ = run(capsys, "partition", gp, "--kind", "spatial", "--s", "2")
    assert rc == 0
    assert out == "ctx0: 0\nctx1: 1\nctx2: 2\nctx3: 3\n"


def test_partition_dr_overflowing_span(capsys, tmp_path):
    # max - min of these gt values overflows float64; CSV keeps them exact
    gp = tmp_path / "gt.csv"
    gp.write_text("-1e308,0,5e307,1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, _ = run(capsys, "partition", str(gp), "--kind", "depth_range", "--s", "2")
    assert rc == 0
    assert out == "ctx0: 0\nctx1: 1 2 3\n"


def test_partition_stable_across_runs(capsys, fixture_files):
    _, gp, _ = fixture_files
    outs = set()
    for _ in range(3):
        rc, out, _ = run(capsys, "partition", gp, "--kind", "depth_range", "--s", "2")
        assert rc == 0
        outs.add(out)
    assert len(outs) == 1


def test_eval_identical(capsys, fixture_files):
    _, gp, _ = fixture_files
    rc, out, _ = run(capsys, "eval", gp, gp)
    assert rc == 0
    assert "absrel_percent: 0.0" in out
    assert "delta1_percent: 100.0" in out


def test_eval_affine_with_alignment(capsys, fixture_files, tmp_path):
    _, gp, _ = fixture_files
    gt = read_pfm(gp)
    pred = DepthMap(2 * gt.values + 3)
    write_pfm(pred, tmp_path / "aff.pfm")
    rc, out, _ = run(capsys, "eval", str(tmp_path / "aff.pfm"), gp)
    assert rc == 0
    assert "absrel_percent: 0.0" in out
    assert "delta1_percent: 100.0" in out


def test_eval_no_align_hand_fixture(capsys, tmp_path):
    write_pfm(DepthMap(np.array([[1.0, 3.0]])), tmp_path / "p.pfm")
    write_pfm(DepthMap(np.array([[2.0, 2.0]])), tmp_path / "g.pfm")
    rc, out, _ = run(capsys, "eval", str(tmp_path / "p.pfm"),
                     str(tmp_path / "g.pfm"), "--no-align")
    assert rc == 0
    assert "absrel_percent: 50.0" in out


def test_eval_mask_flag(capsys, fixture_files, tmp_path):
    pp, gp, _ = fixture_files
    write_mask(np.array([[True, True], [True, False]]), tmp_path / "m.pgm")
    rc, out, _ = run(capsys, "eval", pp, gp, "--gt-mask", str(tmp_path / "m.pgm"))
    assert rc == 0
    assert "pixels: 3" in out


def _fields(out) -> dict:
    return dict(line.split(": ", 1) for line in out.splitlines())


def test_pred_mask_flag(capsys, fixture_files, tmp_path):
    # loss and eval see the pred as DepthMap(pred.values, mask)
    pp, gp, _ = fixture_files
    mask = np.array([[True, False], [True, True]])
    write_mask(mask, tmp_path / "m.pgm")
    pred, gt = read_pfm(pp), read_pfm(gp)
    masked = DepthMap(pred.values, mask)
    flag = ["--pred-mask", str(tmp_path / "m.pgm")]

    full = _fields(run(capsys, "loss", pp, gp)[1])
    rc, out, _ = run(capsys, "loss", pp, gp, *flag)
    report = hdn_loss(masked, gt, loss_config(gt, "ssi"))
    assert rc == 0
    assert _fields(out)["value"] == f"{report.value:.12g}" != full["value"]
    assert int(_fields(out)["used_pixels"]) == report.used_pixels == int(full["used_pixels"]) - 1

    full = _fields(run(capsys, "eval", pp, gp)[1])
    rc, out, _ = run(capsys, "eval", pp, gp, *flag)
    report = evaluate(masked, gt)
    assert rc == 0
    assert _fields(out)["absrel_percent"] == f"{100 * report.absrel:.1f}"
    assert _fields(out)["scale"] == f"{report.scale:.9g}" != full["scale"]
    assert int(_fields(out)["pixels"]) == report.pixels == int(full["pixels"]) - 1


def test_mask_with_comment_lines(capsys, fixture_files, tmp_path):
    pp, gp, _ = fixture_files
    mask = np.array([[True, True], [True, False]])
    write_mask(mask, tmp_path / "plain.pgm")
    payload = (tmp_path / "plain.pgm").read_bytes()[len(b"P5\n2 2\n255\n"):]
    (tmp_path / "gimp.pgm").write_bytes(
        b"P5\n# Created by GIMP version 2.10.34 PNM plug-in\n2 2\n255\n" + payload)
    plain = run(capsys, "eval", pp, gp, "--gt-mask", str(tmp_path / "plain.pgm"))
    assert run(capsys, "eval", pp, gp, "--gt-mask", str(tmp_path / "gimp.pgm")) == plain
    assert plain[0] == 0 and "pixels: 3" in plain[1]


def test_scatter_stdout(capsys, fixture_files):
    pp, gp, _ = fixture_files
    rc, out, _ = run(capsys, "scatter", pp, gp, "--n", "4")
    assert rc == 0
    assert out.splitlines()[0] == "pred,gt"
    assert len(out.splitlines()) == 5


def test_scatter_out_file(capsys, fixture_files, tmp_path):
    pp, gp, _ = fixture_files
    rc, stdout, _ = run(capsys, "scatter", pp, gp, "--n", "4")
    assert rc == 0
    out = tmp_path / "pairs.csv"
    rc, printed, _ = run(capsys, "scatter", pp, gp, "--n", "4", "--out", str(out))
    assert rc == 0 and printed == ""
    assert out.read_bytes() == stdout.encode()
    assert [p.name for p in tmp_path.glob("*.tmp")] == []


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "{out}"],
    ["fit", "--steps", "1", "--out", "{out}"],
    ["compare", "--loss", "ssi", "--steps", "1", "--csv", "{out}"],
    ["scatter", "{pred}", "{gt}", "--out", "{out}"],
])
def test_output_mode_is_the_one_open_gives(capsys, fixture_files, argv):
    pp, gp, tmp_path = fixture_files
    out, ref = tmp_path / "out", tmp_path / "ref"
    umask = os.umask(0o022)
    try:
        rc = main([arg.format(out=out, pred=pp, gt=gp) for arg in argv])
        ref.open("w").close()
    finally:
        os.umask(umask)
    capsys.readouterr()
    assert rc == 0
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode) == 0o644


def test_failed_write_names_the_output(capsys, fixture_files):
    pp, gp, tmp_path = fixture_files
    out = tmp_path / "missing" / "pairs.csv"
    rc, stdout, err = run(capsys, "scatter", pp, gp, "--out", str(out))
    assert (rc, stdout) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"


def test_synth_past_float32_exit2(capsys, tmp_path):
    out = tmp_path / "big.pfm"
    rc, stdout, err = run(capsys, "synth", "--background-depth", "1e39", "--out", str(out))
    assert (rc, stdout) == (2, "")
    assert "float32" in err
    assert list(tmp_path.iterdir()) == []


def test_synth_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.pfm", tmp_path / "b.pfm"
    assert run(capsys, "synth", "--out", str(a))[0] == 0
    assert run(capsys, "synth", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_standard_fixture_golden_checksum(capsys, tmp_path):
    import hashlib
    out = tmp_path / "std.pfm"
    assert run(capsys, "synth", "--out", str(out))[0] == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    # pinned on the first run; catches any drift in the generator
    assert digest == ("e542aeae76175db2c51e72c9d05e0ba9"
                      "25f5376ee3da0cdf04c96ed62dd97f38")


def test_synth_config_file(capsys, tmp_path):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("height = 8\nwidth = 8\n"
                   "fg_top = 2\nfg_bottom = 6\nfg_left = 2\nfg_right = 6\n"
                   "ridge_amplitude = 0.0  # flat foreground\n")
    out_path = tmp_path / "s.pfm"
    rc, out, _ = run(capsys, "synth", "--config", str(cfg), "--out", str(out_path))
    assert rc == 0
    assert "shape: 8x8" in out
    scene = read_pfm(out_path)
    assert set(np.unique(scene.values)) == {1.0, 10.0}


def test_synth_bad_config_key_exit2(capsys, tmp_path):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("bogus = 1\n")
    rc, _, err = run(capsys, "synth", "--config", str(cfg),
                     "--out", str(tmp_path / "s.pfm"))
    assert rc == 2
    assert not (tmp_path / "s.pfm").exists()


def test_synth_bad_config_value_exit2(capsys, tmp_path):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("# scene\nheight = abc\n")
    rc, _, err = run(capsys, "synth", "--config", str(cfg),
                     "--out", str(tmp_path / "s.pfm"))
    assert rc == 2
    assert err.startswith(f"error: {cfg}:2: bad value 'abc' for height")
    assert not (tmp_path / "s.pfm").exists()


def test_fit_small(capsys, tmp_path):
    rc, out, _ = run(capsys, "fit", "--height", "16", "--width", "16",
                     "--fg-top", "4", "--fg-bottom", "12",
                     "--fg-left", "4", "--fg-right", "12",
                     "--loss-kind", "hdn_dr", "--levels", "1,2",
                     "--steps", "10", "--step-size", "50",
                     "--out", str(tmp_path / "fit.pfm"))
    assert rc == 0
    assert "final_loss:" in out
    assert (tmp_path / "fit.pfm").exists()


def test_compare_ssi_vs_hdn_dr(capsys, tmp_path):
    rc, out, _ = run(capsys, "compare", "--height", "16", "--width", "16",
                     "--fg-top", "4", "--fg-bottom", "12",
                     "--fg-left", "4", "--fg-right", "12",
                     "--loss", "ssi", "--loss", "hdn_dr:1,2",
                     "--steps", "15", "--step-size", "50",
                     "--csv", str(tmp_path / "rows.csv"))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split()[:2] == ["config", "final_loss"]
    assert len(lines) == 3
    csv = (tmp_path / "rows.csv").read_text()
    assert csv.splitlines()[0].startswith("label,")


def test_compare_divergence_exit2(capsys, monkeypatch):
    # the error crosses the worker pool and keeps its message
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    rc, out, err = run(capsys, "compare", "--height", "16", "--width", "16",
                       "--fg-top", "4", "--fg-bottom", "12",
                       "--fg-left", "4", "--fg-right", "12",
                       "--loss", "ssi", "--loss", "hdn_dr:1,2",
                       "--step-size", "inf")
    assert rc == 2
    assert out == ""
    assert err == "error: no step size gave an evaluable prediction at step 0\n"


def test_cli_import_leaves_out_process_pools():
    # the pool's modules load only when compare runs fits in parallel
    src = str(Path(hdnorm.__file__).resolve().parent.parent)
    code = ("import sys, hdnorm.cli; print(sorted(m for m in sys.modules if m in "
            "('concurrent.futures.process', 'multiprocessing')))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def _fresh_main(argv, before="", after="", **kwargs):
    """hdnorm.cli.main(argv) in a new interpreter, with code run before
    and after it; the process exits with main's code."""
    src = str(Path(hdnorm.__file__).resolve().parent.parent)
    code = (f"import os, sys\n{before}\nimport hdnorm.cli\n"
            f"code = hdnorm.cli.main({list(argv)!r})\n{after}\nsys.exit(code)\n")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), **kwargs)


def test_main_freezes_once_per_process():
    # the first call freezes the start-up objects; a second call in the same
    # process leaves what was made since collectable
    after = ("first = gc.get_freeze_count()\nhdnorm.cli.main(['--help'])\n"
             "print(first, gc.get_freeze_count(), file=sys.stderr)")
    done = _fresh_main(["--help"], before="import gc", after=after)
    first, second = map(int, done.stderr.split())
    assert done.returncode == 0 and 0 < first == second


# the hdnorm submodules loaded so far, as a printed list
_LOADED = "print(sorted(m for m in sys.modules if m.startswith('hdnorm.')))"


def test_import_hdnorm_loads_no_submodule():
    # a public name loads its module when it is first used
    src = str(Path(hdnorm.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", f"import sys, hdnorm\n{_LOADED}"],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_truncated_loss_loads_no_loss_module(fixture_files):
    # the input error comes before the loss is configured
    _, gp, tmp = fixture_files
    (tmp / "trunc.pfm").write_bytes(b"Pf\n2 2\n-1.0\n\x00")
    long_pfm = str(tmp / "long.pfm")  # a 2x2 header over 9 floats
    Path(long_pfm).write_bytes(b"Pf\n2 2\n-1.0\n" + np.ones(9, "<f4").tobytes())
    done = _fresh_main(["loss", str(tmp / "trunc.pfm"), gp], after=_LOADED)
    assert done.returncode == 2 and "truncated PFM payload" in done.stderr
    loaded = set(ast.literal_eval(done.stdout))
    assert not loaded & {"hdnorm.loss", "hdnorm.harness", "hdnorm.metrics"}


@pytest.mark.parametrize("command", [["eval"], ["scatter", "--n", "3"]])
def test_metrics_commands_load_no_loss_module(fixture_files, command):
    pp, gp, _ = fixture_files
    done = _fresh_main([command[0], pp, gp, *command[1:]], after=_LOADED)
    assert done.returncode == 0
    loaded = set(ast.literal_eval(done.stdout.splitlines()[-1]))
    assert "hdnorm.metrics" in loaded
    assert not loaded & {"hdnorm.loss", "hdnorm.harness"}


@pytest.mark.parametrize("command", ["loss", "grad-check"])
def test_loss_commands_load_neither_harness_nor_metrics(tmp_path, command):
    # the loss kind's contexts come from the loss module itself
    paths = _write_csv_pair(tmp_path, *_sweep_pair())
    done = _fresh_main([command, *paths, "--kind", "hdn_s", "--levels", "1,2"],
                       after=_LOADED)
    assert done.returncode == 0
    loaded = set(ast.literal_eval(done.stdout.splitlines()[-1]))
    assert "hdnorm.loss" in loaded
    assert not loaded & {"hdnorm.harness", "hdnorm.metrics"}


def test_synth_loads_only_the_scene_modules(tmp_path):
    # the scene, its defaults and the PFM writer all live in depth_core
    done = _fresh_main(["synth", "--out", str(tmp_path / "f.pfm")], after=_LOADED)
    assert done.returncode == 0
    loaded = set(ast.literal_eval(done.stdout.splitlines()[-1]))
    assert loaded == {"hdnorm.cli", "hdnorm.depth_core", "hdnorm.errors"}


@pytest.mark.parametrize("command", ["synth", "fit", "compare"])
def test_scene_flags_load_no_fitting_code(command):
    # fit may load contexts for its --loss-kind choices
    done = _fresh_main([command, "--help"], after=_LOADED)
    assert done.returncode == 0
    loaded = set(ast.literal_eval(done.stdout.splitlines()[-1]))
    assert not loaded & {"hdnorm.harness", "hdnorm.loss", "hdnorm.metrics"}


def test_compare_loads_its_modules_before_the_pool_forks():
    # forked fit workers inherit the loss, contexts and metrics modules
    # instead of compiling them each; importing the CLI loads none of them
    record = ("import hdnorm.cli\n"
              "loaded = lambda: sorted(m for m in sys.modules if m.startswith('hdnorm.'))\n"
              "seen = [loaded()]\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "fork = os.fork\n"
              "os.fork = lambda: seen.append(loaded()) or fork()\n")
    done = _fresh_main(["compare", "--height", "16", "--width", "16",
                        "--fg-top", "4", "--fg-bottom", "12",
                        "--fg-left", "4", "--fg-right", "12", "--steps", "2",
                        "--loss", "ssi", "--loss", "hdn_dr:1,2"],
                       before=record, after="print(seen)")
    assert done.returncode == 0
    at_import, at_fork = ast.literal_eval(done.stdout.splitlines()[-1])[:2]
    compute = {"hdnorm.loss", "hdnorm.contexts", "hdnorm.metrics"}
    assert not compute & set(at_import)
    assert compute <= set(at_fork)


def test_map_read_out_of_memory_names_the_file(fixture_files):
    # a header on a pipe asks for a 4e18-byte payload, which no read can
    # allocate: the error line says so and names the file
    _, gp, _ = fixture_files
    done = _fresh_main(["loss", "/dev/stdin", gp],
                       input="Pf\n1000000000 1000000000\n-1.0\n")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: /dev/stdin: out of memory\n"


def test_unknown_command_exit2(capsys):
    assert main(["definitely-not-a-command"]) == 2


# every command with its help line, in the order `hdnorm --help` lists them
COMMANDS = [
    ("loss", "evaluate a loss on a pred/gt pair"),
    ("grad-check", "finite-difference gradient check"),
    ("partition", "dump one partition level"),
    ("eval", "AbsRel / delta1 evaluation"),
    ("scatter", "sample pred/gt pairs as CSV"),
    ("synth", "generate a synthetic scene PFM"),
    ("fit", "direct gradient-descent fit of a scene"),
    ("compare", "A/B fits under several losses"),
]


def test_help_lists_every_command_with_its_help_line(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    rc, out, _ = run(capsys, "--help")
    assert rc == 0
    names = {name for name, _ in COMMANDS}
    listed = [tuple(line.split(None, 1)) for line in out.splitlines()
              if line.startswith("    ") and line.split()[0] in names]
    assert listed == COMMANDS


@pytest.mark.parametrize("command", [name for name, _ in COMMANDS])
def test_command_help_exits0(capsys, monkeypatch, command):
    # only loss takes --lambda
    monkeypatch.setenv("COLUMNS", "80")
    rc, out, err = run(capsys, command, "--help")
    assert (rc, err) == (0, "")
    assert out.startswith(f"usage: hdnorm {command} ")
    assert ("--lambda LAM" in out) == (command == "loss")


def test_removed_options_exit2(capsys, fixture_files):
    # the context filter is fixed and every fit starts from noisy gt
    pp, gp, _ = fixture_files
    for argv, message in (
            (["loss", pp, gp, "--eps", "1e-6"], "unrecognized arguments"),
            (["grad-check", pp, gp, "--min-context", "2"], "unrecognized arguments"),
            (["fit", "--eps", "1e-6"], "unrecognized arguments"),
            (["compare", "--loss", "ssi", "--min-context", "2"],
             "unrecognized arguments"),
            (["fit", "--init", "random"], "unrecognized arguments"),
            (["compare", "--loss", "ssi", "--init", "random"],
             "unrecognized arguments")):
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert message in err


def test_internal_value_error_exits1_with_traceback(fixture_files):
    # a ValueError from inside the program is a bug, not a usage error:
    # it is not turned into exit 2 but ends the process with a traceback
    pp, gp, _ = fixture_files
    src = str(Path(hdnorm.__file__).resolve().parent.parent)
    code = ("import sys, hdnorm.metrics, hdnorm.cli\n"
            "def boom(*a, **k):\n    raise ValueError('internal bug')\n"
            "hdnorm.metrics.evaluate = boom\n"
            f"sys.exit(hdnorm.cli.main(['eval', {pp!r}, {gp!r}]))\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("Traceback (most recent call last):")
    assert done.stderr.endswith("ValueError: internal bug\n")


def test_failed_allocation_exits2(tmp_path):
    # a child process under a 4 GiB address-space limit asks synth for a
    # 10^6 x 10^6 map (8 TB): numpy cannot allocate it, and the CLI
    # reports that as an input error, not a traceback
    out = tmp_path / "big.pfm"
    src = str(Path(hdnorm.__file__).resolve().parent.parent)
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
            "import hdnorm.cli\n"
            "sys.exit(hdnorm.cli.main(['synth', '--height', '1000000', "
            f"'--width', '1000000', '--out', {str(out)!r}]))\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_loss_empty_csv_exit2(capsys, fixture_files):
    _, gp, tmp = fixture_files
    for text in ("", "\n"):
        (tmp / "empty.csv").write_text(text)
        assert run(capsys, "loss", str(tmp / "empty.csv"), gp) == (
            2, "", "error: empty CSV map\n")


def test_malformed_inputs_exit2(capsys, fixture_files):
    # every input error is a typed HdnormError or an OSError: exit 2 and
    # one "error:" line, nothing on stdout
    pp, gp, tmp = fixture_files
    write_pfm(DepthMap(np.ones((2, 2))), tmp / "const.pfm")
    write_pfm(DepthMap(np.ones((3, 2))), tmp / "tall.pfm")
    write_mask(np.ones((3, 3), dtype=bool), tmp / "mask.pgm")
    (tmp / "trunc.pfm").write_bytes(b"Pf\n2 2\n-1.0\n\x00")
    long_pfm = str(tmp / "long.pfm")  # a 2x2 header over 9 floats
    Path(long_pfm).write_bytes(b"Pf\n2 2\n-1.0\n" + np.ones(9, "<f4").tobytes())
    (tmp / "ragged.csv").write_text("1,2\n3\n")
    (tmp / "scene.txt").write_text("height = -3\n")
    (tmp / "huge.txt").write_text("height = 99999999999999999999\n")
    out = str(tmp / "out.pfm")
    cases = [
        ["loss", pp, str(tmp / "missing.pfm")],
        ["loss", pp, str(tmp / "trunc.pfm")],
        ["eval", long_pfm, gp],
        ["loss", str(tmp / "ragged.csv"), gp],
        ["loss", pp, str(tmp / "tall.pfm")],
        ["loss", pp, gp, "--gt-mask", str(tmp / "mask.pgm")],
        ["loss", pp, str(tmp / "const.pfm")],
        ["loss", pp, gp, "--kind", "hdn_s", "--levels", "x"],
        ["loss", pp, gp, "--kind", "hdn_s", "--levels", "1,1"],
        ["loss", pp, gp, "--lambda", "-1"],
        ["partition", gp, "--s", "0"],
        ["eval", str(tmp / "const.pfm"), gp],
        ["scatter", pp, gp, "--n", "-5"],
        ["scatter", pp, gp, "--seed", "-1"],
        ["synth", "--out", out, "--height", "0"],
        ["synth", "--out", out, "--config", str(tmp / "scene.txt")],
        ["synth", "--out", out, "--background-depth", "nan"],
        ["synth", "--out", out, "--noise-sigma", "0.1", "--seed", "-2"],
        # a scene numpy cannot shape
        ["synth", "--out", out, "--height", "99999999999999999999"],
        ["synth", "--out", out, "--config", str(tmp / "huge.txt")],
        ["fit", "--steps", "2", "--width", "99999999999999999999"],
        ["compare", "--steps", "2", "--loss", "ssi", "--loss", "hdn_s",
         "--height", "99999999999999999999"],
        ["fit", "--steps", "2", "--fit-seed", "-1"],
        ["fit", "--steps", "2", "--levels", "a"],
        # gt MAD overflow: the gt is at fault, not the optimizer
        ["fit", "--steps", "2", "--background-depth", "1e308", "--base-depth", "1e307"],
        ["compare", "--steps", "2", "--loss", "nope"],
        # non-finite float options
        ["loss", pp, gp, "--lambda", "nan"],
        ["loss", pp, gp, "--lambda", "inf"],
        ["synth", "--out", out, "--noise-sigma", "nan"],
        ["fit", "--steps", "2", "--step-size", "nan"],
        # sizes past int64: every context is a single pixel, so none is left
        *(["loss", pp, gp, "--kind", kind, "--levels", str(S)]
          for kind in ("hdn_s", "hdn_dp", "hdn_dr") for S in (2**33, 2**70)),
    ]
    for argv in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, stdout, err = run(capsys, *argv)
        assert (rc, stdout) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert not (tmp / "out.pfm").exists()
    assert run(capsys, "eval", long_pfm, gp) == (
        2, "", "error: PFM payload longer than 2x2\n")


def test_cli_input_errors_are_typed(capsys, fixture_files):
    pp, gp, tmp = fixture_files
    mask = str(tmp / "mask.pgm")
    write_mask(np.ones((3, 3), dtype=bool), mask)
    configs = []
    for k, text in enumerate((b"height 3\n", b"bogus = 1\n", b"height = abc\n",
                              b"height = 3\xff\n")):
        configs.append(str(tmp / f"scene{k}.cfg"))
        Path(configs[-1]).write_bytes(text)
    out = str(tmp / "out.pfm")
    cases = [
        (lambda: cli._load_map(gp, mask), ShapeMismatchError,
         ["loss", pp, gp, "--gt-mask", mask],
         "mask (3, 3) does not match map (2, 2)"),
        (lambda: cli._parse_levels("1,x"), ParameterError,
         ["loss", pp, gp, "--kind", "hdn_s", "--levels", "1,x"],
         "bad levels list '1,x'; expected e.g. 1,2,4"),
        (lambda: cli._read_config(configs[0]), FormatError,
         ["synth", "--out", out, "--config", configs[0]],
         f"{configs[0]}:1: expected key = value"),
        (lambda: cli._read_config(configs[1]), ParameterError,
         ["synth", "--out", out, "--config", configs[1]],
         f"{configs[1]}:1: unknown option 'bogus'"),
        (lambda: cli._read_config(configs[2]), ParameterError,
         ["synth", "--out", out, "--config", configs[2]],
         f"{configs[2]}:1: bad value 'abc' for height; expected int"),
        (lambda: cli._read_config(configs[3]), FormatError,
         ["synth", "--out", out, "--config", configs[3]],
         f"{configs[3]}: not UTF-8 text"),
    ]
    for call, error, argv, message in cases:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert not Path(out).exists()


@pytest.mark.parametrize("kind,tag", [
    ("hdn_s", "spatial"), ("hdn_dp", "depth_percentile"), ("hdn_dr", "depth_range")])
def test_huge_level_sizes(capsys, fixture_files, kind, tag):
    # a level of 2**33 or 2**70 holds single pixels, which the filter drops:
    # alone it leaves no context, beside level 1 it adds a level of value 0
    pp, gp, _ = fixture_files
    rc, base, _ = run(capsys, "loss", pp, gp, "--kind", kind, "--levels", "1")
    assert rc == 0
    for S in (2**33, 2**70):
        rc, _, err = run(capsys, "loss", pp, gp, "--kind", kind, "--levels", str(S))
        assert rc == 2 and err == "error: all contexts filtered out\n"
        rc, out, _ = run(capsys, "loss", pp, gp, "--kind", kind, "--levels", f"1,{S}")
        assert rc == 0 and out == base + f"level {tag}-{S}: 0\n"


@pytest.mark.parametrize("flags", [
    ("--kind", "hdn_s", "--levels", "1,2,4,8"),
    ("--kind", "ssi", "--lambda", "1.0"),
])
def test_loss_pred_near_the_float_limit(capsys, tmp_path, flags):
    # the standard fixture and a noisy pred scaled by a power of two to
    # max |pred| just under 2^1023: the HDN loss prints what pred x 1 prints,
    # but the L1 term of --lambda is in data units, and its mean overflows
    gt = hdnorm.generate_scene(hdnorm.standard_fixture()).values
    pred = gt + 0.1 * np.random.default_rng(0).standard_normal(gt.shape)
    base = run(capsys, "loss", *_write_csv_pair(tmp_path, pred, gt), *flags)
    pred = np.ldexp(pred, 1023 - np.frexp(np.abs(pred).max())[1])
    rc, out, err = run(capsys, "loss", *_write_csv_pair(tmp_path, pred, gt), *flags)
    assert base[0] == 0
    if "--lambda" in flags:
        assert (rc, out) == (2, "")
        assert err == "error: pred values too large to normalize: the L1 mean overflows\n"
    else:
        assert (rc, out, err) == base
