import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hdnorm
from hdnorm import DepthMap, read_pfm, write_mask, write_pfm
from hdnorm.cli import main


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


def test_grad_check_step_zero_exit2(capsys, fixture_files):
    pp, gp, _ = fixture_files
    rc, _, err = run(capsys, "grad-check", pp, gp, "--step", "0")
    assert rc == 2


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


def test_partition_golden_dump(capsys, fixture_files):
    _, gp, _ = fixture_files
    rc, out, _ = run(capsys, "partition", gp, "--kind", "spatial", "--s", "2")
    assert rc == 0
    assert out == "ctx0: 0\nctx1: 1\nctx2: 2\nctx3: 3\n"


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
    assert err == "error: non-finite loss at step 0\n"


def test_cli_import_leaves_out_process_pools():
    # the pool's modules load only when compare runs fits in parallel
    src = str(Path(hdnorm.__file__).resolve().parent.parent)
    code = ("import sys, hdnorm.cli; print(sorted(m for m in sys.modules if m in "
            "('concurrent.futures.process', 'multiprocessing')))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_unknown_command_exit2(capsys):
    assert main(["definitely-not-a-command"]) == 2


def test_removed_options_exit2(capsys, fixture_files):
    # the context filter is fixed and a constant init is no choice
    pp, gp, _ = fixture_files
    for argv, message in (
            (["loss", pp, gp, "--eps", "1e-6"], "unrecognized arguments"),
            (["grad-check", pp, gp, "--min-context", "2"], "unrecognized arguments"),
            (["fit", "--eps", "1e-6"], "unrecognized arguments"),
            (["compare", "--loss", "ssi", "--min-context", "2"],
             "unrecognized arguments"),
            (["fit", "--init", "constant"], "invalid choice"),
            (["compare", "--loss", "ssi", "--init", "constant"], "invalid choice")):
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


def test_malformed_inputs_exit2(capsys, fixture_files):
    # every input error is a typed HdnormError or an OSError: exit 2 and
    # one "error:" line, nothing on stdout
    pp, gp, tmp = fixture_files
    write_pfm(DepthMap(np.ones((2, 2))), tmp / "const.pfm")
    write_pfm(DepthMap(np.ones((3, 2))), tmp / "tall.pfm")
    write_mask(np.ones((3, 3), dtype=bool), tmp / "mask.pgm")
    (tmp / "trunc.pfm").write_bytes(b"Pf\n2 2\n-1.0\n\x00")
    (tmp / "ragged.csv").write_text("1,2\n3\n")
    (tmp / "scene.txt").write_text("height = -3\n")
    out = str(tmp / "out.pfm")
    cases = [
        ["loss", pp, str(tmp / "missing.pfm")],
        ["loss", pp, str(tmp / "trunc.pfm")],
        ["loss", str(tmp / "ragged.csv"), gp],
        ["loss", pp, str(tmp / "tall.pfm")],
        ["loss", pp, gp, "--gt-mask", str(tmp / "mask.pgm")],
        ["loss", pp, str(tmp / "const.pfm")],
        ["loss", pp, gp, "--kind", "hdn_s", "--levels", "x"],
        ["loss", pp, gp, "--kind", "hdn_s", "--levels", "1,1"],
        ["loss", pp, gp, "--lambda", "-1"],
        ["grad-check", pp, gp, "--step", "0"],
        ["partition", gp, "--s", "0"],
        ["eval", str(tmp / "const.pfm"), gp],
        ["scatter", pp, gp, "--n", "-5"],
        ["scatter", pp, gp, "--seed", "-1"],
        ["synth", "--out", out, "--height", "0"],
        ["synth", "--out", out, "--config", str(tmp / "scene.txt")],
        ["synth", "--out", out, "--background-depth", "nan"],
        ["synth", "--out", out, "--noise-sigma", "0.1", "--seed", "-2"],
        ["fit", "--steps", "2", "--fit-seed", "-1"],
        ["fit", "--steps", "2", "--levels", "a"],
        ["compare", "--steps", "2", "--loss", "nope"],
    ]
    for argv in cases:
        rc, stdout, err = run(capsys, *argv)
        assert (rc, stdout) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert not (tmp / "out.pfm").exists()
