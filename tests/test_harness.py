import multiprocessing
import os
import pickle
import runpy
import signal
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from hdnorm import (
    DepthMap,
    FitConfig,
    compare_losses,
    fit_depth,
    generate_scene,
    standard_fixture,
)
from hdnorm import harness
from hdnorm.errors import DivergenceError, HdnormError, ParameterError
from hdnorm.harness import format_table, loss_config, rows_to_csv
from hdnorm.loss import hdn_loss

from conftest import small_fixture


def test_scene_two_plane_case():
    spec = small_fixture(ridge_amplitude=0.0)
    scene = generate_scene(spec)
    assert set(np.unique(scene.values)) == {1.0, 10.0}
    assert scene.valid.all()


def test_scene_deterministic():
    spec = small_fixture(noise_sigma=0.05)
    a, b = generate_scene(spec), generate_scene(spec)
    assert np.array_equal(a.values, b.values)


def test_scene_ridge_extrema():
    spec = small_fixture(ridge_period=4.0)  # period divides width: hits +/-1
    scene = generate_scene(spec)
    fg = scene.values[spec.fg_top:spec.fg_bottom, spec.fg_left:spec.fg_right]
    assert fg.min() == pytest.approx(spec.base_depth - spec.ridge_amplitude)
    assert fg.max() == pytest.approx(spec.base_depth + spec.ridge_amplitude)


def test_scene_spec_validation():
    with pytest.raises(ParameterError):
        small_fixture(fg_bottom=20)
    with pytest.raises(ParameterError):
        small_fixture(base_depth=9.9)  # base + amplitude >= background
    with pytest.raises(ParameterError):
        small_fixture(ridge_period=0.0)
    with pytest.raises(ParameterError):
        small_fixture(noise_sigma=0.1, seed=-1)
    small_fixture(seed=-1)  # no noise: the seed is never read


def test_fit_config_validation():
    with pytest.raises(ParameterError):
        FitConfig("nope")
    with pytest.raises(ParameterError):
        FitConfig("ssi", steps=0)
    for init in ("bogus", "constant"):
        with pytest.raises(ParameterError):
            FitConfig("ssi", init=init)
    with pytest.raises(ParameterError):
        FitConfig("ssi", seed=-1)


def test_loss_config_unknown_kind():
    with pytest.raises(ParameterError, match="unknown loss kind"):
        loss_config(generate_scene(small_fixture()), "nope")


def test_fit_at_gt_is_fixed_point(monkeypatch):
    spec = small_fixture()
    gt = generate_scene(spec)
    cfg = FitConfig("hdn_dr", (1, 2), steps=5, step_size=10.0)
    monkeypatch.setattr("hdnorm.harness._initial_prediction",
                        lambda g, c: np.array(g.values))
    fitted, report = fit_depth(gt, cfg, foreground=spec.foreground)
    assert max(report.loss_trajectory) < 1e-12
    assert np.allclose(fitted.values, gt.values)


def test_fit_trajectory_monotone_and_finite():
    spec = small_fixture()
    gt = generate_scene(spec)
    cfg = FitConfig("ssi", (1,), steps=30, step_size=50.0, init="random", seed=1)
    _, report = fit_depth(gt, cfg)
    traj = np.array(report.loss_trajectory)
    assert len(traj) == 31
    assert np.isfinite(traj).all()
    assert (np.diff(traj) <= 1e-15).all()


def test_fit_with_overflowing_step_size_is_clean():
    # the first step multiplies pred by ~1e305; the fit must return
    # finite results without a floating-point warning
    spec = standard_fixture()
    gt = generate_scene(spec)
    cfg = FitConfig("hdn_dr", (1, 2, 4), init="random", step_size=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, report = fit_depth(gt, cfg, foreground=spec.foreground)
    traj = np.array(report.loss_trajectory)
    assert np.isfinite(traj).all() and (np.diff(traj) <= 0).all()
    assert traj[-1] < traj[0]
    assert np.isfinite([report.global_absrel, report.foreground_local_absrel]).all()


def test_fit_rejects_non_finite_candidates():
    # on a 2x4 map with a 1e-3 depth range the first candidates overflow
    # to inf and must be halved away, not raise from DepthMap; the first
    # finite ones sit near the float limit, where the loss's own sums
    # overflow, which this test does not check
    gt = DepthMap(np.array([[1.0, 1.001, 1.0004, 1.0007],
                            [1.0002, 1.0009, 1.0001, 1.0005]]))
    cfg = FitConfig("hdn_dr", (1, 2), init="random", step_size=1e308, steps=3)
    with np.errstate(over="ignore"):
        fitted, report = fit_depth(gt, cfg)
    assert np.isfinite(fitted.values).all()
    assert np.isfinite(report.loss_trajectory).all()


def test_fit_diverges_when_every_backtrack_is_non_finite():
    gt = generate_scene(small_fixture())
    cfg = FitConfig("hdn_dr", (1, 2), steps=5, step_size=float("inf"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError) as info:
            fit_depth(gt, cfg)
    assert info.value.step == 0


def test_fitted_loss_affine_free():
    spec = small_fixture()
    gt = generate_scene(spec)
    cfg = FitConfig("hdn_dr", (1, 2), steps=10, step_size=50.0, seed=2)
    fitted, report = fit_depth(gt, cfg, foreground=spec.foreground)
    loss_cfg = loss_config(gt, cfg.loss_kind, cfg.level_sizes)
    base = hdn_loss(fitted, gt, loss_cfg).value
    for a in (0.5, 3.0):
        scaled = DepthMap(a * fitted.values, fitted.valid)
        assert hdn_loss(scaled, gt, loss_cfg).value == pytest.approx(base, abs=1e-9)


def test_compare_single_config_zero_self_change():
    spec = small_fixture()
    rows = compare_losses(spec, [FitConfig("ssi", (1,), steps=10, step_size=50.0)])
    assert len(rows) == 1
    assert rows[0]["global_absrel_change_pct"] == 0.0
    assert rows[0]["foreground_local_absrel_change_pct"] == 0.0


def test_compare_duplicate_configs_identical():
    spec = small_fixture()
    cfg = FitConfig("hdn_dr", (1, 2), steps=10, step_size=50.0)
    rows = compare_losses(spec, [cfg, cfg])
    assert rows[0]["final_loss"] == rows[1]["final_loss"]
    assert rows[0]["global_absrel"] == rows[1]["global_absrel"]


def test_compare_reports_both_metric_columns():
    spec = small_fixture()
    rows = compare_losses(spec, [
        FitConfig("ssi", (1,), steps=10, step_size=50.0),
        FitConfig("hdn_dr", (4,), steps=10, step_size=50.0),  # local-only finest
    ])
    for row in rows:
        assert "global_absrel" in row and "foreground_local_absrel" in row
    table = format_table(rows)
    assert "glob%" in table and "fg%" in table
    csv = rows_to_csv(rows)
    assert csv.splitlines()[0].startswith("label,final_loss")
    assert len(csv.splitlines()) == 3


def test_compare_deterministic():
    spec = small_fixture()
    cfgs = [FitConfig("ssi", (1,), steps=8, step_size=50.0),
            FitConfig("hdn_dp", (1, 2), steps=8, step_size=50.0)]
    assert compare_losses(spec, cfgs) == compare_losses(spec, cfgs)


def _fit_pids(monkeypatch, path):
    """Make every fit append "start <pid>" to path when it begins and
    "done <pid>" when it returns; forked workers inherit the patch. The
    returned reader gives the set of pids logged with one event."""
    fit = harness.fit_depth

    def logged(*args, **kw):
        with open(path, "a") as f:
            f.write(f"start {os.getpid()}\n")
        result = fit(*args, **kw)
        with open(path, "a") as f:
            f.write(f"done {os.getpid()}\n")
        return result

    monkeypatch.setattr(harness, "fit_depth", logged)

    def pids(event="start"):
        lines = Path(path).read_text().splitlines() if Path(path).exists() else []
        return {int(pid) for e, pid in map(str.split, lines) if e == event}
    return pids


def test_compare_pool_rows_equal_serial_rows(monkeypatch, tmp_path):
    spec = small_fixture()
    cfgs = [FitConfig("ssi", (1,), steps=8, step_size=50.0),
            FitConfig("hdn_s", (1, 2), steps=8, step_size=50.0),
            FitConfig("hdn_dr", (1, 2), steps=8, step_size=50.0)]
    pids = _fit_pids(monkeypatch, tmp_path / "pool")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pooled = compare_losses(spec, cfgs)
    assert pids() and os.getpid() not in pids()
    pids = _fit_pids(monkeypatch, tmp_path / "serial")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = compare_losses(spec, cfgs)
    assert pids() == {os.getpid()}
    assert pooled == serial


def test_compare_divergence_raised_through_pool(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfgs = [FitConfig("ssi", (1,), steps=8, step_size=50.0),
            FitConfig("hdn_dr", (1, 2), steps=8, step_size=float("inf"))]
    with pytest.raises(DivergenceError) as info:
        compare_losses(small_fixture(), cfgs)
    assert info.value.step == 0
    assert str(info.value) == "non-finite loss at step 0"


def test_compare_first_error_ends_the_other_fits(monkeypatch, tmp_path):
    # the diverging fit fails at step 0 while the long one (about 6 s)
    # has just begun; its worker is ended, not waited for
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids = _fit_pids(monkeypatch, tmp_path / "log")
    cfgs = [FitConfig("hdn_s", (1, 2, 4), steps=20000, step_size=50.0),
            FitConfig("ssi", (1,), steps=8, step_size=float("inf"))]
    with pytest.raises(DivergenceError):
        compare_losses(small_fixture(), cfgs)
    assert pids() and os.getpid() not in pids()
    assert pids("done") == set()
    assert multiprocessing.active_children() == []


def test_compare_first_error_among_ab_configs_does_not_hang(monkeypatch):
    # the five A/B configs on the standard fixture, the first diverging:
    # more fits are queued for the workers when they are ended, and
    # shutting the pool down must not wait on those queued jobs; the
    # alarm ends the test run if it hangs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    common = dict(steps=300, step_size=100.0, init="noisy_gt", seed=7)
    cfgs = [FitConfig("ssi", (1,), steps=300, step_size=float("inf")),
            FitConfig("hdn_s", (1, 2, 4, 8), **common),
            FitConfig("hdn_dp", (1, 2, 4), **common),
            FitConfig("hdn_dr", (1, 2, 4), **common),
            FitConfig("hdn_dr", (4,), **common)]
    signal.alarm(60)
    try:
        with pytest.raises(DivergenceError):
            compare_losses(standard_fixture(), cfgs)
    finally:
        signal.alarm(0)
    assert multiprocessing.active_children() == []


def test_compare_killed_worker_is_raised(monkeypatch):
    # a worker ended from outside (say, by the OOM killer) is an error,
    # not a hang; the alarm ends the test run if it hangs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fit = harness.fit_depth

    def dying(gt, cfg, foreground=None):
        if cfg.loss_kind == "ssi":
            os.kill(os.getpid(), signal.SIGKILL)
        return fit(gt, cfg, foreground=foreground)

    monkeypatch.setattr(harness, "fit_depth", dying)
    cfgs = [FitConfig("hdn_s", (1, 2), steps=8), FitConfig("ssi", (1,), steps=8)]
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            compare_losses(small_fixture(), cfgs)
    finally:
        signal.alarm(0)
    assert multiprocessing.active_children() == []


def test_errors_survive_pickling():
    # worker processes hand their errors back pickled
    def subclasses(cls):
        return [cls] + [s for sub in cls.__subclasses__() for s in subclasses(sub)]

    for cls in subclasses(HdnormError):
        err = cls(3) if cls is DivergenceError else cls("bad input")
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == str(err)
        assert getattr(back, "step", None) == getattr(err, "step", None)
    assert str(DivergenceError(3)) == "non-finite loss at step 3"


def test_standard_fixture_shape():
    spec = standard_fixture()
    assert (spec.height, spec.width) == (64, 64)
    assert spec.background_depth / (spec.base_depth + spec.ridge_amplitude) > 8


def test_ab_experiment_matches_readme_table(monkeypatch, capsys):
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    start = readme.index("```\n", readme.index("Typical output")) + 4
    table = readme[start:readme.index("```", start)]
    monkeypatch.setattr(sys, "argv", ["run_ab_experiment.py"])
    runpy.run_path(str(root / "scripts" / "run_ab_experiment.py"), run_name="__main__")
    assert capsys.readouterr().out == table
