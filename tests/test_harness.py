import dataclasses
import multiprocessing
import os
import pickle
import re
import shlex
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hdnorm import (
    DepthMap,
    FitConfig,
    SceneSpec,
    compare_losses,
    fit_depth,
    generate_scene,
    standard_fixture,
)
from hdnorm import cli, harness
from hdnorm.errors import DivergenceError, HdnormError, InvalidMapError, ParameterError
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
    for depths in ({"base_depth": 0.0}, {"base_depth": -1.0},
                   {"background_depth": -0.5, "base_depth": -2.0}):
        with pytest.raises(ParameterError, match="depths must be positive"):
            small_fixture(**depths)
    # integer fields take no fraction; numpy integers are integers
    for name, value in (("height", 16.5), ("width", 16.0), ("fg_top", 4.5),
                        ("fg_bottom", "12"), ("fg_left", 4.0), ("fg_right", 11.5),
                        ("seed", 3.5)):
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            small_fixture(**{name: value})
    assert generate_scene(small_fixture(height=np.int64(16))).height == 16
    # float fields take any real number, and nothing else
    for name, value in (("background_depth", "10"), ("base_depth", "1"),
                        ("ridge_amplitude", None), ("ridge_period", [4.0]),
                        ("noise_sigma", None), ("noise_sigma", 0.1j)):
        message = re.escape(f"{name} must be a number, got {value!r}")
        with pytest.raises(ParameterError, match=message):
            small_fixture(**{name: value})
    assert generate_scene(small_fixture(base_depth=1, ridge_amplitude=Fraction(1, 5),
                                        ridge_period=np.float32(4))).height == 16


def test_fit_config_validation():
    with pytest.raises(ParameterError):
        FitConfig("nope")
    with pytest.raises(ParameterError):
        FitConfig("ssi", steps=0)
    with pytest.raises(ParameterError):
        FitConfig("ssi", seed=-1)
    for sizes in (("x",), (), (0,), (2, 2), (1.9, 2.5)):
        with pytest.raises(ParameterError):
            FitConfig("hdn_s", sizes)
    for name, value in (("steps", 2.5), ("steps", 2.0), ("seed", 1.5)):
        message = re.escape(f"{name} must be an integer, got {value!r}")
        with pytest.raises(ParameterError, match=message):
            FitConfig("ssi", **{name: value})
    with pytest.raises(ParameterError, match="unknown loss kind"):
        FitConfig(["ssi"])  # unhashable, so not a key of LOSS_KINDS
    assert FitConfig("hdn_s", (1.0, np.int64(2))).label == "hdn_s[1,2]"
    for value in ("1", None, [1.0]):
        message = re.escape(f"step_size must be a number, got {value!r}")
        with pytest.raises(ParameterError, match=message):
            FitConfig("ssi", step_size=value)
    # an inf step is a number: fit_depth reports it diverged
    assert FitConfig("ssi", step_size=np.inf).step_size == np.inf
    assert FitConfig("ssi", seed=10**400).seed == 10**400  # any integer


@pytest.mark.parametrize("value", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
@pytest.mark.parametrize("name", ["background_depth", "base_depth", "ridge_amplitude",
                                  "ridge_period", "noise_sigma", "step_size"])
def test_number_past_float_range_is_a_parameter_error(name, value):
    # a real number that float() cannot take; the message names the field
    # without the 400-digit value
    make = (lambda **kw: FitConfig("ssi", **kw)) if name == "step_size" else small_fixture
    with pytest.raises(ParameterError, match=f"^{name} is past float range$"):
        make(**{name: value})


def test_compare_losses_needs_a_config():
    with pytest.raises(ParameterError, match="needs at least one config"):
        compare_losses(small_fixture(), [])


def test_loss_config_unknown_kind():
    with pytest.raises(ParameterError, match="unknown loss kind"):
        loss_config(generate_scene(small_fixture()), "nope")
    with pytest.raises(ParameterError, match="unknown loss kind"):
        loss_config(generate_scene(small_fixture()), ["ssi"])


def test_fit_at_gt_is_fixed_point(monkeypatch):
    spec = small_fixture()
    cfg = FitConfig("hdn_dr", (1, 2), steps=5, step_size=10.0)
    monkeypatch.setattr("hdnorm.harness._initial_prediction",
                        lambda g, c: np.array(g.values))
    fitted, report = fit_depth(spec, cfg)
    assert max(report.loss_trajectory) < 1e-12
    assert np.allclose(fitted.values, generate_scene(spec).values)


def _start_uniform_over_gt_range(monkeypatch):
    """Start fits far from gt: uniform noise over gt's valid range, drawn
    from cfg.seed."""
    def uniform(gt, cfg):
        vals = gt.values[gt.valid]
        return np.random.default_rng(cfg.seed).uniform(
            float(vals.min()), float(vals.max()), gt.values.shape)
    monkeypatch.setattr("hdnorm.harness._initial_prediction", uniform)


def test_fit_trajectory_monotone_and_finite(monkeypatch):
    _start_uniform_over_gt_range(monkeypatch)
    cfg = FitConfig("ssi", (1,), steps=30, step_size=50.0, seed=1)
    _, report = fit_depth(small_fixture(), cfg)
    traj = np.array(report.loss_trajectory)
    assert len(traj) == 31
    assert np.isfinite(traj).all()
    assert (np.diff(traj) <= 1e-15).all()


def test_fit_with_overflowing_step_size_is_clean(monkeypatch):
    # the first step multiplies pred by ~1e305; the fit must return
    # finite results without a floating-point warning
    _start_uniform_over_gt_range(monkeypatch)
    cfg = FitConfig("hdn_dr", (1, 2, 4), step_size=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, report = fit_depth(standard_fixture(), cfg)
    traj = np.array(report.loss_trajectory)
    assert np.isfinite(traj).all() and (np.diff(traj) <= 0).all()
    assert traj[-1] < traj[0]
    assert np.isfinite([report.global_absrel, report.foreground_local_absrel]).all()


def test_fit_rejects_non_finite_candidates(monkeypatch):
    # on a 2x4 map with a 1e-3 depth range the first candidates overflow
    # to inf and must be halved away, not raise from DepthMap; only
    # DepthMap rejects candidates here (the loss evaluates every finite
    # one, even near the float limit), with no overflow warning (the
    # suite turns RuntimeWarning into an error)
    _start_uniform_over_gt_range(monkeypatch)
    gt = DepthMap(np.array([[1.0, 1.001, 1.0004, 1.0007],
                            [1.0002, 1.0009, 1.0001, 1.0005]]))
    spec = small_fixture(height=2, width=4, fg_top=0, fg_bottom=2,
                         fg_left=0, fg_right=4)
    monkeypatch.setattr(harness, "generate_scene", lambda _: gt)
    cfg = FitConfig("hdn_dr", (1, 2), step_size=1e308, steps=3)
    fitted, report = fit_depth(spec, cfg)
    assert np.isfinite(fitted.values).all()
    assert np.abs(fitted.values).max() > 1e300  # it did run near the limit
    assert np.isfinite(report.loss_trajectory).all()


def test_fit_stays_put_when_no_halving_lowers_the_loss():
    # at step 1e250 every one of the 60 halvings leaves a finite candidate
    # (the loss is scale-free) whose loss is higher, so each step keeps
    # the start: a flat trajectory, not a divergence
    spec, cfg = standard_fixture(), FitConfig("ssi", steps=3, step_size=1e250)
    fitted, report = fit_depth(spec, cfg)
    start = harness._initial_prediction(generate_scene(spec), cfg)
    assert report.loss_trajectory == [report.loss_trajectory[0]] * 4
    assert np.array_equal(fitted.values, start)


def test_fit_diverges_when_every_backtrack_is_non_finite():
    cfg = FitConfig("hdn_dr", (1, 2), steps=5, step_size=float("inf"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError) as info:
            fit_depth(small_fixture(), cfg)
    assert info.value.step == 0


def _loss_failing_on(monkeypatch, fails):
    """Make harness.hdn_loss raise InvalidMapError on each call n (from 1)
    for which fails(n) holds; the returned list counts the calls."""
    calls = []

    def loss(*args, **kw):
        calls.append(None)
        if fails(len(calls)):
            raise InvalidMapError("unevaluable")
        return hdn_loss(*args, **kw)

    monkeypatch.setattr(harness, "hdn_loss", loss)
    return calls


def test_fit_diverges_at_the_first_step_with_no_evaluable_candidate(monkeypatch):
    # at step 1e250 every candidate the loss evaluates is higher (see
    # test_fit_stays_put_when_no_halving_lowers_the_loss). Call 1 is the
    # start; step 0 evaluates calls 2 and 3 and stays put, and step 1's
    # 60 candidates (calls 62-121) all raise
    calls = _loss_failing_on(monkeypatch, lambda n: n >= 4)
    with pytest.raises(DivergenceError) as info:
        fit_depth(standard_fixture(), FitConfig("ssi", steps=3, step_size=1e250))
    assert info.value.step == 1
    assert len(calls) == 121


def test_fit_stays_put_when_some_candidates_raise(monkeypatch):
    # every even call raises, every odd one is evaluated and higher: no
    # step moves and none diverges
    calls = _loss_failing_on(monkeypatch, lambda n: n % 2 == 0)
    _, report = fit_depth(standard_fixture(), FitConfig("ssi", steps=3, step_size=1e250))
    assert report.loss_trajectory == [0.42768519874061584] * 4
    assert len(calls) == 1 + 3 * 60


def test_fitted_loss_affine_free():
    spec = small_fixture()
    cfg = FitConfig("hdn_dr", (1, 2), steps=10, step_size=50.0, seed=2)
    fitted, _ = fit_depth(spec, cfg)
    gt = generate_scene(spec)
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
    # the CSV header is the row keys, and every number is printed to 9 digits
    keys = ["label", "final_loss", "global_absrel", "global_absrel_change_pct",
            "foreground_local_absrel", "foreground_local_absrel_change_pct"]
    lines = rows_to_csv(rows).splitlines()
    assert lines[0] == ",".join(keys)
    assert len(lines) == 3
    for line, row in zip(lines[1:], rows):
        assert sorted(row) == sorted(keys)
        assert line.split(",") == [row["label"]] + [f"{row[k]:.9g}" for k in keys[1:]]


def test_compare_deterministic():
    spec = small_fixture()
    cfgs = [FitConfig("ssi", (1,), steps=8, step_size=50.0),
            FitConfig("hdn_dp", (1, 2), steps=8, step_size=50.0)]
    assert compare_losses(spec, cfgs) == compare_losses(spec, cfgs)


def _fit_pids(monkeypatch, path, name="fit_depth"):
    """Make every fit (every call of harness.<name>) append "start <pid>"
    to path when it begins and "done <pid>" when it returns; forked
    workers inherit the patch. The returned reader gives the set of pids
    logged with one event."""
    fit = getattr(harness, name)

    def logged(*args, **kw):
        with open(path, "a") as f:
            f.write(f"start {os.getpid()}\n")
        result = fit(*args, **kw)
        with open(path, "a") as f:
            f.write(f"done {os.getpid()}\n")
        return result

    monkeypatch.setattr(harness, name, logged)
    return lambda event="start": _logged_pids(path, event)


def _logged_pids(path, event="start"):
    lines = Path(path).read_text().splitlines() if Path(path).exists() else []
    return {int(pid) for e, pid in map(str.split, lines) if e == event}


def test_compare_pool_rows_equal_serial_rows(monkeypatch, tmp_path):
    spec = small_fixture()
    cfgs = [FitConfig("ssi", (1,), steps=8, step_size=50.0),
            FitConfig("hdn_s", (1, 2), steps=8, step_size=50.0),
            FitConfig("hdn_dr", (1, 2), steps=8, step_size=50.0)]
    # a job carries its spec: the scene is made where the fit runs, in
    # the workers on the pool path and in this process on the serial one
    pids = _fit_pids(monkeypatch, tmp_path / "pool")
    scene_pids = _fit_pids(monkeypatch, tmp_path / "pool_scene", "generate_scene")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pooled = compare_losses(spec, cfgs)
    assert pids() and os.getpid() not in pids()
    assert scene_pids() == pids()
    pids = _fit_pids(monkeypatch, tmp_path / "serial")
    scene_pids = _fit_pids(monkeypatch, tmp_path / "serial_scene", "generate_scene")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = compare_losses(spec, cfgs)
    assert pids() == scene_pids() == {os.getpid()}
    assert pooled == serial


def test_compare_divergence_raised_through_pool(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfgs = [FitConfig("ssi", (1,), steps=8, step_size=50.0),
            FitConfig("hdn_dr", (1, 2), steps=8, step_size=float("inf"))]
    with pytest.raises(DivergenceError) as info:
        compare_losses(small_fixture(), cfgs)
    assert info.value.step == 0
    assert str(info.value) == "no step size gave an evaluable prediction at step 0"


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
    common = dict(steps=300, step_size=100.0, seed=7)
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

    def dying(spec, cfg):
        if cfg.loss_kind == "ssi":
            os.kill(os.getpid(), signal.SIGKILL)
        return fit(spec, cfg)

    monkeypatch.setattr(harness, "fit_depth", dying)
    cfgs = [FitConfig("hdn_s", (1, 2), steps=8), FitConfig("ssi", (1,), steps=8)]
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            compare_losses(small_fixture(), cfgs)
    finally:
        signal.alarm(0)
    assert multiprocessing.active_children() == []


def _exited(pid) -> bool:
    """pid is gone, or is a zombie that nothing has reaped yet."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads process states from /proc")
def test_compare_workers_exit_with_terminated_parent(tmp_path):
    # a process killed by SIGTERM mid-compare leaves no fit running
    log = tmp_path / "log"
    src = str(Path(harness.__file__).resolve().parent.parent)
    code = "\n".join([
        "import os, sys, pytest",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "from conftest import small_fixture",
        "from test_harness import _fit_pids",
        "from hdnorm import FitConfig, compare_losses",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        f"_fit_pids(pytest.MonkeyPatch(), {str(log)!r})",
        "compare_losses(small_fixture(), 2 * [FitConfig('hdn_s', (1, 2), steps=10**6)])",
    ])
    proc = subprocess.Popen([sys.executable, "-c", code],
                            env=dict(os.environ, PYTHONPATH=src))
    try:
        deadline = time.monotonic() + 60
        while (len(_logged_pids(log)) < 2 and proc.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.05)
    finally:
        proc.terminate()
        proc.wait(30)
    workers = _logged_pids(log)
    assert len(workers) == 2
    deadline = time.monotonic() + 10
    while not all(map(_exited, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if not _exited(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []


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
    assert str(DivergenceError(3)) == "no step size gave an evaluable prediction at step 3"


def test_scene_spec_defaults_are_the_standard_fixture():
    # the scene flags' defaults, and the benchmark's fixture, read these
    assert SceneSpec() == standard_fixture()
    assert dataclasses.asdict(SceneSpec()) == dict(
        height=64, width=64, background_depth=10.0,
        fg_top=16, fg_bottom=48, fg_left=16, fg_right=48,
        base_depth=1.0, ridge_amplitude=0.2, ridge_period=8.0,
        noise_sigma=0.0, seed=7)
    assert SceneSpec(noise_sigma=0.1).seed == 7


def test_standard_fixture_shape():
    spec = standard_fixture()
    assert (spec.height, spec.width) == (64, 64)
    assert spec.background_depth / (spec.base_depth + spec.ridge_amplitude) > 8


def test_ab_experiment_matches_readme_table(capsys):
    # the README's A/B command, run as documented, prints its table
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    experiments = readme.index("## Experiments")
    command = readme.index("hdnorm compare", experiments)
    argv = shlex.split(readme[command:readme.index("\n", command)])[1:]
    start = readme.index("```\n", readme.index("Output (", command)) + 4
    table = readme[start:readme.index("```", start)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == table
