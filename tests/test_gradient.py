import dataclasses

import numpy as np
import pytest

from hdnorm import (
    DepthMap,
    LevelSpec,
    LossConfig,
    build_hierarchy,
    generate_scene,
    hdn_loss,
    l1_plus_hdn,
    loss_config,
    numerical_gradient,
    read_pfm,
    standard_fixture,
    write_pfm,
)
from hdnorm import loss
from hdnorm.errors import InvalidMapError

from conftest import README_CONFIGS, near_median_pair, random_pair

KIND_SIZES = [
    ("spatial", (1,)),  # SSI special case
    ("spatial", (1, 2, 4)),
    ("depth_percentile", (1, 2, 4)),
    ("depth_range", (1, 2, 4)),
]


def analytic_gradient(pred, gt, cfg):
    return hdn_loss(pred, gt, cfg, with_gradient=True).gradient


def rel_error(analytic, numeric):
    """grad-check's error: relative to the larger value, floored at 1e-6
    of the largest one over the pixels compared (those where numeric is
    not NaN)."""
    size = np.maximum(np.abs(analytic), np.abs(numeric))
    return np.abs(analytic - numeric) / np.maximum(size, 1e-6 * np.nanmax(size))


def bump(pred, used):
    """numerical_gradient's step: GRAD_STEP times the smallest power of
    two above every |pred| at the used pixels."""
    return loss.GRAD_STEP * 2.0 ** np.frexp(np.abs(pred.values.flat[used]).max())[1]


@pytest.mark.parametrize("kind,sizes", KIND_SIZES)
def test_gradient_matches_finite_differences(rng, kind, sizes):
    checked = 0
    for _ in range(8):
        pred, gt = random_pair(rng, 5, 5, mask_prob=0.1)
        cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
        analytic = analytic_gradient(pred, gt, cfg)
        numeric = numerical_gradient(pred, gt, cfg)
        keep = ~np.isnan(numeric)
        if keep.any():
            assert rel_error(analytic, numeric)[keep].max() < 1e-4
            checked += int(keep.sum())
    assert checked > 50


def test_numerical_gradient_near_a_median(monkeypatch):
    # a pixel 5e-4 from its context's median kink: the fixed step (16 x
    # GRAD_STEP, as pred is below 16) checks every pixel and agrees with
    # the analytical gradient. A step past that distance straddles the
    # kink at the planted pixel and at the median's own: their forward and
    # backward differences disagree, so both are skipped, and every other
    # pixel still agrees
    pred, gt = near_median_pair()
    cfg = loss_config(gt, "ssi", (1,))
    assert bump(pred, np.arange(25)) == 16 * loss.GRAD_STEP < 5e-4
    analytic = analytic_gradient(pred, gt, cfg)
    numeric = numerical_gradient(pred, gt, cfg)
    assert not np.isnan(numeric).any()
    assert rel_error(analytic, numeric).max() < loss.GRAD_TOLERANCE
    monkeypatch.setattr(loss, "GRAD_STEP", 1e-3 / 16)
    numeric = numerical_gradient(pred, gt, cfg)
    straddled = np.abs(pred.values - np.median(pred.values)) < 1e-3
    assert straddled.sum() == 2
    assert np.array_equal(np.isnan(numeric), straddled)
    assert rel_error(analytic, numeric)[~straddled].max() < loss.GRAD_TOLERANCE


def _count_loss_calls(monkeypatch, value_at=None):
    """Wrap the hdn_loss that numerical_gradient calls; returns the list
    it appends one entry to per call. value_at = (n, value) makes call n
    (from 1) report that value instead."""
    calls, real = [], loss.hdn_loss

    def counted(*args, **kwargs):
        calls.append(None)
        report = real(*args, **kwargs)
        if value_at is not None and len(calls) == value_at[0]:
            report = dataclasses.replace(report, value=value_at[1])
        return report

    monkeypatch.setattr(loss, "hdn_loss", counted)
    return calls


def _agreeing_differences(pred, gt, cfg, used):
    """Whether the forward and backward differences of hdn_loss agree at
    each used flat pixel: apart by at most GRAD_TOLERANCE of the larger
    one, floored at 1e-6 of the largest over the used pixels."""
    values, h = pred.values.copy(), bump(pred, used)
    at = hdn_loss(pred, gt, cfg).value
    sides = np.empty((2, used.size))
    for k, i in enumerate(used):
        for side, x in enumerate((pred.values.flat[i] + h, pred.values.flat[i] - h)):
            values.flat[i] = x
            sides[side, k] = hdn_loss(DepthMap(values, pred.valid), gt, cfg).value
        values.flat[i] = pred.values.flat[i]
    fwd, bwd = (sides[0] - at) / h, (at - sides[1]) / h
    size = np.maximum(np.abs(fwd), np.abs(bwd))
    return np.abs(fwd - bwd) <= loss.GRAD_TOLERANCE * np.maximum(size, 1e-6 * size.max())


def test_numerical_gradient_differences_only_checked_pixels(rng, monkeypatch):
    # NaN exactly outside joint & used & agreeing differences, one loss
    # call for the base value and two per used pixel. The last gt is
    # constant over its right half, a depth_range context the filter
    # drops: joint-valid, never differenced.
    calls = _count_loss_calls(monkeypatch)
    cases = [(random_pair(rng, 5, 5, mask_prob=0.1), kind, sizes)
             for kind, sizes in KIND_SIZES for _ in range(8)]
    pred, gt = random_pair(rng, 4, 6)
    gt = DepthMap(np.where(np.arange(6) < 3, gt.values, 20.0))
    cases.append(((pred, gt), "depth_range", (2,)))
    for (pred, gt), kind, sizes in cases:
        cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
        start = len(calls)
        numeric = numerical_gradient(pred, gt, cfg)
        joint = pred.valid & gt.valid
        used = np.zeros(joint.size, dtype=bool)
        used[loss._plan_for(cfg, gt, joint).used] = True
        assert len(calls) - start == 1 + 2 * used.sum()
        agree = np.zeros(joint.size, dtype=bool)
        agree[used] = _agreeing_differences(pred, gt, cfg, np.flatnonzero(used))
        checked = joint & used.reshape(joint.shape) & agree.reshape(joint.shape)
        assert np.array_equal(~np.isnan(numeric), checked)
    assert (joint.sum(), used.sum(), checked.sum()) == (24, 12, 12)


@pytest.mark.parametrize("kind,levels", README_CONFIGS,
    ids=["ssi", "hdn_s:1,2,4,8", "hdn_dp:1,2,4", "hdn_dr:1,2,4", "hdn_dr:4"])
def test_numerical_gradient_cost_on_readme_pair(tmp_path, monkeypatch, kind, levels):
    # the README's A/B configs, the synth gt against synth --noise-sigma
    # 0.1: one loss evaluation for the base value and two per used pixel.
    # Almost every used pixel is checked and agrees with the analytical
    # gradient (the 3,072 background pixels of hdn_dr{4} are in no
    # surviving context, so not used)
    spec = standard_fixture()
    for name, scene in (("gt", spec), ("pred", dataclasses.replace(spec, noise_sigma=0.1))):
        write_pfm(generate_scene(scene), tmp_path / f"{name}.pfm")
    gt, pred = read_pfm(tmp_path / "gt.pfm"), read_pfm(tmp_path / "pred.pfm")
    cfg = loss_config(gt, kind, levels)
    calls = _count_loss_calls(monkeypatch)
    numeric = numerical_gradient(pred, gt, cfg)
    assert len(calls) == 1 + 2 * cfg._memo[2].used.size
    checked = ~np.isnan(numeric)
    assert checked.sum() >= 1000
    analytic = analytic_gradient(pred, gt, cfg)
    assert rel_error(analytic, numeric)[checked].max() < loss.GRAD_TOLERANCE


@pytest.mark.parametrize("call", [1, 2, 5])  # base, first bump, a later pixel
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_numerical_gradient_raises_on_non_finite_difference(rng, monkeypatch,
                                                            call, value):
    # a non-finite loss at the base or at a bump raises; it never becomes
    # the NaN that marks an unchecked pixel
    pred, gt = random_pair(rng, 5, 5)
    cfg = LossConfig(build_hierarchy(gt, LevelSpec("spatial", (1, 2))))
    assert np.count_nonzero(~np.isnan(numerical_gradient(pred, gt, cfg))) >= 3
    _count_loss_calls(monkeypatch, value_at=(call, value))
    with pytest.raises(InvalidMapError, match="non-finite loss difference"):
        numerical_gradient(pred, gt, cfg)


def test_median_tie_goes_to_lowest_index():
    # pred [3, 0, 3, 2, 4]: the stable order is 0, 2, 3, 3, 4 with the
    # tied 3s at pixels 0 and 2, so the median rank goes to pixel 0:
    # e = [1, 0, 0, 0, 0]. With gt [1..5]: m = 3, dev = [0, -3, 0, -1, 1],
    # s = 1, ng = [-5/3, -5/6, 0, 5/6, 5/3], sign(res) = [1, -1, 0, -1, -1],
    # w = 1/5, A = -2/5, B = 3/5, dMAD = (sign(dev) + e) / 5. Then
    # grad = w sign(res) / s - e A / s - dMAD B / s^2.
    # Pixel 2 holding the rank would give [0.2, -0.08, 0.28, -0.08, -0.32].
    pred = DepthMap(np.array([[3.0, 0.0, 3.0, 2.0, 4.0]]))
    gt = DepthMap(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
    cfg = LossConfig(build_hierarchy(gt, LevelSpec("spatial", (1,))))
    grad = analytic_gradient(pred, gt, cfg)
    assert np.allclose(grad, [[0.48, -0.08, 0.0, -0.08, -0.32]], rtol=0, atol=1e-15)


def test_gradient_zero_at_affine_minimum(rng):
    _, gt = random_pair(rng, 6, 6)
    pred = DepthMap(2 * gt.values + 1, gt.valid)
    for kind, sizes in KIND_SIZES:
        cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
        grad = analytic_gradient(pred, gt, cfg)
        assert np.abs(grad).sum() < 1e-9


def test_gradient_zero_at_invalid_pixels(rng):
    pred, gt = random_pair(rng, 6, 6, mask_prob=0.4)
    cfg = LossConfig(build_hierarchy(gt, LevelSpec("depth_range", (1, 2))))
    grad = analytic_gradient(pred, gt, cfg)
    assert (grad[~(pred.valid & gt.valid)] == 0).all()


def test_gradient_shape_and_report_field(rng):
    pred, gt = random_pair(rng, 4, 7)
    cfg = LossConfig(build_hierarchy(gt, LevelSpec("spatial", (1, 2))))
    report = hdn_loss(pred, gt, cfg, with_gradient=True)
    assert report.gradient.shape == (4, 7)
    report_nograd = hdn_loss(pred, gt, cfg)
    assert report_nograd.gradient is None
    assert report_nograd.value == report.value


def test_l1_plus_hdn_gradient(rng):
    pred, gt = random_pair(rng, 5, 5)
    cfg = LossConfig(build_hierarchy(gt, LevelSpec("depth_range", (1, 2))))
    lam = 0.7
    analytic = l1_plus_hdn(pred, gt, cfg, lam, with_gradient=True).gradient

    step = 1e-5
    numeric = np.zeros_like(analytic)
    for r in range(5):
        for c in range(5):
            vals = np.array(pred.values)
            vals[r, c] += step
            up = l1_plus_hdn(DepthMap(vals, pred.valid), gt, cfg, lam).value
            vals[r, c] -= 2 * step
            dn = l1_plus_hdn(DepthMap(vals, pred.valid), gt, cfg, lam).value
            numeric[r, c] = (up - dn) / (2 * step)
    keep = ~np.isnan(numerical_gradient(pred, gt, cfg))
    # also avoid L1 kinks where pred is within the step of gt
    keep &= np.abs(pred.values - gt.values) > 1e-4
    assert keep.any()
    assert rel_error(analytic, numeric)[keep].max() < 1e-4


def test_gradient_descent_direction_reduces_loss(rng):
    pred, gt = random_pair(rng, 6, 6)
    cfg = LossConfig(build_hierarchy(gt, LevelSpec("depth_range", (1, 2, 4))))
    report = hdn_loss(pred, gt, cfg, with_gradient=True)
    stepped = DepthMap(pred.values - 1.0 * report.gradient, pred.valid)
    assert hdn_loss(stepped, gt, cfg).value < report.value


@pytest.mark.parametrize("kind,sizes", KIND_SIZES)
def test_numerical_gradient_is_scale_free(rng, kind, sizes):
    # the bump scales with pred by the same power of two, so pred x 2^k
    # has the same loss differences over steps 2^k times as large: the
    # same pixels are checked and each difference scales by exactly 2^-k
    for _ in range(4):
        pred, gt = random_pair(rng, 5, 5, mask_prob=0.1)
        cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
        numeric = numerical_gradient(pred, gt, cfg)
        assert (~np.isnan(numeric)).sum() >= 10
        for k in (-1000, -20, 20, 1000):
            scaled = DepthMap(np.ldexp(pred.values, k), pred.valid)
            assert np.array_equal(numerical_gradient(scaled, gt, cfg),
                                  np.ldexp(numeric, -k), equal_nan=True)


def test_numerical_gradient_at_subnormal_pred():
    # at 1e-320 the bump rounds to 0, so no pixel is differenced; at
    # 1e-310 it is a subnormal step, and the loss difference over it
    # overflows, as the gradient itself would
    rng = np.random.default_rng(0)
    gt = rng.uniform(1, 10, (6, 6))
    pred = gt + 0.1 * rng.standard_normal((6, 6))
    cfg = loss_config(DepthMap(gt), "hdn_s", (1, 2))
    numeric = numerical_gradient(DepthMap(pred * 1e-320), DepthMap(gt), cfg)
    assert np.isnan(numeric).all()
    with pytest.raises(InvalidMapError, match="non-finite loss difference quotient"):
        numerical_gradient(DepthMap(pred * 1e-310), DepthMap(gt), cfg)
