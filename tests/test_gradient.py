import numpy as np
import pytest

from hdnorm import (
    DepthMap,
    LevelSpec,
    LossConfig,
    build_hierarchy,
    hdn_loss,
    l1_plus_hdn,
    numerical_gradient,
    tie_mask,
)

from conftest import random_pair

KIND_SIZES = [
    ("spatial", (1,)),  # SSI special case
    ("spatial", (1, 2, 4)),
    ("depth_percentile", (1, 2, 4)),
    ("depth_range", (1, 2, 4)),
]


def analytic_gradient(pred, gt, cfg):
    return hdn_loss(pred, gt, cfg, with_gradient=True).gradient


def rel_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return np.abs(analytic - numeric) / denom


@pytest.mark.parametrize("kind,sizes", KIND_SIZES)
def test_gradient_matches_finite_differences(rng, kind, sizes):
    checked = 0
    for _ in range(8):
        pred, gt = random_pair(rng, 5, 5, mask_prob=0.1)
        cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
        analytic = analytic_gradient(pred, gt, cfg)
        numeric = numerical_gradient(pred, gt, cfg, step=1e-5)
        keep = (pred.valid & gt.valid) & ~tie_mask(pred, gt, cfg)
        if keep.any():
            assert rel_error(analytic, numeric)[keep].max() < 1e-4
            checked += int(keep.sum())
    assert checked > 50


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
    keep = ~tie_mask(pred, gt, cfg)
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
