import warnings

import numpy as np
import pytest

from hdnorm import DepthMap, absrel, align_scale_shift, delta1, evaluate, scatter_sample
from hdnorm.errors import DegenerateAlignmentError, EmptyInputError, ParameterError
from hdnorm.metrics import scatter_csv

from conftest import random_pair


def test_align_identity(rng):
    _, gt = random_pair(rng, 4, 4)
    s, t = align_scale_shift(gt, gt)
    assert (s, t) == pytest.approx((1.0, 0.0), abs=1e-12)


def test_align_recovers_affine(rng):
    _, gt = random_pair(rng, 4, 4)
    pred = DepthMap((gt.values - 3) / 2, gt.valid)
    s, t = align_scale_shift(pred, gt)
    assert (s, t) == pytest.approx((2.0, 3.0), abs=1e-9)


def test_align_beats_grid_search(rng):
    pred, gt = random_pair(rng, 5, 5)
    s, t = align_scale_shift(pred, gt)

    def objective(a, b):
        d = pred.values[pred.valid]
        return float(np.sum((a * d + b - gt.values[gt.valid]) ** 2))

    best = objective(s, t)
    # grid around the solution at 1e-3 resolution never beats it
    for da in np.arange(-5e-3, 5.0001e-3, 1e-3):
        for db in np.arange(-5e-3, 5.0001e-3, 1e-3):
            assert objective(s + da, t + db) >= best - 1e-12


def test_align_constant_pred_degenerate():
    gt = DepthMap(np.arange(4.0).reshape(2, 2))
    for value in (3.0, 3e-300, 1e300):
        pred = DepthMap(np.full((2, 2), value))
        with pytest.raises(DegenerateAlignmentError):
            align_scale_shift(pred, gt)


@pytest.mark.parametrize("exp", [-60, 1000])
def test_align_is_scale_free(rng, exp):
    # a tiny pred is not constant, and one near the float limit must not
    # overflow the normal-equation sums
    pred, gt = random_pair(rng, 4, 4)
    s, t = align_scale_shift(pred, gt)
    scaled = DepthMap(np.ldexp(pred.values, exp), pred.valid)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        s2, t2 = align_scale_shift(scaled, gt)
        report = evaluate(scaled, gt)
    assert (s2, t2) == (np.ldexp(s, -exp), t)
    assert report.absrel == evaluate(pred, gt).absrel


def test_absrel_identity(rng):
    _, gt = random_pair(rng, 3, 3)
    assert absrel(gt, gt) == 0


def test_absrel_hand_fixture():
    pred = DepthMap(np.array([[1.0, 3.0]]))
    gt = DepthMap(np.array([[2.0, 2.0]]))
    assert absrel(pred, gt) == pytest.approx(0.5)


def test_absrel_scale_cancellation(rng):
    pred, gt = random_pair(rng, 3, 4)
    doubled = absrel(DepthMap(2 * pred.values, pred.valid),
                     DepthMap(2 * gt.values, gt.valid))
    assert doubled == pytest.approx(absrel(pred, gt), rel=1e-12)


def test_absrel_excludes_nonpositive_gt():
    pred = DepthMap(np.array([[1.0, 100.0]]))
    gt = DepthMap(np.array([[1.0, -5.0]]))
    assert absrel(pred, gt) == 0


def test_absrel_all_nonpositive_raises():
    pred = DepthMap(np.array([[1.0]]))
    gt = DepthMap(np.array([[-1.0]]))
    with pytest.raises(EmptyInputError):
        absrel(pred, gt)


def test_delta1_identity(rng):
    _, gt = random_pair(rng, 3, 3)
    assert delta1(gt, gt) == 1.0


def test_delta1_hand_fixture():
    pred = DepthMap(np.array([[1.0, 1.0]]))
    gt = DepthMap(np.array([[1.0, 2.0]]))
    assert delta1(pred, gt) == 0.5


def test_delta1_strict_boundary(rng):
    _, gt = random_pair(rng, 3, 3)
    pred = DepthMap(1.25 * gt.values, gt.valid)
    assert delta1(pred, gt) == 0.0


def test_delta1_symmetry(rng):
    pred, gt = random_pair(rng, 4, 4, lo=1.0, hi=5.0)
    assert delta1(pred, gt) == pytest.approx(delta1(gt, pred))


def test_delta1_negative_pred_fails():
    pred = DepthMap(np.array([[-1.0, 2.0]]))
    gt = DepthMap(np.array([[1.0, 2.0]]))
    assert delta1(pred, gt) == 0.5


def test_permutation_invariance(rng):
    pred, gt = random_pair(rng, 1, 10)
    perm = rng.permutation(10)
    pred_p = DepthMap(pred.values[:, perm])
    gt_p = DepthMap(gt.values[:, perm])
    assert absrel(pred_p, gt_p) == pytest.approx(absrel(pred, gt), rel=1e-12)
    assert delta1(pred_p, gt_p) == delta1(pred, gt)


def test_evaluate_alignment_absorbs_affine(rng):
    _, gt = random_pair(rng, 5, 5)
    pred = DepthMap(0.25 * gt.values - 2.0, gt.valid)
    report = evaluate(pred, gt, align=True)
    assert report.absrel == pytest.approx(0, abs=1e-9)
    assert report.delta1 == 1.0
    assert (report.scale, report.shift) == pytest.approx((4.0, 8.0), abs=1e-6)
    assert report.pixels == gt.valid_count


def test_scatter_all_pairs_when_n_large(rng):
    pred, gt = random_pair(rng, 2, 3)
    pairs = scatter_sample(pred, gt, 100, seed=0)
    assert pairs == [(float(p), float(g)) for p, g in
                     zip(pred.values.ravel(), gt.values.ravel())]


def test_scatter_deterministic(rng):
    pred, gt = random_pair(rng, 10, 10)
    a = scatter_sample(pred, gt, 20, seed=42)
    b = scatter_sample(pred, gt, 20, seed=42)
    assert a == b


def test_scatter_2000_distinct_from_100x100(rng):
    pred, gt = random_pair(rng, 100, 100)
    pairs = scatter_sample(pred, gt, 2000, seed=1)
    assert len(pairs) == 2000
    assert len(set(pairs)) == 2000


def test_scatter_rejects_negative_n_and_seed(rng):
    pred, gt = random_pair(rng, 4, 4)
    for n, seed in ((-5, 0), (3, -1)):
        with pytest.raises(ParameterError):
            scatter_sample(pred, gt, n, seed)


def test_scatter_csv_format():
    text = scatter_csv([(1.234567891234, 2.0)])
    lines = text.splitlines()
    assert lines[0] == "pred,gt"
    assert lines[1] == "1.23456789,2"
