import numpy as np
import pytest

from hdnorm import (
    DepthMap,
    LevelSpec,
    LossConfig,
    batch_ssi_loss,
    build_hierarchy,
    hdn_loss,
    l1_plus_hdn,
    local_only_loss,
    ssi_loss,
)
from hdnorm.errors import (
    DegenerateInputError,
    EmptyInputError,
    ParameterError,
    ShapeMismatchError,
)

from conftest import random_pair
from oracles import ref_hdn_gradient, ref_hdn_loss, ref_ssi_loss


def global_cfg(gt, **kw):
    return LossConfig(build_hierarchy(gt, LevelSpec("spatial", (1,))), **kw)


def test_ssi_zero_for_identical():
    gt = DepthMap(np.array([[1.0, 2.0], [4.0, 3.0]]))
    assert ssi_loss(gt, gt).value == 0


def test_ssi_zero_for_affine():
    gt = DepthMap(np.array([[1.0, 2.0], [4.0, 3.0]]))
    pred = DepthMap(2 * gt.values + 3)
    assert ssi_loss(pred, gt).value == pytest.approx(0, abs=1e-12)


def test_ssi_matches_hand_oracle():
    pred = DepthMap(np.array([[1.0, 2.0, 3.0, 4.0]]))
    gt = DepthMap(np.array([[1.0, 2.0, 4.0, 3.0]]))
    expect = ref_ssi_loss(pred.values.tolist(), gt.values.tolist(),
                          pred.valid.tolist(), gt.valid.tolist(), 1, 4)
    assert ssi_loss(pred, gt).value == pytest.approx(expect, abs=1e-12)


def test_ssi_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        ssi_loss(DepthMap(np.ones((1, 2))), DepthMap(np.ones((2, 1))))


def test_ssi_empty_joint_mask():
    a = DepthMap(np.ones((1, 2)), np.array([[True, False]]))
    b = DepthMap(np.ones((1, 2)), np.array([[False, True]]))
    with pytest.raises(EmptyInputError):
        ssi_loss(a, b)


def test_hdn_single_global_level_equals_ssi(rng):
    for _ in range(25):
        pred, gt = random_pair(rng, 5, 6, mask_prob=0.2)
        cfg = global_cfg(gt)
        assert hdn_loss(pred, gt, cfg).value == pytest.approx(
            ssi_loss(pred, gt).value, abs=1e-12)


@pytest.mark.parametrize("kind,sizes", [
    ("spatial", (1, 2, 4, 8)),
    ("depth_percentile", (1, 2, 4)),
    ("depth_range", (1, 2, 4)),
])
def test_hdn_affine_invariance(rng, kind, sizes):
    pred, gt = random_pair(rng, 8, 8)
    cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
    base = hdn_loss(pred, gt, cfg).value
    for a in (0.5, 2, 10):
        for b in (-5, 0, 3):
            shifted = DepthMap(a * pred.values + b, pred.valid)
            assert hdn_loss(shifted, gt, cfg).value == pytest.approx(
                base, abs=1e-9)


def test_hdn_zero_at_affine_prediction(rng):
    _, gt = random_pair(rng, 6, 6)
    pred = DepthMap(3 * gt.values + 1, gt.valid)
    for kind, sizes in [("spatial", (1, 2, 4)), ("depth_range", (1, 2, 4))]:
        cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
        assert hdn_loss(pred, gt, cfg).value == pytest.approx(0, abs=1e-12)


def test_hdn_1x8_dr_matches_brute_force():
    pred = DepthMap(np.array([[2.0, 1.0, 5.0, 4.0, 9.0, 7.0, 3.0, 8.0]]))
    gt = DepthMap(np.array([[1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0]]))
    expect = ref_hdn_loss(pred.values.tolist(), gt.values.tolist(),
                          pred.valid.tolist(), gt.valid.tolist(), 1, 8,
                          "depth_range", (1, 2))
    cfg = LossConfig(build_hierarchy(gt, LevelSpec("depth_range", (1, 2))))
    assert hdn_loss(pred, gt, cfg).value == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("kind", ["spatial", "depth_percentile", "depth_range"])
def test_hdn_matches_brute_force_randomized(rng, kind):
    # every other trial rounds both maps to halves, so pred ties at the
    # median ranks and gt contexts go degenerate
    sizes = (1, 2, 4)
    for trial in range(30):
        h, w = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        pred, gt = random_pair(rng, h, w, mask_prob=0.2)
        if trial % 2:
            pred = DepthMap(np.round(2 * pred.values) / 2, pred.valid)
            gt = DepthMap(np.round(2 * gt.values) / 2, gt.valid)
        cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
        args = (pred.values.tolist(), gt.values.tolist(), pred.valid.tolist(),
                gt.valid.tolist(), h, w, kind, sizes)
        expect = ref_hdn_loss(*args)
        if expect is None:
            with pytest.raises(DegenerateInputError):
                hdn_loss(pred, gt, cfg)
        else:
            report = hdn_loss(pred, gt, cfg, with_gradient=True)
            assert report.value == pytest.approx(expect, abs=1e-12)
            assert report.value >= 0
            grad = np.array(ref_hdn_gradient(*args))
            scale = max(np.abs(grad).max(), 1e-6)
            assert np.abs(report.gradient - grad).max() <= 1e-9 * scale


def test_hdn_per_level_breakdown(rng):
    pred, gt = random_pair(rng, 6, 6)
    cfg = LossConfig(build_hierarchy(gt, LevelSpec("depth_range", (1, 2, 4))))
    report = hdn_loss(pred, gt, cfg)
    assert [tag for tag, _ in report.per_level] == [
        "depth_range-1", "depth_range-2", "depth_range-4"]
    assert all(v >= 0 for _, v in report.per_level)


def test_min_context_validation(rng):
    _, gt = random_pair(rng, 2, 2)
    with pytest.raises(ParameterError):
        global_cfg(gt, min_context=1)


def test_local_only_spatial_s1_equals_ssi(rng):
    pred, gt = random_pair(rng, 4, 5)
    assert local_only_loss(pred, gt, "spatial", 1).value == pytest.approx(
        ssi_loss(pred, gt).value, abs=1e-12)


def test_local_only_singleton_bins_degenerate(rng):
    pred, gt = random_pair(rng, 2, 3)
    with pytest.raises(DegenerateInputError):
        local_only_loss(pred, gt, "depth_percentile", 6)


def test_local_only_dr_matches_oracle():
    pred = DepthMap(np.array([[2.0, 1.0, 5.0, 4.0, 9.0, 7.0, 3.0, 8.0]]))
    gt = DepthMap(np.array([[1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0]]))
    expect = ref_hdn_loss(pred.values.tolist(), gt.values.tolist(),
                          pred.valid.tolist(), gt.valid.tolist(), 1, 8,
                          "depth_range", (2,))
    assert local_only_loss(pred, gt, "depth_range", 2).value == pytest.approx(
        expect, abs=1e-12)


def test_batch_singleton_equals_ssi(rng):
    pred, gt = random_pair(rng, 3, 4)
    assert batch_ssi_loss([pred], [gt]).value == pytest.approx(
        ssi_loss(pred, gt).value, abs=1e-12)


def test_batch_duplicated_pair_equals_single(rng):
    pred, gt = random_pair(rng, 3, 4)
    assert batch_ssi_loss([pred, pred], [gt, gt]).value == pytest.approx(
        ssi_loss(pred, gt).value, abs=1e-12)


def test_batch_mismatched_affine_factors_fail_mode():
    # per-instance SSI is exactly zero, batch normalization is not
    gt1 = DepthMap(np.array([[1.0, 2.0]]))
    gt2 = DepthMap(np.array([[1.0, 2.0]]))
    pred1 = DepthMap(1.0 * gt1.values)
    pred2 = DepthMap(10.0 * gt2.values)
    assert ssi_loss(pred1, gt1).value == pytest.approx(0, abs=1e-12)
    assert ssi_loss(pred2, gt2).value == pytest.approx(0, abs=1e-12)
    assert batch_ssi_loss([pred1, pred2], [gt1, gt2]).value > 0.1


def test_l1_lambda_zero_is_plain_l1(rng):
    pred, gt = random_pair(rng, 4, 4)
    cfg = global_cfg(gt)
    joint = pred.valid & gt.valid
    l1 = np.mean(np.abs(pred.values[joint] - gt.values[joint]))
    assert l1_plus_hdn(pred, gt, cfg, 0.0).value == pytest.approx(l1, abs=1e-12)


def test_l1_plus_hdn_composition(rng):
    pred, gt = random_pair(rng, 1, 4)
    cfg = LossConfig(build_hierarchy(gt, LevelSpec("depth_range", (1, 2))))
    joint = pred.valid & gt.valid
    l1 = np.mean(np.abs(pred.values[joint] - gt.values[joint]))
    hdn = hdn_loss(pred, gt, cfg).value
    assert l1_plus_hdn(pred, gt, cfg, 1.0).value == pytest.approx(
        l1 + hdn, abs=1e-12)


def test_l1_zero_at_exact_prediction(rng):
    _, gt = random_pair(rng, 3, 3)
    cfg = global_cfg(gt)
    assert l1_plus_hdn(gt, gt, cfg, 1.0).value == pytest.approx(0, abs=1e-12)


def test_l1_negative_lambda_rejected(rng):
    pred, gt = random_pair(rng, 2, 2)
    with pytest.raises(ParameterError):
        l1_plus_hdn(pred, gt, global_cfg(gt), -1.0)


def test_permutation_equivariance(rng):
    # relabeling pixels consistently leaves DP/DR losses unchanged
    pred, gt = random_pair(rng, 1, 12)
    perm = rng.permutation(12)
    pred_p = DepthMap(pred.values[:, perm], pred.valid[:, perm])
    gt_p = DepthMap(gt.values[:, perm], gt.valid[:, perm])
    for kind in ("depth_percentile", "depth_range"):
        cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, (1, 2, 4))))
        cfg_p = LossConfig(build_hierarchy(gt_p, LevelSpec(kind, (1, 2, 4))))
        assert hdn_loss(pred_p, gt_p, cfg_p).value == pytest.approx(
            hdn_loss(pred, gt, cfg).value, abs=1e-12)


def test_fine_level_amplifies_local_noise():
    # on the harness fixture, noise confined to one DR bin raises the
    # fine-level contribution at least as much as the global one
    from hdnorm import generate_scene, standard_fixture

    spec = standard_fixture()
    gt = generate_scene(spec)
    cfg = LossConfig(build_hierarchy(gt, LevelSpec("depth_range", (1, 4))))
    fg = np.zeros(gt.values.shape, dtype=bool)
    fg[spec.fg_top:spec.fg_bottom, spec.fg_left:spec.fg_right] = True
    noise = np.where(fg, np.random.default_rng(0).normal(0, 0.05, fg.shape), 0.0)
    clean = hdn_loss(DepthMap(gt.values), gt, cfg)
    noisy = hdn_loss(DepthMap(gt.values + noise), gt, cfg)
    deltas = {tag: after - before
              for (tag, before), (_, after) in zip(clean.per_level, noisy.per_level)}
    assert deltas["depth_range-4"] >= deltas["depth_range-1"]


def test_hierarchy_memberships_cover_each_level(rng):
    _, gt = random_pair(rng, 4, 4)
    hier = build_hierarchy(gt, LevelSpec("depth_range", (1, 2)))
    per_pixel = hier.memberships()
    for i in np.flatnonzero(gt.valid.ravel()):
        levels = [li for li, _ in per_pixel[i]]
        assert levels == [0, 1]


def test_reused_config_matches_fresh_config(rng):
    # the plan a LossConfig remembers must follow a new gt object and a
    # new joint mask
    pred, gt = random_pair(rng, 6, 7, mask_prob=0.2)
    hier = build_hierarchy(gt, LevelSpec("depth_range", (1, 2, 4)))
    cfg = LossConfig(hier)
    hdn_loss(pred, gt, cfg, with_gradient=True)
    gt2 = DepthMap(gt.values ** 2, gt.valid)
    other = pred.valid.copy()
    other.flat[np.flatnonzero(other)[:3]] = False
    pred2 = DepthMap(pred.values, other)
    for p, g in [(pred, gt2), (pred2, gt2), (pred, gt)]:
        got = hdn_loss(p, g, cfg, with_gradient=True)
        want = hdn_loss(p, g, LossConfig(hier), with_gradient=True)
        assert got.value == want.value
        assert got.per_level == want.per_level
        assert got.used_pixels == want.used_pixels
        assert np.array_equal(got.gradient, want.gradient)


def test_used_pixels_counts_joint_mask(rng):
    pred, gt = random_pair(rng, 5, 5, mask_prob=0.3)
    cfg = global_cfg(gt)
    assert hdn_loss(pred, gt, cfg).used_pixels == int(
        (pred.valid & gt.valid).sum())
