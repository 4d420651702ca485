import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from hdnorm import (
    DepthMap,
    LevelSpec,
    LossConfig,
    SceneSpec,
    build_hierarchy,
    generate_scene,
    hdn_loss,
    l1_plus_hdn,
    loss_config,
    numerical_gradient,
    standard_fixture,
)
from hdnorm import loss
from hdnorm.errors import (
    DegenerateInputError,
    EmptyInputError,
    InvalidMapError,
    ParameterError,
    ShapeMismatchError,
)

from conftest import README_CONFIGS, batch_ssi, random_pair, small_fixture, ssi
from oracles import (
    ref_hdn_gradient,
    ref_hdn_loss,
    ref_mad,
    ref_median,
    ref_partition,
    ref_ssi_loss,
)


def global_cfg(gt):
    return LossConfig(build_hierarchy(gt, LevelSpec("spatial", (1,))))


def single_level_cfg(gt, kind, s):
    return LossConfig(build_hierarchy(gt, LevelSpec(kind, (s,))))


def test_ssi_zero_for_identical():
    gt = DepthMap(np.array([[1.0, 2.0], [4.0, 3.0]]))
    assert ssi(gt, gt).value == 0


def test_ssi_zero_for_affine():
    gt = DepthMap(np.array([[1.0, 2.0], [4.0, 3.0]]))
    pred = DepthMap(2 * gt.values + 3)
    assert ssi(pred, gt).value == pytest.approx(0, abs=1e-12)


def test_ssi_matches_hand_oracle():
    pred = DepthMap(np.array([[1.0, 2.0, 3.0, 4.0]]))
    gt = DepthMap(np.array([[1.0, 2.0, 4.0, 3.0]]))
    expect = ref_ssi_loss(pred.values.tolist(), gt.values.tolist(),
                          pred.valid.tolist(), gt.valid.tolist(), 1, 4)
    report = ssi(pred, gt)
    assert report.value == pytest.approx(expect, abs=1e-12)
    assert report.per_level == [("global", report.value)]


def test_ssi_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        ssi(DepthMap(np.ones((1, 2))), DepthMap(np.ones((2, 1))))


@pytest.mark.parametrize("kind", ["ssi", "hdn_s", "hdn_dp", "hdn_dr"])
def test_cfg_from_another_map_is_a_shape_mismatch(kind):
    # a hierarchy records the shape of its map. A larger map's contexts
    # index past a 16x16 gt; a smaller map's fall inside a 64x64 one,
    # whose noise keeps them from all being filtered out as flat
    small = generate_scene(small_fixture())
    large = generate_scene(SceneSpec(noise_sigma=0.1))
    for cfg_map, gt, message in [
            (large, small, "cfg was built from a 64x64 map, not the 16x16 gt"),
            (small, large, "cfg was built from a 16x16 map, not the 64x64 gt")]:
        cfg = loss_config(cfg_map, kind, (1, 2))
        for call in (lambda: hdn_loss(gt, gt, cfg, with_gradient=True),
                     lambda: numerical_gradient(gt, gt, cfg),
                     lambda: l1_plus_hdn(gt, gt, cfg, 1.0)):
            with pytest.raises(ShapeMismatchError, match=message):
                call()


def test_ssi_empty_joint_mask():
    a = DepthMap(np.ones((1, 2)), np.array([[True, False]]))
    b = DepthMap(np.ones((1, 2)), np.array([[False, True]]))
    with pytest.raises(EmptyInputError):
        ssi(a, b)


def test_hdn_single_global_level_equals_ssi(rng):
    for _ in range(25):
        pred, gt = random_pair(rng, 5, 6, mask_prob=0.2)
        expect = ref_ssi_loss(pred.values.tolist(), gt.values.tolist(),
                              pred.valid.tolist(), gt.valid.tolist(), 5, 6)
        assert hdn_loss(pred, gt, global_cfg(gt)).value == pytest.approx(
            expect, abs=1e-12)


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


def test_affine_invariance_at_every_scale():
    # a pred MAD divides unclamped, so a power-of-two scale, exact in
    # float, leaves the loss unchanged from 2^-900 to 2^500
    gt = generate_scene(standard_fixture())
    pred = gt.values + 0.1 * np.random.default_rng(0).standard_normal(gt.values.shape)
    cfg = loss_config(gt, "hdn_s", (1, 2, 4, 8))
    values = [hdn_loss(DepthMap(a * pred + 3 * a), gt, cfg).value
              for a in (1.0, 2.0**-20, 2.0**-40, 2.0**-900, 2.0**500)]
    assert values == [values[0]] * 5
    assert values[0] == pytest.approx(hdn_loss(DepthMap(pred), gt, cfg).value,
                                      rel=1e-12)


@pytest.mark.parametrize("kind,sizes", README_CONFIGS)
def test_gt_scale_invariance_at_every_scale(kind, sizes):
    # the filter keeps a context when its gt MAD is above 0, a rule with no
    # unit, and a power-of-two scale is exact in float: gt -> 2^k * gt, with
    # the hierarchy built from the scaled gt, changes no bit of the report
    gt = generate_scene(standard_fixture())
    pred = DepthMap(gt.values + 0.1 * np.random.default_rng(0).standard_normal(
        gt.values.shape))
    reports = []
    for k in (0, -1000, -20, 20, 1000, 1020):
        scaled = DepthMap(np.ldexp(gt.values, k))
        reports.append(hdn_loss(pred, scaled, loss_config(scaled, kind, sizes),
                                with_gradient=True))
    want = reports[0]
    for got in reports[1:]:
        assert (got.value, got.per_level, got.used_pixels) == (
            want.value, want.per_level, want.used_pixels)
        assert got.gradient.tobytes() == want.gradient.tobytes()


def _self_loss_maps():
    """The standard fixture, and a rounded 23x31 random map with ties and
    about 10% of its pixels invalid."""
    rng = np.random.default_rng(7)
    yield generate_scene(standard_fixture())
    yield DepthMap(np.round(rng.uniform(1, 6, (23, 31)), 1), rng.random((23, 31)) > 0.1)


@pytest.mark.parametrize("kind,sizes", README_CONFIGS)
def test_self_loss_is_zero_at_every_scale(kind, sizes):
    # gt and pred take each context's MAD by the same segment sum, and a
    # power-of-two scale is exact, so 2^k * gt normalizes to gt's own
    # normalized values: every residual is exactly 0
    for gt in _self_loss_maps():
        cfg = loss_config(gt, kind, sizes)
        for k in (0, -20, 7, 300, -900):
            report = hdn_loss(DepthMap(np.ldexp(gt.values, k), gt.valid), gt, cfg,
                              with_gradient=True)
            assert report.value == 0.0, k
            assert not report.gradient.any(), k


# the five context layouts of the VGA benchmark
DESK_LAYOUTS = [("spatial", (1,)), ("spatial", (1, 2, 4, 8)),
                ("spatial", (1, 2, 4, 8, 16, 32)),
                ("depth_percentile", (1, 2, 4)), ("depth_range", (1, 2, 4))]


def _desk_map(rng, h, w):
    """An h x w tilted plane with closer blobs, fine texture and 5% of its
    pixels invalid."""
    y, x = np.mgrid[0:h, 0:w] / np.array([h, w])[:, None, None]
    values = 4.0 + 8.0 * y + 2.5 * x + 0.02 * rng.standard_normal((h, w))
    for cy, cx, r, d in rng.uniform((0, 0, 0.05, 1), (1, 1, 0.2, 3), (6, 4)):
        values -= d * np.exp(-((y - cy) ** 2 + (x - cx) ** 2) / (2 * r * r))
    return DepthMap(values, rng.random((h, w)) > 0.05)


def test_self_loss_is_zero_on_a_vga_map():
    gt = _desk_map(np.random.default_rng(11), 480, 640)
    for kind, sizes in DESK_LAYOUTS:
        cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
        assert hdn_loss(gt, gt, cfg).value == 0.0, (kind, sizes)


def test_hdn_matches_brute_force_at_240x320():
    # about 73,000 joint-valid pixels per level: every layout but the
    # single-level one is past BLOCK_MEMBERS, so each level runs as a
    # block of its own, and contexts range from ~70 to ~73,000 members.
    # Rounded to multiples of 1/64, pred takes a few hundred values, so
    # median ranks tie
    rng = np.random.default_rng(12)
    gt = _desk_map(rng, 240, 320)
    pred = DepthMap(0.3 * gt.values + 1.5 + 0.05 * rng.standard_normal((240, 320)))
    rounded = [DepthMap(np.round(m.values * 64) / 64, m.valid) for m in (pred, gt)]
    for pred, gt in [(pred, gt), rounded]:
        for kind, sizes in DESK_LAYOUTS:
            cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
            report = hdn_loss(pred, gt, cfg, with_gradient=True)
            assert len(cfg._memo[2].blocks) == len(sizes)  # one block per level
            args = (pred.values.tolist(), gt.values.tolist(), pred.valid.tolist(),
                    gt.valid.tolist(), 240, 320, kind, sizes)
            want = ref_hdn_loss(*args)
            assert report.value == pytest.approx(want, abs=1e-12), (kind, sizes)
            grad = np.array(ref_hdn_gradient(*args))
            assert np.abs(report.gradient - grad).max() <= 1e-9 * np.abs(grad).max()


@pytest.mark.parametrize("kind,sizes", [("spatial", (1, 2, 4, 8)),
                                       ("depth_percentile", (1, 2, 4)),
                                       ("depth_range", (1, 2, 4))])
def test_loss_is_at_most_twice_the_largest_context(kind, sizes):
    """Every finite map has a finite loss, at most 2n for n the member
    count of the largest surviving context. A context of n members keeps
    a gt MAD m > 0, the mean of its n |gt deviations|, so each
    |deviation| / m <= n: |ng_i| <= n. A pred MAD above 0 bounds each
    |dev_i| / MAD by n the same way; a pred MAD of 0 makes every dev_i 0.
    So each |residual| <= 2n. The value weighs each member's |residual|
    by 1 / its pixel's context count, over the used pixels: a weighted
    mean of |residuals|. fit_depth rests on this: it starts from a finite
    value and accepts only a candidate whose value is no larger."""
    rng = np.random.default_rng(27)
    for case in range(500):
        h, w = rng.integers(3, 20, 2)
        gtv = np.round(rng.uniform(1, 6, (h, w)), int(rng.integers(0, 2)))  # ties
        prv = np.round(gtv + rng.normal(0, rng.uniform(0.01, 3), (h, w)), 1)
        r, c = rng.integers(0, h), rng.integers(0, w)
        if case % 3 == 1:  # a constant-pred region
            prv[r:r + h // 2 + 1, c:c + w // 2 + 1] = prv[r, c]
        elif case % 3 == 2:  # a single outlier
            prv[r, c] = rng.choice([-1, 1]) * rng.uniform(1e3, 1e4)
        valid = rng.random((h, w)) > 0.2
        valid.flat[[np.argmin(gtv), np.argmax(gtv)]] = True
        kg, kp = rng.integers(-1000, 1001, 2)
        gt = DepthMap(np.ldexp(gtv, kg), valid)
        cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
        value = hdn_loss(DepthMap(np.ldexp(prv, kp), valid), gt, cfg).value
        n = max(int(b.sizes.max()) for b in cfg._memo[2].blocks)
        assert np.isfinite(value) and value <= 2 * n, (case, value, n)


def test_numerical_gradient_skips_a_context_of_pred_mad_zero():
    # pred is constant over the first context: no member is near a sign,
    # order or residual tie, but any bump switches its divisor from 1 to
    # the MAD, so the forward and backward differences disagree; the
    # second context is far from every kink
    gt = DepthMap(np.array([[1.0, 2.0, 4.0, 7.0, 5.0, 6.0, 9.0, 10.0]]))
    pred = DepthMap(np.array([[3.0, 3.0, 3.0, 3.0, 1.0, 2.0, 6.0, 20.0]]))
    cfg = LossConfig(build_hierarchy(gt, LevelSpec("spatial", (2,))))
    checked = ~np.isnan(numerical_gradient(pred, gt, cfg))
    assert checked.tolist() == [[False] * 4 + [True] * 4]


def test_loss_on_unpickled_gt_matches_original(rng):
    pred, gt = random_pair(rng, 12, 14, mask_prob=0.2)
    reports = []
    for g in (gt, pickle.loads(pickle.dumps(gt))):
        cfg = LossConfig(build_hierarchy(g, LevelSpec("depth_range", (1, 2, 4))))
        reports.append(hdn_loss(pred, g, cfg, with_gradient=True))
    want, got = reports
    assert (got.value, got.per_level) == (want.value, want.per_level)
    assert got.gradient.tobytes() == want.gradient.tobytes()


@pytest.mark.parametrize("kind,sizes", [
    ("spatial", (1, 2, 4)),
    ("depth_percentile", (1, 2)),
    ("depth_range", (1, 2, 4)),
])
def test_forward_reads_the_gradient_pass_order(rng, kind, sizes):
    # rounded preds tie heavily; with and without the gradient the pass
    # reads one stable pred order, so the values agree bit for bit
    _, gt = random_pair(rng, 16, 16, mask_prob=0.2)
    pred = DepthMap(np.round(rng.uniform(0, 4, gt.values.shape)), gt.valid)
    cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
    fwd = hdn_loss(pred, gt, cfg)
    grad = hdn_loss(pred, gt, cfg, with_gradient=True)
    assert (fwd.value, fwd.per_level) == (grad.value, grad.per_level)
    plan, pf = cfg._memo[2], pred.values.ravel()
    assert np.array_equal(loss._pred_order(plan, pf),
                          plan.used[np.argsort(pf[plan.used], kind="stable")])


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


def _surviving_contexts(pred, gt, kind, S):
    """The contexts of level S that pass the filter rule (all pixels of
    these maps are valid), by the oracle's partition."""
    H, W = gt.values.shape
    out = []
    for ctx in ref_partition(gt.values.tolist(), gt.valid.tolist(), H, W, kind, S):
        g = [gt.values.flat[i] for i in ctx]
        if ref_mad(g, ref_median(g)) > 0:
            out.append(ctx)
    return out


def _middle_rank_pixels(pred, contexts):
    """Each context's pixels at the lower and upper middle pred rank,
    tied values ranked by linear index."""
    out = set()
    for ctx in contexts:
        ranked = sorted(ctx, key=lambda i: (pred.values.flat[i], i))
        out |= {ranked[(len(ctx) - 1) // 2], ranked[len(ctx) // 2]}
    return out


def _assert_gradient_matches_oracle(pred, gt, kind, sizes):
    H, W = gt.values.shape
    cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
    got = hdn_loss(pred, gt, cfg, with_gradient=True).gradient
    want = np.array(ref_hdn_gradient(pred.values.tolist(), gt.values.tolist(),
                                     pred.valid.tolist(), gt.valid.tolist(),
                                     H, W, kind, sizes))
    scale = np.abs(want).max()
    assert scale > 0
    assert np.abs(got - want).max() <= 1e-12 * scale


def test_gradient_one_context_level_short_of_used_pixels():
    # hdn_dr (1, 4) on the small fixture: depth_range-4 drops the
    # constant background bin, so it keeps one context, the foreground,
    # over fewer pixels than the used set. Its members are not the
    # used pixels, so regrouping pred order by context must still run.
    # A pred unrelated to gt scatters them through pred order.
    gt = generate_scene(small_fixture())
    pred = DepthMap(np.random.default_rng(0).uniform(1, 10, gt.values.shape))
    (ctx,) = _surviving_contexts(pred, gt, "depth_range", 4)
    assert 2 <= len(ctx) < int(gt.valid.sum())
    _assert_gradient_matches_oracle(pred, gt, "depth_range", (1, 4))


def _shared_middle_rank_cases():
    # pixel 4 holds the middle rank of the 9-pixel global context and of
    # its 3-pixel bin (both odd, so the median term lands there twice)
    yield (DepthMap(np.array([[3.0, 1, 2, 9, 5, 4, 8, 6, 7]])),
           DepthMap(np.arange(1.0, 10.0)[None]), "depth_percentile", (1, 3), 4)
    # pixel 1 is a middle rank at every level: 36, 9 and 4 members
    rng = np.random.default_rng(1)
    gt = DepthMap(rng.uniform(1, 10, (6, 6)))
    yield DepthMap(rng.uniform(1, 10, (6, 6))), gt, "spatial", (1, 2, 3), 1


@pytest.mark.parametrize("pred,gt,kind,sizes,pixel", _shared_middle_rank_cases())
def test_gradient_pixel_middle_rank_in_several_levels(pred, gt, kind, sizes, pixel):
    for S in sizes:
        ctxs = _surviving_contexts(pred, gt, kind, S)
        assert pixel in _middle_rank_pixels(pred, ctxs)
    _assert_gradient_matches_oracle(pred, gt, kind, sizes)


def test_hdn_per_level_breakdown(rng):
    pred, gt = random_pair(rng, 6, 6)
    cfg = LossConfig(build_hierarchy(gt, LevelSpec("depth_range", (1, 2, 4))))
    report = hdn_loss(pred, gt, cfg)
    assert [tag for tag, _ in report.per_level] == [
        "depth_range-1", "depth_range-2", "depth_range-4"]
    assert all(v >= 0 for _, v in report.per_level)


def test_local_only_spatial_s1_equals_ssi(rng):
    pred, gt = random_pair(rng, 4, 5)
    local = hdn_loss(pred, gt, single_level_cfg(gt, "spatial", 1))
    assert local.value == pytest.approx(ssi(pred, gt).value, abs=1e-12)


def test_local_only_singleton_bins_degenerate(rng):
    pred, gt = random_pair(rng, 2, 3)
    with pytest.raises(DegenerateInputError):
        hdn_loss(pred, gt, single_level_cfg(gt, "depth_percentile", 6))


def test_local_only_dr_matches_oracle():
    pred = DepthMap(np.array([[2.0, 1.0, 5.0, 4.0, 9.0, 7.0, 3.0, 8.0]]))
    gt = DepthMap(np.array([[1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0]]))
    expect = ref_hdn_loss(pred.values.tolist(), gt.values.tolist(),
                          pred.valid.tolist(), gt.valid.tolist(), 1, 8,
                          "depth_range", (2,))
    local = hdn_loss(pred, gt, single_level_cfg(gt, "depth_range", 2))
    assert local.value == pytest.approx(expect, abs=1e-12)


def test_batch_singleton_equals_ssi(rng):
    pred, gt = random_pair(rng, 3, 4, mask_prob=0.2)
    batch = batch_ssi([pred], [gt])
    assert batch.value == pytest.approx(ssi(pred, gt).value, abs=1e-12)
    assert batch.per_level == [("global", batch.value)]


def test_batch_duplicated_pair_equals_single(rng):
    pred, gt = random_pair(rng, 3, 4, mask_prob=0.2)
    assert batch_ssi([pred, pred], [gt, gt]).value == pytest.approx(
        ssi(pred, gt).value, abs=1e-12)


def test_batch_mismatched_affine_factors_fail_mode():
    # per-instance SSI is exactly zero, batch normalization is not
    gt1 = DepthMap(np.array([[1.0, 2.0]]))
    gt2 = DepthMap(np.array([[1.0, 2.0]]))
    pred1 = DepthMap(1.0 * gt1.values)
    pred2 = DepthMap(10.0 * gt2.values)
    assert ssi(pred1, gt1).value == pytest.approx(0, abs=1e-12)
    assert ssi(pred2, gt2).value == pytest.approx(0, abs=1e-12)
    assert batch_ssi([pred1, pred2], [gt1, gt2]).value > 0.1


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
    # every valid pixel lies in exactly one context of every level
    _, gt = random_pair(rng, 4, 4, mask_prob=0.2)
    hier = build_hierarchy(gt, LevelSpec("depth_range", (1, 2)))
    assert len(hier.levels) == 2
    for part in hier.levels:
        members = np.sort(np.concatenate(part.contexts))
        assert np.array_equal(members, np.flatnonzero(gt.valid.ravel()))


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


def _blocked_results(pred, gt, hier):
    """(report with gradient, forward-only report, blocks) under the block
    cap in force when the call is made."""
    cfg = LossConfig(hier)
    report = hdn_loss(pred, gt, cfg, with_gradient=True)
    return report, hdn_loss(pred, gt, cfg), cfg._memo[2].blocks


@pytest.mark.parametrize("kind,sizes", [
    ("spatial", (1, 2, 4, 8)),
    ("spatial", (1, 16, 2, 4)),  # level 16 is all single pixels: filtered
    ("depth_percentile", (1, 2, 4)),
    ("depth_range", (1, 2, 4)),
])
def test_blocked_pass_matches_level_by_level(rng, monkeypatch, kind, sizes):
    # small maps stack every level into one block by default; a cap below
    # the hierarchy's members runs each level as a block of its own. Every
    # trial with ties (rounded maps) also exercises the stable sort and the
    # middle ranks a pixel holds in several levels.
    for trial in range(12):
        h, w = int(rng.integers(8, 17)), int(rng.integers(8, 17))
        pred, gt = random_pair(rng, h, w, mask_prob=0.3)
        if trial % 2:
            pred = DepthMap(np.round(4 * pred.values) / 4, pred.valid)
            gt = DepthMap(np.round(4 * gt.values) / 4, gt.valid)
        hier = build_hierarchy(gt, LevelSpec(kind, sizes))
        want, want_fwd, blocks = _blocked_results(pred, gt, hier)
        assert len(blocks) == 1
        if 16 in sizes:
            empty = blocks[0].levels[sizes.index(16)]
            assert empty.start == empty.stop
        members = blocks[0].pix.size
        for cap in (1, members - 1):
            with monkeypatch.context() as m:
                m.setattr(loss, "BLOCK_MEMBERS", cap)
                got, got_fwd, blocks = _blocked_results(pred, gt, hier)
            assert len(blocks) == len(sizes)
            assert got.value == want.value and got_fwd.value == want_fwd.value
            assert got.per_level == want.per_level == want_fwd.per_level
            scale = np.abs(want.gradient).max()
            assert np.abs(got.gradient - want.gradient).max() <= 1e-15 * scale


def test_hierarchy_over_the_cap_runs_one_block_per_level(monkeypatch):
    # 128x160 spatial{1,2,4,8}: 20,480 members per level, 81,920 in all, so
    # each level is a block; the sums match the one-block pass
    rng = np.random.default_rng(4)
    gt = DepthMap(rng.uniform(1, 10, (128, 160)))
    pred = DepthMap(gt.values + rng.normal(0, 1, gt.values.shape))
    hier = build_hierarchy(gt, LevelSpec("spatial", (1, 2, 4, 8)))
    got, got_fwd, blocks = _blocked_results(pred, gt, hier)
    assert len(blocks) == 4
    with monkeypatch.context() as m:
        m.setattr(loss, "BLOCK_MEMBERS", 2**30)
        want, want_fwd, blocks = _blocked_results(pred, gt, hier)
    assert len(blocks) == 1
    assert got.value == want.value and got_fwd.value == want_fwd.value
    assert got.per_level == want.per_level
    scale = np.abs(want.gradient).max()
    assert np.abs(got.gradient - want.gradient).max() <= 1e-15 * scale


def test_int32_labels_two_member_contexts():
    # depth_percentile S = 45,000 over 90,000 pixels makes 45,000 contexts
    # of two members, past one-byte labels. No two gt values are equal, so
    # every context is kept. Both normalized values of a two-member context
    # are +-1, so each pair adds 2 to the residual sum when pred and gt
    # order its members differently, else 0.
    rng = np.random.default_rng(3)
    g, p = rng.uniform(1, 5, (300, 300)), rng.uniform(1, 5, (300, 300))
    gt, pred = DepthMap(g), DepthMap(p)
    cfg = LossConfig(build_hierarchy(gt, LevelSpec("depth_percentile", (45000,))))
    report = hdn_loss(pred, gt, cfg)
    assert cfg._memo[2].blocks[0].levels[0].label.dtype == np.uint16
    pairs = cfg.hierarchy.levels[0].members.reshape(-1, 2)
    gp, pp = g.ravel()[pairs], p.ravel()[pairs]
    flips = np.sign(gp[:, 0] - gp[:, 1]) != np.sign(pp[:, 0] - pp[:, 1])
    assert (gp[:, 0] != gp[:, 1]).all() and report.used_pixels == 90000
    assert abs(report.value - 2 * flips.mean()) < 1e-9


def _plan_levels(plan):
    """(tag, label, pix, sizes, ng) of each level of a plan, in order."""
    for block in plan.blocks:
        first = 0
        for lv in block.levels:
            k = lv.lo.size
            yield (lv.tag, lv.label, block.pix[lv.start:lv.stop],
                   block.sizes[first:first + k], block.ng[lv.start:lv.stop])
            first += k


def _reference_levels(gt, joint, hier):
    """The same, built context by context: np.median, and each MAD summed
    in the kernel's order, one np.add.reduceat over the context."""
    jf, gf = joint.ravel(), gt.values.ravel()
    for part in hier.levels:
        kept, ngs = [], []
        for ctx in part.contexts:
            idx = ctx[jf[ctx]]
            if idx.size == 0:  # np.median of no values is nan
                continue
            g = gf[idx]
            m = np.median(g)
            mad = np.add.reduceat(np.abs(g - m), [0])[0] / g.size
            if mad > 0:
                kept.append(idx)
                ngs.append((g - m) / mad)
        label = np.full(gf.size, len(kept))
        for k, idx in enumerate(kept):
            label[idx] = k
        yield (part.level_tag, label, np.concatenate(kept or [np.empty(0, int)]),
               np.array([idx.size for idx in kept], dtype=int),
               np.concatenate(ngs or [np.empty(0)]))


def test_plan_matches_per_context_reference(rng):
    # rounded gt makes ties and constant contexts (dropped for MAD 0);
    # masks make contexts of fewer than 2 joint-valid pixels (dropped for
    # size), and the last level of single pixels loses every context.
    # Every fifth map is larger and continuous, where a MAD summed in
    # another order than the kernel's segment sum (np.mean's pairwise
    # sum among them) rounds differently.
    seen = set()
    for trial in range(60):
        h, w = (40, 50) if trial % 5 == 4 else rng.integers(3, 13, 2)
        values = rng.uniform(0, 3, (h, w))
        gt = DepthMap(values if trial % 5 == 4 else np.round(values),
                      rng.random((h, w)) > 0.2)
        pred_valid = rng.random((h, w)) > 0.3 if trial % 2 else np.ones((h, w), bool)
        pred = DepthMap(rng.normal(size=(h, w)), pred_valid)
        kind = ("spatial", "depth_percentile", "depth_range")[trial % 3]
        hier = build_hierarchy(gt, LevelSpec(kind, (1, 2, 3, 2 * h * w)))
        joint = pred.valid & gt.valid
        want = list(_reference_levels(gt, joint, hier))
        if not any(lv[2].size for lv in want):
            with pytest.raises(DegenerateInputError):
                loss._build_plan(gt, joint, LossConfig(hier))
            continue
        plan = loss._build_plan(gt, joint, LossConfig(hier))
        got = list(_plan_levels(plan))
        assert [lv[0] for lv in got] == [lv[0] for lv in want]
        for (_, label, pix, sizes, ng), (_, rlabel, rpix, rsizes, rng_) in zip(got, want):
            assert np.array_equal(label, rlabel)
            assert np.array_equal(pix, rpix) and np.array_equal(sizes, rsizes)
            assert ng.tobytes() == rng_.tobytes()  # bit for bit
        assert np.array_equal(plan.used, np.unique(np.concatenate([lv[2] for lv in want])))
        if not np.array_equal(joint, gt.valid):
            seen.add("joint mask smaller than gt mask")
        for part, (_, _, pix, sizes, _) in zip(hier.levels, want):
            jsizes = [int(joint.ravel()[ctx].sum()) for ctx in part.contexts]
            if any(n < 2 for n in jsizes):
                seen.add("size < 2")
            if sum(n >= 2 for n in jsizes) > sizes.size:
                seen.add("MAD 0")
            if pix.size == 0:
                seen.add("level with every context dropped")
    assert seen == {"joint mask smaller than gt mask", "size < 2", "MAD 0",
                    "level with every context dropped"}


@pytest.mark.parametrize("kind,sizes", [
    ("spatial", (1,)),
    ("spatial", (1, 2, 4)),
    ("depth_percentile", (1, 2)),
    ("depth_range", (1, 2, 4)),
])
def test_affine_prediction_gradient_has_no_negative_zero(rng, kind, sizes):
    # every residual of an exactly affine pred sits in the deadband,
    # whose gradient terms are +0.0 (a 0/1 mask times sign(res) would
    # give -0.0 at negative residuals)
    _, gt = random_pair(rng, 12, 14, mask_prob=0.2)
    pred = DepthMap(2.5 * gt.values + 1.25, gt.valid)
    cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
    report = hdn_loss(pred, gt, cfg, with_gradient=True)
    assert report.value == pytest.approx(0, abs=1e-12)
    assert not report.gradient.any() and not np.signbit(report.gradient).any()
    # the gradient starts at +0.0, which absorbs -0.0 terms; a buffer of
    # -0.0 shows them: a pixel stays -0.0 only if every term it got was
    plan = cfg._memo[2]
    pf = pred.values.ravel()
    order = loss._pred_order(plan, pf)
    buf = np.full(pf.size, -0.0)
    for block in plan.blocks:
        loss._run_block(block, pf, order, buf, plan.used.size)
    assert not np.signbit(buf[plan.used]).any()


def _per_member_share(real_block):
    """_block with its share always one array entry per member."""
    def block(group, counts):
        b = real_block(group, counts)
        return dataclasses.replace(b, share=np.broadcast_to(b.share, b.pix.shape).copy())
    return block


@pytest.mark.parametrize("masked", [False, True])
def test_uniform_share_is_one_float(rng, monkeypatch, masked):
    # unmasked, every used pixel survives in all three levels; masked,
    # level 8's cells lose members and some drop out, so counts differ
    pred, gt = random_pair(rng, 12, 16, mask_prob=0.3 if masked else 0.0)
    hier = build_hierarchy(gt, LevelSpec("spatial", (1, 2, 4) if not masked else (1, 2, 8)))
    for cap in (loss.BLOCK_MEMBERS, 1):
        monkeypatch.setattr(loss, "BLOCK_MEMBERS", cap)
        want, want_fwd, blocks = _blocked_results(pred, gt, hier)
        if masked:
            assert all(isinstance(b.share, np.ndarray) for b in blocks)
        else:
            assert all(type(b.share) is float for b in blocks)
            assert [b.share for b in blocks] == [1 / 3] * len(blocks)
        with monkeypatch.context() as m:
            m.setattr(loss, "_block", _per_member_share(loss._block))
            got, got_fwd, blocks = _blocked_results(pred, gt, hier)
        assert all(b.share.shape == b.pix.shape for b in blocks)
        assert got.value == want.value and got_fwd.value == want_fwd.value
        assert got.per_level == want.per_level == got_fwd.per_level
        assert got.gradient.tobytes() == want.gradient.tobytes()


def test_gradient_pass_holds_one_block_at_a_time():
    # At 240x320 every spatial level is a block of its own. Beyond the
    # gradient and the pred order, a block needs dev, res and one
    # temporary (plus a bool mask) at a time; keeping the previous
    # block's dev and res alive, or fresh arrays for |res| and the
    # gradient weights, goes past the bound of six member-sized arrays.
    rng = np.random.default_rng(7)
    y, x = np.mgrid[0:240, 0:320] / 240.0
    gt = DepthMap(3 + 4 * y + x + 0.05 * rng.standard_normal(y.shape),
                  rng.random(y.shape) > 0.05)
    pred = DepthMap(0.5 * gt.values + 1 + 0.05 * rng.standard_normal(y.shape))
    cfg = LossConfig(build_hierarchy(gt, LevelSpec("spatial", (1, 2, 4, 8))))
    hdn_loss(pred, gt, cfg, with_gradient=True)  # builds the plan
    assert len(cfg._memo[2].blocks) == 4
    tracemalloc.start()
    try:
        report = hdn_loss(pred, gt, cfg, with_gradient=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    member = 8 * report.used_pixels
    assert peak < 6 * member, peak / member


def test_labels_as_narrow_as_the_context_count():
    # a level's labels hold 0..k-1 and k at pixels outside its contexts,
    # so 255 contexts fit one byte and 256 need two
    rng = np.random.default_rng(0)
    gt = DepthMap(rng.uniform(1, 5, (32, 32)))
    cfg = LossConfig(build_hierarchy(gt, LevelSpec("depth_percentile", (255, 256))))
    hdn_loss(DepthMap(rng.uniform(1, 5, (32, 32))), gt, cfg)
    levels = [lv for block in cfg._memo[2].blocks for lv in block.levels]
    assert [lv.lo.size for lv in levels] == [255, 256]
    assert [lv.label.dtype for lv in levels] == [np.uint8, np.uint16]
    # every level of the README configs fits one byte
    fixture = generate_scene(standard_fixture())
    pred = DepthMap(fixture.values + rng.normal(0, 0.1, fixture.values.shape))
    for kind, sizes in README_CONFIGS:
        cfg = loss_config(fixture, kind, sizes)
        hdn_loss(pred, fixture, cfg)
        assert {lv.label.dtype for block in cfg._memo[2].blocks
                for lv in block.levels} == {np.dtype(np.uint8)}


@pytest.mark.parametrize("mask_prob", [0.0, 0.3])
def test_whole_level_regroup_is_identity(rng, mask_prob):
    # one context over every used pixel labels each of them 0, so the
    # stable label sort leaves the pred order as it is
    pred, gt = random_pair(rng, 9, 11, mask_prob=mask_prob)
    cfg = loss_config(gt, "ssi")
    hdn_loss(pred, gt, cfg)
    plan = cfg._memo[2]
    (lv,) = plan.blocks[0].levels
    order = loss._pred_order(plan, pred.values.ravel())
    assert lv.lo.size == 1 and lv.stop == plan.used.size
    assert not lv.label[order].any()
    lo, hi = loss._middle_ranks(lv, order)
    assert np.array_equal(lo, order[lv.lo]) and np.array_equal(hi, order[lv.hi])


def _near_float_limit(scale):
    """The standard fixture's gt and a noisy pred scaled so that its
    largest magnitude is scale."""
    gt = generate_scene(standard_fixture())
    p = gt.values + 0.1 * np.random.default_rng(0).standard_normal(gt.values.shape)
    return DepthMap(p * (scale / np.abs(p).max())), gt


@pytest.mark.parametrize("kind,sizes", README_CONFIGS)
def test_pred_scale_invariance_up_to_the_float_limit(kind, sizes):
    # pred is prescaled by a power of two before its medians and MADs, so
    # pred -> 2^k * pred changes no bit of the value, also at max |pred| =
    # 2^1023, where an unscaled MAD sum would overflow. The gradient scales
    # by exactly 2^-k while it stays in the normal range
    pred, gt = _near_float_limit(1.0)
    cfg = loss_config(gt, kind, sizes)
    want = hdn_loss(pred, gt, cfg, with_gradient=True)
    for k in (-1000, -20, 20, 1000, 1023):
        got = hdn_loss(DepthMap(np.ldexp(pred.values, k)), gt, cfg, with_gradient=True)
        assert (got.value, got.per_level, got.used_pixels) == (
            want.value, want.per_level, want.used_pixels)
        if abs(k) <= 1000:
            assert np.ldexp(got.gradient, k).tobytes() == want.gradient.tobytes()


def test_l1_mean_too_large_raises():
    # pred's spread normalizes, but its distance from gt sums past the
    # float limit over 4,096 pixels
    _, gt = _near_float_limit(1.0)
    pred = DepthMap(1e308 + 1e300 * gt.values)
    cfg = loss_config(gt, "hdn_dr", (1, 2, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(hdn_loss(pred, gt, cfg).value)
        with pytest.raises(InvalidMapError, match="L1 mean overflows"):
            l1_plus_hdn(pred, gt, cfg, 1.0)


def test_gradient_of_a_context_with_a_huge_mad():
    # one pred pixel at 1e306 makes every context it is in have a MAD
    # near 1e305, so 1 / (MAD * used pixels) would overflow. Its 2x2
    # spatial-32 cell's neighbours take their whole gradient from such
    # contexts, and must match the oracle, which never forms that product
    _, gt = _near_float_limit(1.0)
    values = gt.values + 0.1 * np.random.default_rng(0).standard_normal(gt.values.shape)
    values[20, 21] = 1e306
    pred = DepthMap(values)
    sizes = (1, 2, 4, 8, 16, 32)
    got = hdn_loss(pred, gt, loss_config(gt, "hdn_s", sizes), with_gradient=True)
    assert got.value == 0.580270317073027
    want = np.array(ref_hdn_gradient(values.tolist(), gt.values.tolist(),
                                     pred.valid.tolist(), gt.valid.tolist(),
                                     64, 64, "spatial", sizes))
    cell = ([20, 21, 21], [20, 20, 21])
    assert np.abs(want[cell]).min() > 1e-307
    assert np.allclose(got.gradient[cell], want[cell], rtol=1e-12, atol=0)
    assert np.abs(got.gradient - want).max() <= 1e-12 * np.abs(want).max()


def test_pred_too_small_to_differentiate_raises():
    # at 1e-315 (subnormal) a pred MAD's reciprocal overflows: the value
    # is still defined, the gradient is not
    _, gt = _near_float_limit(1.0)
    values = gt.values + 0.1 * np.random.default_rng(0).standard_normal(gt.values.shape)
    pred = DepthMap(values * 1e-315)
    cfg = loss_config(gt, "hdn_s", (1, 2, 4, 8, 16, 32))
    assert np.isfinite(hdn_loss(pred, gt, cfg).value)
    for call in (lambda: hdn_loss(pred, gt, cfg, with_gradient=True),
                 lambda: l1_plus_hdn(pred, gt, cfg, 1.0, with_gradient=True)):
        with pytest.raises(InvalidMapError, match="pred values too small to "
                                                  "differentiate"):
            call()
