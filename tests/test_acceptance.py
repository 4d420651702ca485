"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with pytest -s to see them). Tolerances are pinned here and
nowhere else."""

import time

import numpy as np
import pytest

from hdnorm import (
    DepthMap,
    FitConfig,
    LevelSpec,
    LossConfig,
    build_hierarchy,
    compare_losses,
    global_context,
    hdn_loss,
    numerical_gradient,
    partition_dump,
    read_csv_map,
    read_mask,
    read_pfm,
    standard_fixture,
    tie_mask,
    write_mask,
    write_pfm,
    align_scale_shift,
    absrel,
    delta1,
)

from conftest import batch_ssi, random_pair, row, ssi
from oracles import ref_hdn_loss, ref_partition, ref_ssi_loss


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_criterion_1_special_case_identity():
    """hdn_loss with a single global level, and the ssi loss kind, equal
    the SSI oracle (1e-12, 100 seeded instances, sizes 1x4 .. 32x32,
    random masks, < 5 s)."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for trial in range(100):
        h = int(rng.integers(1, 33))
        w = int(rng.integers(4 if h == 1 else 1, 33))
        pred, gt = random_pair(rng, h, w, mask_prob=0.2)
        cfg = LossConfig(build_hierarchy(gt, LevelSpec("spatial", (1,))))
        expect = ref_ssi_loss(pred.values.tolist(), gt.values.tolist(),
                              pred.valid.tolist(), gt.valid.tolist(), h, w)
        for got in (hdn_loss(pred, gt, cfg), ssi(pred, gt)):
            worst = max(worst, abs(got.value - expect))
    elapsed = time.monotonic() - t0
    report("criterion 1: single-level identity",
           worst < 1e-12 and elapsed < 5,
           f"max diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_affine_invariance():
    """|L(a*pred + b) - L(pred)| < 1e-9 for SSI and HDN-S {1,2,4,8},
    HDN-DP/DR {1,2,4}, a in {0.5,2,10}, b in {-5,0,3} (< 10 s)."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1002)
    worst = 0.0
    configs = [("spatial", (1, 2, 4, 8)),
               ("depth_percentile", (1, 2, 4)),
               ("depth_range", (1, 2, 4))]
    pred, gt = random_pair(rng, 16, 16, mask_prob=0.1)
    base_ssi = ssi(pred, gt).value
    for a in (0.5, 2, 10):
        for b in (-5, 0, 3):
            shifted = DepthMap(a * pred.values + b, pred.valid)
            worst = max(worst, abs(ssi(shifted, gt).value - base_ssi))
    for kind, sizes in configs:
        cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
        base = hdn_loss(pred, gt, cfg).value
        for a in (0.5, 2, 10):
            for b in (-5, 0, 3):
                shifted = DepthMap(a * pred.values + b, pred.valid)
                worst = max(worst, abs(hdn_loss(shifted, gt, cfg).value - base))
    elapsed = time.monotonic() - t0
    report("criterion 2: affine invariance",
           worst < 1e-9 and elapsed < 10,
           f"max diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_brute_force_oracle_equivalence():
    """hdn_loss over three levels and over one level matches the
    from-the-definitions oracle within 1e-12, 50 instances <= 16x16 per
    kind (< 30 s)."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for kind in ("spatial", "depth_percentile", "depth_range"):
        for trial in range(50):
            h = int(rng.integers(2, 17))
            w = int(rng.integers(2, 17))
            pred, gt = random_pair(rng, h, w, mask_prob=0.15)
            sizes = (1, 2, 4)
            cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
            expect = ref_hdn_loss(pred.values.tolist(), gt.values.tolist(),
                                  pred.valid.tolist(), gt.valid.tolist(),
                                  h, w, kind, sizes)
            got = hdn_loss(pred, gt, cfg).value
            worst = max(worst, abs(got - expect))
            s_local = 2
            expect_l = ref_hdn_loss(pred.values.tolist(), gt.values.tolist(),
                                    pred.valid.tolist(), gt.valid.tolist(),
                                    h, w, kind, (s_local,))
            if expect_l is not None:
                cfg_l = LossConfig(build_hierarchy(gt, LevelSpec(kind, (s_local,))))
                got_l = hdn_loss(pred, gt, cfg_l).value
                worst = max(worst, abs(got_l - expect_l))
    elapsed = time.monotonic() - t0
    report("criterion 3: brute-force oracle equivalence",
           worst < 1e-12 and elapsed < 30,
           f"max diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_partition_correctness():
    """Every context kind matches the brute-force references, in order,
    on 100 random instances; DP balance <= 1; DR membership; spatial
    floor rule (< 5 s)."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1004)
    ok = True
    for trial in range(100):
        h = int(rng.integers(1, 13))
        w = int(rng.integers(1, 13))
        s = int(rng.integers(1, 7))
        vals = rng.uniform(0, 5, (h, w))
        valid = rng.random((h, w)) > 0.25
        if not valid.any():
            valid[0, 0] = True
        gt = DepthMap(vals, valid)
        for kind in ("spatial", "depth_percentile", "depth_range"):
            got = [c.tolist() for c in
                   build_hierarchy(gt, LevelSpec(kind, (s,))).levels[0].contexts]
            ok &= got == ref_partition(vals.tolist(), valid.tolist(), h, w, kind, s)
        # global, and batch as the global context of the concatenated maps
        got_g = global_context(gt).contexts[0].tolist()
        ok &= got_g == np.flatnonzero(valid.ravel()).tolist()
        got_b = global_context(row([gt, gt])).contexts[0].tolist()
        base = np.flatnonzero(valid.ravel())
        ok &= got_b == base.tolist() + (base + h * w).tolist()
        # DP balance
        dp = build_hierarchy(gt, LevelSpec("depth_percentile", (s,))).levels[0]
        sizes = [len(c) for c in dp.contexts]
        ok &= max(sizes) - min(sizes) <= 1
    elapsed = time.monotonic() - t0
    report("criterion 4: partition correctness", ok and elapsed < 5,
           f"{elapsed:.2f}s")


def test_criterion_5_gradient_checks():
    """Analytical vs central finite differences (step 1e-5): max rel
    error < 1e-4 off tie neighborhoods, >= 20 instances per kind (< 60 s)."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1005)
    worst = 0.0
    kinds = [("spatial", (1,)), ("spatial", (1, 2, 4)),
             ("depth_percentile", (1, 2, 4)), ("depth_range", (1, 2, 4))]
    for kind, sizes in kinds:
        checked = 0
        for trial in range(20):
            pred, gt = random_pair(rng, 5, 5, mask_prob=0.1)
            cfg = LossConfig(build_hierarchy(gt, LevelSpec(kind, sizes)))
            analytic = hdn_loss(pred, gt, cfg, with_gradient=True).gradient
            numeric = numerical_gradient(pred, gt, cfg, step=1e-5)
            keep = (pred.valid & gt.valid) & ~tie_mask(pred, gt, cfg)
            if not keep.any():
                continue
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            worst = max(worst, float((np.abs(analytic - numeric) / denom)[keep].max()))
            checked += 1
        assert checked >= 15, f"{kind}: too few checkable instances"
    elapsed = time.monotonic() - t0
    report("criterion 5: gradient checks",
           worst < 1e-4 and elapsed < 60,
           f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_6_metrics_oracles():
    """Hand fixtures exact; alignment recovers affine exactly and beats
    a 1e-3 grid search everywhere (< 5 s)."""
    t0 = time.monotonic()
    ok = True
    pred = DepthMap(np.array([[1.0, 3.0]]))
    gt = DepthMap(np.array([[2.0, 2.0]]))
    ok &= absrel(pred, gt) == 0.5
    ok &= delta1(DepthMap(np.array([[1.0, 1.0]])),
                 DepthMap(np.array([[1.0, 2.0]]))) == 0.5
    rng = np.random.default_rng(1006)
    for trial in range(20):
        p, g = random_pair(rng, 6, 6)
        affine = DepthMap((g.values - 3.0) / 2.0, g.valid)
        s, t = align_scale_shift(affine, g)
        ok &= abs(s - 2.0) < 1e-9 and abs(t - 3.0) < 1e-9
        s, t = align_scale_shift(p, g)

        d = p.values[p.valid]
        dstar = g.values[g.valid]
        best = float(np.sum((s * d + t - dstar) ** 2))
        for da in (-1e-3, 0, 1e-3):
            for db in (-1e-3, 0, 1e-3):
                ok &= float(np.sum(((s + da) * d + (t + db) - dstar) ** 2)) >= best - 1e-12
    elapsed = time.monotonic() - t0
    report("criterion 6: metrics oracles", ok and elapsed < 5, f"{elapsed:.2f}s")


def test_criterion_7_detail_preservation_ab():
    """On the standard 64x64 fixture, direct fitting under HDN-DR
    {1,2,4} gives foreground_local_absrel >= 10% relatively lower than
    SSI, with global_absrel at most 5% relatively worse (< 60 s)."""
    t0 = time.monotonic()
    spec = standard_fixture()
    rows = compare_losses(spec, [
        FitConfig("ssi", (1,)),
        FitConfig("hdn_dr", (1, 2, 4)),
    ])
    fg_change = rows[1]["foreground_local_absrel_change_pct"]
    glob_change = rows[1]["global_absrel_change_pct"]
    elapsed = time.monotonic() - t0
    report("criterion 7: detail-preservation A/B",
           fg_change <= -10.0 and glob_change <= 5.0 and elapsed < 60,
           f"fg {fg_change:+.1f}%, global {glob_change:+.1f}%, {elapsed:.2f}s")


def test_criterion_8_batch_failure_mode():
    """Mismatched affine factors: batch SSI (one batch context over the
    concatenated pairs) > 0.1 while per-pair SSI = 0 (< 1 s)."""
    t0 = time.monotonic()
    gt1 = DepthMap(np.array([[1.0, 2.0]]))
    gt2 = DepthMap(np.array([[1.0, 2.0]]))
    pred1 = DepthMap(1.0 * gt1.values)
    pred2 = DepthMap(10.0 * gt2.values)
    per1 = ssi(pred1, gt1).value
    per2 = ssi(pred2, gt2).value
    batch = batch_ssi([pred1, pred2], [gt1, gt2]).value
    elapsed = time.monotonic() - t0
    report("criterion 8: batch failure mode",
           per1 == 0 and per2 == 0 and batch > 0.1 and elapsed < 1,
           f"batch {batch:.3f}, {elapsed:.2f}s")


def test_criterion_9_io_roundtrips(tmp_path):
    """PFM/PGM/CSV round-trip bit-exactly; partition dumps stable (< 5 s)."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1009)
    ok = True
    for trial in range(10):
        vals = rng.normal(size=(7, 5)).astype(np.float32).astype(np.float64)
        p = tmp_path / f"t{trial}.pfm"
        write_pfm(DepthMap(vals), p)
        ok &= np.array_equal(read_pfm(p).values, vals)
        mask = rng.random((7, 5)) > 0.5
        mp = tmp_path / f"t{trial}.pgm"
        write_mask(mask, mp)
        ok &= np.array_equal(read_mask(mp), mask)
    csv = tmp_path / "m.csv"
    csv.write_text("1,2\n3,nan\n")
    m = read_csv_map(csv)
    ok &= m.values.tolist() == [[1, 2], [3, 0]]
    ok &= m.valid.tolist() == [[True, True], [True, False]]
    gt = DepthMap(rng.uniform(0, 5, (6, 6)))
    dumps = {partition_dump(build_hierarchy(gt, LevelSpec("depth_range", (3,))).levels[0])
             for _ in range(5)}
    ok &= len(dumps) == 1
    elapsed = time.monotonic() - t0
    report("criterion 9: I/O round-trips", ok and elapsed < 5, f"{elapsed:.2f}s")
