import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdnorm import (
    DepthMap,
    LevelSpec,
    batch_context,
    build_hierarchy,
    depth_percentile_bins,
    depth_range_bins,
    global_context,
    partition_dump,
    spatial_grid,
)
from hdnorm.errors import EmptyInputError, ParameterError

from oracles import ref_partition


def as_sets(partition):
    return [set(int(i) for i in ctx) for ctx in partition.contexts]


def test_global_all_valid():
    p = global_context(DepthMap(np.ones((2, 2))))
    assert as_sets(p) == [{0, 1, 2, 3}]


def test_global_with_invalid():
    valid = np.array([[True, True], [True, False]])
    p = global_context(DepthMap(np.ones((2, 2)), valid))
    assert as_sets(p) == [{0, 1, 2}]


def test_global_equals_spatial_s1(rng):
    m = DepthMap(rng.normal(size=(3, 5)), rng.random((3, 5)) > 0.4)
    if m.valid_count == 0:
        m = DepthMap(m.values)
    a, b = global_context(m), spatial_grid(m, 1)
    assert as_sets(a) == as_sets(b)


def test_global_empty_raises():
    with pytest.raises(EmptyInputError):
        global_context(DepthMap(np.ones((1, 1)), np.array([[False]])))


def test_batch_singleton_matches_global():
    m = DepthMap(np.arange(4.0).reshape(2, 2))
    assert as_sets(batch_context([m])) == as_sets(global_context(m))


def test_batch_offsets():
    a = DepthMap(np.array([[1.0]]))
    b = DepthMap(np.array([[3.0]]))
    p = batch_context([a, b])
    assert as_sets(p) == [{0, 1}]
    assert p.npixels == 2


def test_batch_concatenated_median():
    a = DepthMap(np.array([[1.0, 2.0]]))
    b = DepthMap(np.array([[3.0, 4.0]]))
    p = batch_context([a, b])
    pooled = np.concatenate([a.values.ravel(), b.values.ravel()])
    assert np.median(pooled[sorted(p.contexts[0])]) == 2.5


def test_batch_empty_raises():
    with pytest.raises(EmptyInputError):
        batch_context([])


def test_spatial_exact_division():
    p = spatial_grid(DepthMap(np.zeros((4, 4))), 2)
    sizes = sorted(len(c) for c in p.contexts)
    assert sizes == [4, 4, 4, 4]
    quadrant = {i for i in range(16) if i // 4 < 2 and i % 4 < 2}
    assert quadrant in as_sets(p)


def test_spatial_3x3_s2_floor_rule():
    p = spatial_grid(DepthMap(np.zeros((3, 3))), 2)
    sizes = sorted(len(c) for c in p.contexts)
    assert sizes == [1, 2, 2, 4]


def test_spatial_s_larger_than_dims():
    p = spatial_grid(DepthMap(np.zeros((2, 2))), 5)
    assert sorted(len(c) for c in p.contexts) == [1, 1, 1, 1]


def test_spatial_s0_rejected():
    with pytest.raises(ParameterError):
        spatial_grid(DepthMap(np.zeros((2, 2))), 0)


def test_dp_sort_and_split():
    gt = DepthMap(np.array([[5.0, 1.0, 3.0, 9.0]]))
    p = depth_percentile_bins(gt, 2)
    assert as_sets(p) == [{1, 2}, {0, 3}]


def test_dp_uneven_sizes_larger_first():
    gt = DepthMap(np.array([[5.0, 1.0, 3.0, 9.0, 2.0]]))
    p = depth_percentile_bins(gt, 2)
    assert [len(c) for c in p.contexts] == [3, 2]


def test_dp_s1_is_global():
    gt = DepthMap(np.array([[5.0, 1.0]]))
    assert as_sets(depth_percentile_bins(gt, 1)) == [{0, 1}]


def test_dr_hand_bins():
    gt = DepthMap(np.array([[0.0, 1.0, 2.0, 10.0]]))
    p = depth_range_bins(gt, 2)
    assert as_sets(p) == [{0, 1, 2}, {3}]


def test_dr_constant_single_context():
    gt = DepthMap(np.full((2, 3), 4.0))
    assert len(depth_range_bins(gt, 5).contexts) == 1


def test_dr_max_clamped_to_last_bin():
    gt = DepthMap(np.array([[0.0, 10.0]]))
    p = depth_range_bins(gt, 4)
    assert as_sets(p) == [{0}, {1}]
    assert p.contexts[-1].tolist() == [1]


def test_build_hierarchy_paper_level_sets():
    gt = DepthMap(np.arange(64.0).reshape(8, 8))
    hs = build_hierarchy(gt, LevelSpec("spatial", (1, 2, 4, 8)))
    assert [p.level_tag for p in hs.levels] == [
        "spatial-1", "spatial-2", "spatial-4", "spatial-8"]
    hd = build_hierarchy(gt, LevelSpec("depth_range", (1, 2, 4)))
    assert len(hd.levels) == 3


def test_levelspec_validation():
    with pytest.raises(ParameterError):
        LevelSpec("spatial", (1, 1))
    with pytest.raises(ParameterError):
        LevelSpec("spatial", (0,))
    with pytest.raises(ParameterError):
        LevelSpec("bogus", (1,))


def test_partition_dump_global():
    assert partition_dump(global_context(DepthMap(np.ones((1, 2))))) == "ctx0: 0 1"


def test_partition_dump_spatial_2x2():
    text = partition_dump(spatial_grid(DepthMap(np.ones((2, 2))), 2))
    assert text == "ctx0: 0\nctx1: 1\nctx2: 2\nctx3: 3"


def test_partition_dump_dp():
    gt = DepthMap(np.array([[5.0, 1.0, 3.0, 9.0]]))
    assert partition_dump(depth_percentile_bins(gt, 2)) == "ctx0: 0 3\nctx1: 1 2"


def test_pixel_to_context_consistency(rng):
    # the contexts are non-empty, disjoint, and cover the valid pixels
    gt = DepthMap(rng.normal(size=(6, 7)), rng.random((6, 7)) > 0.3)
    p = depth_range_bins(gt, 3)
    assert all(ctx.size > 0 for ctx in p.contexts)
    covered = np.sort(np.concatenate(p.contexts))
    assert np.array_equal(covered, np.flatnonzero(gt.valid.ravel()))


# --- brute-force oracle equivalence and invariants ---

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(1, 16), st.integers(1, 8),
       st.sampled_from(["spatial", "depth_percentile", "depth_range"]),
       st.integers(0, 10**6))
def test_builders_match_reference(h, w, s, kind, seed):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0, 5, (h, w))
    valid = rng.random((h, w)) > 0.25
    if not valid.any():
        valid[0, 0] = True
    gt = DepthMap(vals, valid)
    builder = {"spatial": spatial_grid,
               "depth_percentile": depth_percentile_bins,
               "depth_range": depth_range_bins}[kind]
    got = as_sets(builder(gt, s))
    ref = [set(c) for c in ref_partition(vals.tolist(), valid.tolist(), h, w, kind, s)]
    assert sorted(got, key=min) == sorted(ref, key=min)
    # disjointness + coverage
    union = set().union(*got) if got else set()
    assert sum(len(c) for c in got) == len(union)
    assert union == set(np.flatnonzero(valid.ravel()))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(1, 6),
       st.integers(0, 10**6))
def test_dp_balance_and_order(h, w, s, seed):
    rng = np.random.default_rng(seed)
    gt = DepthMap(rng.uniform(0, 5, (h, w)))
    p = depth_percentile_bins(gt, s)
    sizes = [len(c) for c in p.contexts]
    assert max(sizes) - min(sizes) <= 1
    flat = gt.values.ravel()
    for a, b in zip(p.contexts, p.contexts[1:]):
        assert flat[a].max() <= flat[b].min() + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(1, 6),
       st.integers(0, 10**6))
def test_dr_interval_membership(h, w, s, seed):
    rng = np.random.default_rng(seed)
    gt = DepthMap(rng.uniform(0, 5, (h, w)))
    p = depth_range_bins(gt, s)
    flat = gt.values.ravel()
    lo, hi = flat.min(), flat.max()
    width = (hi - lo) / s if hi > lo else 0.0
    for ctx in p.contexts:
        if width == 0:
            continue
        b = min(int((flat[ctx[0]] - lo) // width), s - 1)
        left = lo + b * width
        right = hi if b == s - 1 else left + width
        assert (flat[ctx] >= left - 1e-12).all()
        assert (flat[ctx] <= right + 1e-12).all()


def test_determinism(rng):
    gt = DepthMap(rng.normal(size=(9, 9)))
    a = depth_range_bins(gt, 4)
    b = depth_range_bins(gt, 4)
    assert partition_dump(a) == partition_dump(b)
