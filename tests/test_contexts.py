import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdnorm import DepthMap, LevelSpec, build_hierarchy, global_context, partition_dump
from hdnorm.contexts import stable_argsort
from hdnorm.errors import EmptyInputError, ParameterError

from conftest import row
from oracles import ref_partition


def level(gt, kind, S):
    """The one partition of a single-level hierarchy."""
    return build_hierarchy(gt, LevelSpec(kind, (S,))).levels[0]


def as_sets(partition):
    return [set(int(i) for i in ctx) for ctx in partition.contexts]


@pytest.mark.parametrize("sizes", [("x",), (None,), 4, (), (2.7,), ("3",), "12",
                                   (1, 2.5), (float("inf"),), (float("nan"),)])
def test_level_spec_errors_are_typed(sizes):
    # a size is an integer: int() may not truncate or parse it
    with pytest.raises(ParameterError) as info:
        LevelSpec("spatial", sizes)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("sizes", [(1, 2), (1, np.int64(2)), (1.0, 2.0),
                                   (s for s in (1, 2))])
def test_level_spec_takes_integral_sizes(sizes):
    assert LevelSpec("spatial", sizes).sizes == (1, 2)


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
    a, b = global_context(m), level(m, "spatial", 1)
    assert as_sets(a) == as_sets(b)


def test_global_empty_raises():
    with pytest.raises(EmptyInputError):
        global_context(DepthMap(np.ones((1, 1)), np.array([[False]])))


def test_batch_singleton_matches_global():
    # a batch is its maps concatenated into one row; a batch of one map
    # has that map's valid pixels
    m = DepthMap(np.arange(4.0).reshape(2, 2), np.array([[True, False], [True, True]]))
    assert as_sets(global_context(row([m]))) == as_sets(global_context(m))


def test_batch_concatenated_median():
    a = DepthMap(np.array([[1.0, 2.0]]))
    b = DepthMap(np.array([[3.0, 4.0]]))
    batch = row([a, b])
    p = global_context(batch)
    assert np.median(batch.values.ravel()[p.contexts[0]]) == 2.5


def test_spatial_exact_division():
    p = level(DepthMap(np.zeros((4, 4))), "spatial", 2)
    sizes = sorted(len(c) for c in p.contexts)
    assert sizes == [4, 4, 4, 4]
    quadrant = {i for i in range(16) if i // 4 < 2 and i % 4 < 2}
    assert quadrant in as_sets(p)


def test_spatial_3x3_s2_floor_rule():
    p = level(DepthMap(np.zeros((3, 3))), "spatial", 2)
    sizes = sorted(len(c) for c in p.contexts)
    assert sizes == [1, 2, 2, 4]


def test_spatial_s_larger_than_dims():
    p = level(DepthMap(np.zeros((2, 2))), "spatial", 5)
    assert sorted(len(c) for c in p.contexts) == [1, 1, 1, 1]


def test_spatial_s0_rejected():
    with pytest.raises(ParameterError):
        level(DepthMap(np.zeros((2, 2))), "spatial", 0)


def test_dp_sort_and_split():
    gt = DepthMap(np.array([[5.0, 1.0, 3.0, 9.0]]))
    p = level(gt, "depth_percentile", 2)
    assert as_sets(p) == [{1, 2}, {0, 3}]


def test_dp_uneven_sizes_larger_first():
    gt = DepthMap(np.array([[5.0, 1.0, 3.0, 9.0, 2.0]]))
    p = level(gt, "depth_percentile", 2)
    assert [len(c) for c in p.contexts] == [3, 2]


def test_dp_s1_is_global():
    gt = DepthMap(np.array([[5.0, 1.0]]))
    assert as_sets(level(gt, "depth_percentile", 1)) == [{0, 1}]


def test_dr_hand_bins():
    gt = DepthMap(np.array([[0.0, 1.0, 2.0, 10.0]]))
    p = level(gt, "depth_range", 2)
    assert as_sets(p) == [{0, 1, 2}, {3}]


def test_dr_constant_single_context():
    gt = DepthMap(np.full((2, 3), 4.0))
    assert len(level(gt, "depth_range", 5).contexts) == 1


def test_dr_max_clamped_to_last_bin():
    gt = DepthMap(np.array([[0.0, 10.0]]))
    p = level(gt, "depth_range", 4)
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
    text = partition_dump(level(DepthMap(np.ones((2, 2))), "spatial", 2))
    assert text == "ctx0: 0\nctx1: 1\nctx2: 2\nctx3: 3"


def test_partition_dump_dp():
    gt = DepthMap(np.array([[5.0, 1.0, 3.0, 9.0]]))
    assert partition_dump(level(gt, "depth_percentile", 2)) == "ctx0: 0 3\nctx1: 1 2"


def test_pixel_to_context_consistency(rng):
    # the contexts are non-empty, disjoint, and cover the valid pixels
    gt = DepthMap(rng.normal(size=(6, 7)), rng.random((6, 7)) > 0.3)
    p = level(gt, "depth_range", 3)
    assert all(ctx.size > 0 for ctx in p.contexts)
    covered = np.sort(np.concatenate(p.contexts))
    assert np.array_equal(covered, np.flatnonzero(gt.valid.ravel()))


# --- brute-force oracle equivalence and invariants ---

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(1, 16), st.integers(1, 20),
       st.sampled_from(["spatial", "depth_percentile", "depth_range"]),
       st.integers(0, 10**6))
def test_builders_match_reference(h, w, s, kind, seed):
    # in order: contexts in key order, members ascending within each
    # context; the loss kernel's sums and the CLI's level lines follow it.
    # s crosses every side length, so spatial cells meet S < H and S > H
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0, 5, (h, w))
    if seed % 2:
        vals = np.round(vals)  # ties: DP ranks them by linear index
    valid = rng.random((h, w)) > 0.25
    if not valid.any():
        valid[0, 0] = True
    gt = DepthMap(vals, valid)
    got = [ctx.tolist() for ctx in level(gt, kind, s).contexts]
    assert got == ref_partition(vals.tolist(), valid.tolist(), h, w, kind, s)
    # disjointness + coverage
    union = set().union(*map(set, got))
    assert sum(len(c) for c in got) == len(union)
    assert union == set(np.flatnonzero(valid.ravel()))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(1, 6),
       st.integers(0, 10**6))
def test_dp_balance_and_order(h, w, s, seed):
    rng = np.random.default_rng(seed)
    gt = DepthMap(rng.uniform(0, 5, (h, w)))
    p = level(gt, "depth_percentile", s)
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
    p = level(gt, "depth_range", s)
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



def test_dp_heavy_ties_match_brute_force_ranking(rng):
    # three distinct values over ~1,500 valid pixels: the default sort
    # scrambles tied values, so the stable sort must take over
    vals = rng.integers(0, 3, (40, 50)).astype(float)
    valid = rng.random((40, 50)) > 0.25
    gt = DepthMap(vals, valid)
    flat = vals[valid]
    assert not np.array_equal(np.argsort(flat), np.argsort(flat, kind="stable"))
    ranked = sorted(np.flatnonzero(valid).tolist(), key=lambda i: (vals.flat[i], i))
    M = len(ranked)
    for S in (1, 2, 3, 7, 64, M - 1, M, 2**40):
        q, rem = divmod(M, S)
        want, pos = [], 0
        for run in range(min(S, M)):
            n = q + (run < rem)
            want.append(sorted(ranked[pos:pos + n]))
            pos += n
        assert [c.tolist() for c in level(gt, "depth_percentile", S).contexts] == want


@pytest.mark.parametrize("S", [2**31, 3 * 2**32, 2**33, 2**70])
def test_huge_sizes_match_reference(S):
    # no S wraps a key or allocates memory in proportion to S
    rng = np.random.default_rng(S % 997)
    vals = np.round(rng.uniform(0, 4, (5, 6)))
    valid = rng.random((5, 6)) > 0.2
    gt = DepthMap(vals, valid)
    for kind in ("spatial", "depth_range"):
        got = [c.tolist() for c in level(gt, kind, S).contexts]
        assert got == ref_partition(vals.tolist(), valid.tolist(), 5, 6, kind, S)
    ranked = sorted(np.flatnonzero(valid).tolist(), key=lambda i: (vals.flat[i], i))
    assert [c.tolist() for c in level(gt, "depth_percentile", S).contexts] == [
        [i] for i in ranked]


@pytest.mark.parametrize("unit", [1.0, 1e-30, 2.0**-1070])
def test_dr_size_beyond_float_range(unit):
    # bins narrower than any gap between these values: one per distinct
    # value. At the smaller units (max - min) / S underflows to 0, and no
    # division may warn.
    vals = np.array([[3.0, 1.0, 2.0], [1.0, 3.0, 1.5]]) * unit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = level(DepthMap(vals), "depth_range", 2**2000)
    assert [c.tolist() for c in p.contexts] == [[1, 3], [5], [2], [0, 4]]


@pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0)])
def test_dr_signed_zeros_share_a_bin(zeros):
    vals = np.array([[2.0, 1.0, 1.0], [*zeros, 2.0]])
    p = level(DepthMap(vals), "depth_range", 2)
    assert [c.tolist() for c in p.contexts] == [[3, 4], [0, 1, 2, 5]]


def test_dr_overflowing_span():
    # max - min overflows to inf; the values are halved (exactly) before
    # binning, so no bin arithmetic warns and the maximum lands in bin 1
    gt = DepthMap(np.array([[-1e308, 0.0, 5e307, 1e308]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        p = level(gt, "depth_range", 2)
        huge = level(gt, "depth_range", 2**2000)
    assert [c.tolist() for c in p.contexts] == [[0], [1, 2, 3]]
    assert [c.tolist() for c in huge.contexts] == [[0], [1], [2], [3]]


def _stable_argsort_inputs():
    rng = np.random.default_rng(5)
    yield "tie-heavy", np.round(rng.normal(size=5000), 1)
    yield "few ties", np.round(rng.normal(size=5000), 4)
    yield "tie-free", rng.normal(size=5000)
    yield "constant", np.full(300, 2.5)
    yield "signed zeros", rng.permutation(np.repeat([-0.0, 0.0, 1.0, -1.0], 50))
    yield "float32 rounding", rng.normal(size=5000).astype(np.float32).astype(float)
    yield "empty", np.empty(0)
    yield "one", np.array([4.0])


@pytest.mark.parametrize("name,vals", list(_stable_argsort_inputs()))
def test_stable_argsort_matches_numpy(name, vals):
    got = stable_argsort(vals)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argsort(vals, kind="stable"))


def test_determinism(rng):
    gt = DepthMap(rng.normal(size=(9, 9)))
    a = level(gt, "depth_range", 4)
    b = level(gt, "depth_range", 4)
    assert partition_dump(a) == partition_dump(b)
