"""The median/MAD normalization inside the loss kernel, seen through
hdn_loss over one global context (the ssi loss kind). The loss of a
context is mean |pn - gn| over its normalized pred pn and gt gn, so a
hand-computed value pins down the median and MAD the kernel used."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hdnorm import DepthMap, hdn_loss, loss_config
from hdnorm.errors import DegenerateInputError, EmptyInputError

finite_vals = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=50)


def ssi(pred_vals, gt_vals):
    """hdn_loss of two 1 x n maps over their one global context."""
    pred = DepthMap(np.array([pred_vals], dtype=float))
    gt = DepthMap(np.array([gt_vals], dtype=float))
    return hdn_loss(pred, gt, loss_config(gt, "ssi"))


def test_median_odd():
    # pred median 2, MAD 3: pn = [-1/3, 0, 8/3]; gn = [-1.5, 0, 1.5]
    assert ssi([1, 2, 10], [0, 1, 2]).value == pytest.approx(7 / 9, abs=1e-15)


def test_median_even_mean_rule():
    # the median of an even count is the mean of the two middle values:
    # pred median 3, MAD 9/4, pn = [-8/9, -4/9, 4/9, 20/9];
    # gt median 1.5, MAD 1, gn = [-1.5, -0.5, 0.5, 1.5]. The lower
    # middle value as the median would give 1/3.
    assert ssi([1, 2, 4, 8], [0, 1, 2, 3]).value == pytest.approx(13 / 36, abs=1e-15)


def test_median_unsorted():
    # pred median 4, MAD 2.5: pn = [0.4, -1.2, 2, -0.4];
    # gn = [0.5, -1.5, 1.5, -0.5]
    assert ssi([5, 1, 9, 3], [2, 0, 3, 1]).value == pytest.approx(0.25, abs=1e-15)


def test_median_empty_raises():
    # no context can be built over a map without valid pixels
    gt = DepthMap(np.ones((1, 3)), np.zeros((1, 3), dtype=bool))
    with pytest.raises(EmptyInputError):
        loss_config(gt, "ssi")


def test_mad_example():
    # the MAD of [1, 2, 3] * k is 2k/3: at k = 3e-6 it is above EPS and
    # pn = [-1.5, 0, 1.5] = gn; at k = 9e-7 it is 6e-7, clamped to EPS,
    # so pn = [-0.9, 0, 0.9]
    assert ssi(np.array([1, 2, 3]) * 3e-6, [-3, 0, 3]).value == 0
    assert ssi(np.array([1, 2, 3]) * 9e-7, [-3, 0, 3]).value == pytest.approx(
        0.4, abs=1e-15)


def test_mad_constant_zero():
    # a constant gt context has MAD 0 <= EPS, so it is filtered out
    with pytest.raises(DegenerateInputError, match="all contexts filtered out"):
        ssi([1, 2, 3], [4, 4, 4])


def test_mad_sign_symmetric(rng):
    # negating both maps negates both normalizations
    p, g = rng.normal(size=20), rng.normal(size=20)
    assert ssi(-p, -g).value == pytest.approx(ssi(p, g).value, rel=1e-12)


def test_mad_empty_raises():
    pred = DepthMap(np.ones((1, 2)), np.array([[True, False]]))
    gt = DepthMap(np.arange(2.0)[None], np.array([[False, True]]))
    with pytest.raises(EmptyInputError):
        hdn_loss(pred, gt, loss_config(gt, "ssi"))


def test_normalize_example():
    # pn = [-1.5, 0, 1.5]; gt median 2, MAD 1, gn = [-1, 0, 2]
    report = ssi([1, 2, 3], [1, 2, 4])
    assert report.value == pytest.approx(1 / 3, abs=1e-15)
    assert report.per_level == [("global", report.value)]
    assert report.used_pixels == 3


def test_normalize_constant_input_all_zeros():
    # a constant pred context has MAD 0, clamped to EPS, so pn = 0 and
    # the loss is mean |gn| over gn = [-1, 1]
    assert ssi([7.0, 7.0], [1.0, 3.0]).value == 1.0


@settings(max_examples=100, deadline=None)
@given(finite_vals,
       st.floats(min_value=0.01, max_value=100, allow_nan=False),
       st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_stats_affine_equivariance(vals, a, b):
    # the kernel's median and MAD are affine equivariant, so the loss is
    # invariant while the EPS clamp is inactive for v and a*v + b
    v = np.asarray(vals)
    g = np.arange(v.size, dtype=float)
    if v.size < 2:
        with pytest.raises(DegenerateInputError):
            ssi(v, g)
        return
    spread = np.mean(np.abs(v - np.median(v)))
    assume(spread > 1e-3 * max(1.0, np.abs(v).max()))
    assert ssi(a * v + b, g).value == pytest.approx(
        ssi(v, g).value, rel=1e-9, abs=1e-6)


@pytest.mark.parametrize("a", [0.5, 2, 10])
@pytest.mark.parametrize("b", [-5, 0, 3])
def test_normalization_affine_invariance(rng, a, b):
    v, g = rng.uniform(1, 10, size=31), rng.uniform(1, 10, size=31)
    assert ssi(a * v + b, g).value == pytest.approx(ssi(v, g).value, abs=1e-9)


def test_output_stats_when_clamp_inactive(rng):
    # the kernel normalizes v to (v - median) / MAD: that map has median
    # 0 and MAD 1, so as gt it normalizes to itself and the loss is 0
    v = rng.uniform(0, 5, size=40)
    pn = (v - np.median(v)) / np.mean(np.abs(v - np.median(v)))
    assert np.median(pn) == pytest.approx(0, abs=1e-12)
    assert np.mean(np.abs(pn)) == pytest.approx(1, abs=1e-12)
    assert ssi(v, pn).value == pytest.approx(0, abs=1e-12)
