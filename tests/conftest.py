import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hdnorm import DepthMap, SceneSpec, hdn_loss, loss_config


def random_pair(rng, H, W, mask_prob=0.0, lo=1.0, hi=10.0):
    """Random pred/gt pair with well-separated values (no near-ties) and
    an optional random mask that keeps at least two pixels."""
    M = H * W
    gtv = rng.permutation(np.linspace(lo, hi, M)).reshape(H, W)
    prv = rng.permutation(np.linspace(lo, hi, M)).reshape(H, W)
    jitter = min(0.1, (hi - lo) / (4 * M))
    gtv = gtv + rng.uniform(-jitter, jitter, (H, W))
    prv = prv + rng.uniform(-jitter, jitter, (H, W))
    mask = rng.random((H, W)) >= mask_prob
    if mask.sum() < 2:
        mask.flat[:2] = True
    return DepthMap(prv, mask), DepthMap(gtv, mask)


def small_fixture(**kw):
    """A 16x16 scene with a ridged foreground in front of a constant
    background, the standard fixture's layout at a quarter of its size."""
    base = dict(height=16, width=16, background_depth=10.0,
                fg_top=4, fg_bottom=12, fg_left=4, fg_right=12,
                base_depth=1.0, ridge_amplitude=0.2, ridge_period=4.0,
                noise_sigma=0.0, seed=3)
    base.update(kw)
    return SceneSpec(**base)


def ssi(pred, gt):
    """SSI: hdn_loss over the one global context of gt."""
    return hdn_loss(pred, gt, loss_config(gt, "ssi"))


def row(maps):
    """The maps flattened and concatenated into one 1-row map: the pixel
    space of a batch, with map k's pixels offset by the sizes of maps
    0..k-1."""
    return DepthMap(np.concatenate([m.values.ravel() for m in maps])[None],
                    np.concatenate([m.valid.ravel() for m in maps])[None])


def batch_ssi(preds, gts):
    """Batch SSI: SSI over the one global context of the concatenated
    row maps, so every pixel of the batch shares one median and MAD."""
    return ssi(row(preds), row(gts))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
