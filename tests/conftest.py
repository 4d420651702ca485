import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hdnorm import ContextHierarchy, DepthMap, LossConfig, batch_context, hdn_loss, loss_config


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


def ssi(pred, gt):
    """SSI: hdn_loss over the one global context of gt."""
    return hdn_loss(pred, gt, loss_config(gt, "ssi"))


def batch_ssi(preds, gts):
    """Batch SSI: hdn_loss over batch_context's one context, on the pairs
    flattened and concatenated into one row, which is the index space of
    batch_context."""
    def row(maps):
        return DepthMap(np.concatenate([m.values.ravel() for m in maps])[None],
                        np.concatenate([m.valid.ravel() for m in maps])[None])
    cfg = LossConfig(ContextHierarchy((batch_context(gts),)))
    return hdn_loss(row(preds), row(gts), cfg)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
