"""Hierarchical depth normalization: affine-invariant depth losses over
multi-scale contexts, evaluation metrics, and a desk-scale fit harness."""

from .depth_core import DepthMap, read_csv_map, read_mask, read_pfm, write_mask, write_pfm
from .contexts import (
    ContextHierarchy,
    LevelSpec,
    Partition,
    build_hierarchy,
    global_context,
    partition_dump,
)
from .loss import LossConfig, LossReport, hdn_loss, l1_plus_hdn, numerical_gradient, tie_mask
from .metrics import EvalReport, absrel, align_scale_shift, delta1, evaluate, scatter_sample
from .harness import (
    FitConfig,
    FitReport,
    SceneSpec,
    compare_losses,
    fit_depth,
    generate_scene,
    loss_config,
    standard_fixture,
)

__all__ = [name for name in dir() if not name.startswith("_")]
