"""Hierarchical depth normalization: affine-invariant depth losses over
multi-scale contexts, evaluation metrics, and a desk-scale fit harness.

A public name's module loads when the name is first used (PEP 562), so
`import hdnorm` and a CLI command load only the modules they run."""

import importlib

_MODULES = {
    "depth_core": ("DepthMap", "SceneSpec", "generate_scene", "read_csv_map",
                   "read_mask", "read_pfm", "write_mask", "write_pfm"),
    "contexts": ("ContextHierarchy", "LevelSpec", "Partition",
                 "build_hierarchy", "global_context", "partition_dump"),
    "loss": ("LossConfig", "LossReport", "hdn_loss", "l1_plus_hdn", "loss_config",
             "numerical_gradient"),
    "metrics": ("EvalReport", "align_scale_shift", "evaluate", "scatter_sample"),
    "harness": ("FitConfig", "FitReport", "compare_losses", "fit_depth",
                "standard_fixture"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
