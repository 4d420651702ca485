import dataclasses
import types

import hdnorm

# The package's public surface: what the CLI, the harness, the benchmark
# and the README use. A name added or removed here is an API change.
PUBLIC = [
    "ContextHierarchy", "DepthMap", "EvalReport", "FitConfig", "FitReport",
    "LevelSpec", "LossConfig", "LossReport", "Partition", "SceneSpec",
    "absrel", "align_scale_shift", "build_hierarchy", "compare_losses",
    "delta1", "evaluate", "fit_depth", "generate_scene", "global_context",
    "hdn_loss", "l1_plus_hdn", "loss_config", "numerical_gradient",
    "partition_dump", "read_csv_map", "read_mask", "read_pfm",
    "scatter_sample", "standard_fixture", "tie_mask", "write_mask",
    "write_pfm",
]


def test_exported_names_are_pinned():
    exported = sorted(name for name in hdnorm.__all__
                      if not isinstance(getattr(hdnorm, name), types.ModuleType))
    assert exported == PUBLIC


def test_config_fields_are_pinned():
    # the settable values of a loss and of a fit; the context filter and
    # the MAD clamp are fixed rules of the kernel, not options
    def names(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]

    assert names(hdnorm.LossConfig) == ["hierarchy"]
    assert names(hdnorm.FitConfig) == [
        "loss_kind", "level_sizes", "steps", "step_size", "init", "seed"]
