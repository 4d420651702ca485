import ast
import dataclasses
import types
from pathlib import Path

import hdnorm

# The package's public surface: what the CLI, the harness, the benchmark
# and the README use. A name added or removed here is an API change.
PUBLIC = [
    "ContextHierarchy", "DepthMap", "EvalReport", "FitConfig", "FitReport",
    "LevelSpec", "LossConfig", "LossReport", "Partition", "SceneSpec",
    "align_scale_shift", "build_hierarchy", "compare_losses", "evaluate",
    "fit_depth", "generate_scene", "global_context", "hdn_loss",
    "l1_plus_hdn", "loss_config", "numerical_gradient", "partition_dump",
    "read_csv_map", "read_mask", "read_pfm", "scatter_sample",
    "standard_fixture", "write_mask", "write_pfm",
]


def test_exported_names_are_pinned():
    exported = sorted(name for name in hdnorm.__all__
                      if not isinstance(getattr(hdnorm, name), types.ModuleType))
    assert exported == PUBLIC


def test_public_names_are_defined_in_their_module():
    # each public class or function lives in the module _MODULES names, so
    # a module that imports it (harness's loss_config) is not its home
    misplaced = []
    for module, names in hdnorm._MODULES.items():
        misplaced += [name for name in names
                      if getattr(hdnorm, name).__module__ != f"hdnorm.{module}"]
    assert misplaced == []


def test_config_fields_are_pinned():
    # the settable values of a loss and of a fit; the context filter and
    # the pred-MAD rule are fixed rules of the kernel, not options
    def names(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]

    assert names(hdnorm.LossConfig) == ["hierarchy"]
    assert names(hdnorm.FitConfig) == [
        "loss_kind", "level_sizes", "steps", "step_size", "seed"]


def test_no_module_imports_an_unused_name():
    # a name a src module imports and never reads is dead weight on every
    # import of that module; __future__ imports are directives, not names
    unused = []
    for path in sorted(Path(hdnorm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        bound = [alias.asname or alias.name.split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names]
        unused += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unused == []


def test_every_src_definition_has_a_reader():
    # a top-level function, class or assigned name that no src module
    # reads is dead code unless it is public; module dunders such as
    # __getattr__ are read by Python itself
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(hdnorm.__file__).parent.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    public = {name for names in hdnorm._MODULES.values() for name in names}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            dead += [f"{module}: {name}" for name in names
                     if name not in read and name not in public
                     and not (name.startswith("__") and name.endswith("__"))]
    assert dead == []
