#!/usr/bin/env python3
"""Write perfbench/goldens.json from the program in ./src.

    python3 perfbench/capture_goldens.py

The committed goldens were captured from the commit that added the
benchmark; re-run this only on a commit whose outputs are known good.
"""

import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as w  # noqa: E402
from hdnorm import harness  # noqa: E402
from hdnorm.depth_core import DepthMap  # noqa: E402


def ab_fit():
    spec = harness.standard_fixture()
    configs = [harness.FitConfig(kind, sizes) for kind, sizes in w.AB_CONFIGS]
    return {"rows": harness.compare_losses(spec, configs)}


def vga_train():
    weights = w.gradient_weights()
    inputs, ops = [], {}
    for j in range(w.VGA_POOL):
        pred, gt, valid = w.make_pair(j)
        inputs.append(w.digest(pred, gt, valid))
        for kind in w.VGA_KINDS:
            out = w.vga_op(DepthMap(pred), DepthMap(gt, valid), kind)
            ops[f"{j}/{kind[0]}"] = w.vga_observe(out, weights)
    return {"inputs": inputs, "ops": ops}


def cli_vga():
    files, ops = {}, {}
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_out"))
    try:
        for j in range(w.CLI_POOL):
            files[str(j)] = w.write_cli_files(j, workdir)
            for name, template in w.CLI_COMMANDS:
                proc = w.cli_run(w.cli_argv(j, template), workdir)
                ops[f"{j}/{name}"] = w.cli_observe(name, proc, workdir)
    finally:
        shutil.rmtree(workdir)
    return {"files": files, "ops": ops}


def main():
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    goldens = {"ab_fit": ab_fit(), "vga_train": vga_train(), "cli_vga": cli_vga()}
    with open(w.GOLDENS_PATH, "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {w.GOLDENS_PATH}")


if __name__ == "__main__":
    main()
