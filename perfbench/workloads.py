"""The benchmark's two workloads: inputs from a seed, one op, golden check.

``ab_fit`` fits one fixed gt hundreds of times; ``vga_mix`` sees fresh
480x640 inputs on every op, in-process (``VgaTrain``) and through cold
CLI processes (``CliVga``).

Every workload turns ``--seed`` into inputs whose correct outputs follow
exactly from goldens.json, captured when the benchmark was added:

* ``ab_fit`` and ``vga_train`` scale depths by powers of two. Binary
  floating point scales such inputs exactly, so each op sees a gt with
  new contents while every loss value is bit-identical to the golden and
  every gradient is the golden's times a known power of two.
* ``cli_vga`` draws which base pairs it writes and the order it visits
  them in; its goldens are the exact stdout bytes and exit codes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys

import numpy as np

from hdnorm import contexts, harness, loss, metrics
from hdnorm.depth_core import DepthMap

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "cli_launcher.py")
GOLDENS_PATH = os.path.join(HERE, "goldens.json")

VGA_H, VGA_W = 480, 640


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as f:
        return json.load(f)


def matches(got, want, rtol: float) -> bool:
    """Structural equality with a relative tolerance on floats."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(matches(got[k], want[k], rtol) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(matches(g, w, rtol) for g, w in zip(got, want)))
    if isinstance(want, float):
        return math.isclose(got, want, rel_tol=rtol, abs_tol=1e-12)
    return got == want


def make_pair(j: int):
    """Base pair j: a 480x640 gt of tilted planes with closer blobs and
    fine texture, a gt mask with exactly 5% of pixels scattered invalid,
    and a noisy affine prediction. Continuous noise keeps pred free of
    ties; the fixed invalid count and the absence of large holes give
    every pair the same contexts and valid pixels, so per-op layer counts
    repeat exactly whichever pairs a seed picks."""
    rng = np.random.default_rng(1000 + j)
    y, x = np.mgrid[0:VGA_H, 0:VGA_W] / np.array([VGA_H, VGA_W])[:, None, None]
    gt = 4.0 + 8.0 * y + 2.0 * x * rng.uniform(0.5, 1.5)
    for _ in range(6):
        cy, cx, r, d = (rng.uniform(0, 1), rng.uniform(0, 1),
                        rng.uniform(0.05, 0.2), rng.uniform(1, 3))
        gt = gt - d * np.exp(-((y - cy) ** 2 + (x - cx) ** 2) / (2 * r * r))
    gt = gt + 0.02 * rng.standard_normal((VGA_H, VGA_W))
    valid = np.ones(VGA_H * VGA_W, dtype=bool)
    valid[rng.choice(VGA_H * VGA_W, size=VGA_H * VGA_W // 20, replace=False)] = False
    valid = valid.reshape(VGA_H, VGA_W)
    pred = 0.3 * gt + 1.5 + 0.05 * rng.standard_normal((VGA_H, VGA_W))
    return pred, gt, valid


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def affine_invariant(seed: int, pred: DepthMap, gt: DepthMap, kind: str, sizes) -> bool:
    """loss(a*pred + b) == loss(pred) for a seeded a > 0 and b."""
    rng = random.Random(seed)
    a, b = rng.uniform(0.5, 4.0), rng.uniform(-5.0, 5.0)
    cfg = loss.LossConfig(contexts.build_hierarchy(gt, contexts.LevelSpec(kind, sizes)))
    v0 = loss.hdn_loss(pred, gt, cfg).value
    v1 = loss.hdn_loss(DepthMap(a * pred.values + b, pred.valid), gt, cfg).value
    return math.isclose(v0, v1, rel_tol=1e-9, abs_tol=1e-12)


# ---------------------------------------------------------------------------

AB_CONFIGS = (("ssi", (1,)), ("hdn_s", (1, 2, 4, 8)), ("hdn_dp", (1, 2, 4)),
              ("hdn_dr", (1, 2, 4)), ("hdn_dr", (4,)))
AB_EXPONENTS = 21  # depths up to 2**20 * 10, step sizes up to 4**20 * 100


class AbFit:
    """compare_losses over the README A/B configs on the 64x64 fixture."""

    name = "ab_fit"
    rotation = 1
    children = False  # peak_rss_mb is this process's alone

    def setup(self, seed, workdir):
        self.golden = load_goldens()[self.name]
        self.k0 = random.Random(seed).randrange(AB_EXPONENTS)

    def inputs(self, i, configs=AB_CONFIGS):
        # Depths times 2**k and step sizes times 4**k leave every fit
        # trajectory bit-identical to the unscaled one.
        k = (self.k0 + i) % AB_EXPONENTS
        base, m = harness.standard_fixture(), 2.0 ** k
        spec = dataclasses.replace(
            base, background_depth=base.background_depth * m,
            base_depth=base.base_depth * m, ridge_amplitude=base.ridge_amplitude * m)
        fits = [harness.FitConfig(kind, sizes, step_size=100.0 * m * m)
                for kind, sizes in configs]
        return spec, fits

    def run(self, inputs):
        return harness.compare_losses(*inputs)

    def check(self, inputs, rows) -> bool:
        return matches(rows, self.golden["rows"][:len(rows)], 1e-6)

    def warmup_inputs(self):
        return self.inputs(0, AB_CONFIGS[:1])  # one config keeps set-up short

    def spot_check(self, seed) -> bool:
        gt = harness.generate_scene(harness.standard_fixture())
        noise = np.random.default_rng(seed).standard_normal(gt.values.shape)
        return affine_invariant(seed, DepthMap(gt.values + noise), gt, "spatial", (1, 2, 4, 8))


# ---------------------------------------------------------------------------

VGA_KINDS = (("ssi", "spatial", (1,)),
             ("hdn_s", "spatial", (1, 2, 4, 8)),
             ("hdn_s32", "spatial", (1, 2, 4, 8, 16, 32)),  # 1365 contexts
             ("hdn_dp", "depth_percentile", (1, 2, 4)),
             ("hdn_dr", "depth_range", (1, 2, 4)))
VGA_POOL = 6  # coprime with len(VGA_KINDS): every (pair, kind) comes up
VGA_EXPONENTS = 61


def gradient_weights():
    return np.random.default_rng(12345).uniform(-1.0, 1.0, (VGA_H, VGA_W))


def vga_op(pred, gt, kind):
    _, ctx_kind, sizes = kind
    h = contexts.build_hierarchy(gt, contexts.LevelSpec(ctx_kind, sizes))
    report = loss.hdn_loss(pred, gt, loss.LossConfig(h), with_gradient=True)
    return report, metrics.evaluate(pred, gt)


def vga_observe(out, weights, kp=0, kg=0) -> dict:
    """What the golden pins down, scaled back to unscaled inputs."""
    report, ev = out
    up = 2.0 ** kp
    return {"value": report.value, "used_pixels": report.used_pixels,
            "grad_abs": float(np.abs(report.gradient).sum()) * up,
            "grad_dot": float(np.vdot(report.gradient, weights)) * up,
            "absrel": ev.absrel, "delta1": ev.delta1,
            "scale": ev.scale * 2.0 ** (kp - kg), "shift": ev.shift / 2.0 ** kg}


class VgaTrain:
    """build_hierarchy + hdn_loss(with_gradient=True) + evaluate on a
    fresh 480x640 masked pair per op."""

    name = "vga_train"
    rotation = len(VGA_KINDS)

    def setup(self, seed, workdir):
        golden = load_goldens()[self.name]
        self.golden = golden["ops"]
        self.pool = [make_pair(j) for j in range(VGA_POOL)]
        if [digest(*p) for p in self.pool] != golden["inputs"]:
            raise RuntimeError("generated vga_train inputs differ from the "
                               "ones goldens.json was captured on")
        self.weights = gradient_weights()
        rng = random.Random(seed)
        self.order = rng.sample(range(VGA_POOL), VGA_POOL)
        self.g0, self.p0 = rng.randrange(VGA_EXPONENTS), rng.randrange(VGA_EXPONENTS)

    def inputs(self, i):
        kind = VGA_KINDS[i % len(VGA_KINDS)]
        j = self.order[i % VGA_POOL]
        kp, kg = (self.p0 + 7 * i) % VGA_EXPONENTS, (self.g0 + i) % VGA_EXPONENTS
        pred, gt, valid = self.pool[j]
        return (f"{j}/{kind[0]}", kind, kp, kg,
                DepthMap(pred * 2.0 ** kp), DepthMap(gt * 2.0 ** kg, valid))

    def run(self, inputs):
        _, kind, _, _, pred, gt = inputs
        return vga_op(pred, gt, kind)

    def check(self, inputs, out) -> bool:
        key, _, kp, kg, _, _ = inputs
        return matches(vga_observe(out, self.weights, kp, kg), self.golden[key], 1e-9)

    def warmup_inputs(self):
        return self.inputs(0)

    def spot_check(self, seed) -> bool:
        pred, gt, valid = self.pool[self.order[0]]
        return affine_invariant(seed, DepthMap(pred), DepthMap(gt, valid),
                                "depth_range", (1, 2, 4))


# ---------------------------------------------------------------------------

CLI_POOL = 4
CLI_PASS_PAIRS = 3  # distinct base pairs a run writes and cycles through
CLI_COMMANDS = (
    ("loss_hdn_s", "loss {pred} {gt} --kind hdn_s --levels 1,2,4,8 --gt-mask {mask}"),
    ("loss_hdn_dp", "loss {pred} {gt} --kind hdn_dp --levels 1,2,4"),
    ("loss_hdn_dr_l1", "loss {pred} {gt} --kind hdn_dr --levels 1,2,4 --lambda 1.0"),
    ("loss_ssi", "loss {pred} {gt} --kind ssi"),
    ("eval", "eval {pred} {gt}"),
    ("scatter", "scatter {pred} {gt} --n 2000 --out scatter.csv"),
    ("synth", "synth --height 480 --width 640 --out synth.pfm"),
    ("truncated", "loss {trunc} {gt} --kind ssi"),
)
CLI_OUTPUTS = {"scatter": "scatter.csv", "synth": "synth.pfm"}


def write_cli_files(j: int, workdir: str) -> dict:
    """Write base pair j as PFM + PGM files (float32 payload, rows
    bottom-to-top) plus a PFM cut off mid-payload. Returns the sha256 of
    each file by name."""
    pred, gt, valid = make_pair(j)
    header = f"Pf\n{VGA_W} {VGA_H}\n-1.0\n".encode("ascii")
    blobs = {
        f"pred{j}.pfm": header + np.flipud(pred).astype("<f4").tobytes(),
        f"gt{j}.pfm": header + np.flipud(gt).astype("<f4").tobytes(),
        f"gt{j}.pgm": (f"P5\n{VGA_W} {VGA_H}\n255\n".encode("ascii")
                       + (valid.astype(np.uint8) * 255).tobytes()),
    }
    pfm = blobs[f"pred{j}.pfm"]
    blobs[f"trunc{j}.pfm"] = pfm[:len(pfm) // 2]
    for name, blob in blobs.items():
        with open(os.path.join(workdir, name), "wb") as f:
            f.write(blob)
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}


def cli_argv(j: int, template: str) -> list:
    return template.format(pred=f"pred{j}.pfm", gt=f"gt{j}.pfm",
                           mask=f"gt{j}.pgm", trunc=f"trunc{j}.pfm").split()


def cli_run(argv, workdir, trace_path=None):
    cmd = [sys.executable, LAUNCHER]
    if trace_path:
        cmd += ["--trace", trace_path]
    return subprocess.run(cmd + ["--"] + argv, cwd=workdir, capture_output=True,
                          timeout=120)


def cli_observe(cmd_name, proc, workdir) -> dict:
    obs = {"code": proc.returncode, "stdout": proc.stdout.decode("utf-8", "replace")}
    if cmd_name in CLI_OUTPUTS:
        path = os.path.join(workdir, CLI_OUTPUTS[cmd_name])
        with open(path, "rb") as f:
            obs["file_sha256"] = hashlib.sha256(f.read()).hexdigest()
    return obs


class CliVga:
    """One cold ``hdnorm`` process per op on 480x640 PFM/PGM files."""

    name = "cli_vga"
    rotation = len(CLI_COMMANDS)
    rec = None  # a spans.Recorder while the traced half runs

    def setup(self, seed, workdir):
        golden = load_goldens()[self.name]
        self.golden = golden["ops"]
        self.workdir = workdir
        self.pairs = random.Random(seed).sample(range(CLI_POOL), CLI_PASS_PAIRS)
        for j in self.pairs:
            if write_cli_files(j, workdir) != golden["files"][str(j)]:
                raise RuntimeError("generated cli_vga files differ from the "
                                   "ones goldens.json was captured on")

    def inputs(self, i):
        j = self.pairs[(i // len(CLI_COMMANDS)) % len(self.pairs)]
        name, template = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        if name in CLI_OUTPUTS:  # a stale output must not pass the check
            path = os.path.join(self.workdir, CLI_OUTPUTS[name])
            if os.path.exists(path):
                os.unlink(path)
        return f"{j}/{name}", name, cli_argv(j, template)

    def run(self, inputs):
        _, _, argv = inputs
        if self.rec is None:
            return cli_run(argv, self.workdir)
        trace_path = os.path.join(self.workdir, "child-spans.json")
        with self.rec.span("cli.process"):
            proc = cli_run(argv, self.workdir, trace_path)
        with open(trace_path) as f:
            self.rec.extend(json.load(f), self.rec.op)
        return proc

    def check(self, inputs, proc) -> bool:
        key, name, _ = inputs
        return matches(cli_observe(name, proc, self.workdir), self.golden[key], 0.0)

    def spot_check(self, seed) -> bool:
        pred, gt, valid = make_pair(self.pairs[0])
        return affine_invariant(seed, DepthMap(pred), DepthMap(gt, valid),
                                "spatial", (1, 2, 4, 8))


# ---------------------------------------------------------------------------

class VgaMix:
    """Fresh 480x640 inputs on every op: each rotation runs the five
    in-process training ops of VgaTrain, then the eight cold processes of
    CliVga. The two share one workload so that, on a two-core host, every
    run of the benchmark can last long enough to be steady."""

    name = "vga_mix"
    children = True  # peak_rss_mb adds the largest hdnorm child's peak

    def __init__(self):
        self.train, self.cli = VgaTrain(), CliVga()
        self.rotation = self.train.rotation + self.cli.rotation

    @property
    def rec(self):
        return self.cli.rec

    @rec.setter
    def rec(self, rec):
        self.cli.rec = rec  # in-process ops are traced by the wrappers alone

    def setup(self, seed, workdir):
        self.train.setup(seed, workdir)
        self.cli.setup(seed, workdir)

    def inputs(self, i):
        r, k = divmod(i, self.rotation)
        if k < self.train.rotation:
            return self.train, self.train.inputs(r * self.train.rotation + k)
        k -= self.train.rotation
        return self.cli, self.cli.inputs(r * self.cli.rotation + k)

    def run(self, inputs):
        part, part_inputs = inputs
        return part.run(part_inputs)

    def check(self, inputs, out) -> bool:
        part, part_inputs = inputs
        return part.check(part_inputs, out)

    def warmup_inputs(self):
        return self.train, self.train.warmup_inputs()

    def spot_check(self, seed) -> bool:
        return self.train.spot_check(seed) and self.cli.spot_check(seed)


WORKLOADS = {w.name: w for w in (AbFit, VgaMix)}
