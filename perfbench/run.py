#!/usr/bin/env python3
"""hdnorm benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload ab_fit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root; the program is imported from ./src. The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. Earlier lines give the environment and the
sample counts. The full record (latencies, and spans when traced) goes
to .bench_out/. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUPS = 5  # set-ups per run; setup_s is their median


def environment(workload, seed, load) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "hdnorm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    return {
        "workload": workload, "seed": seed, "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_at_start": load,
    }


def timed_setup(wl, seed, workdir):
    """Fresh-interpreter import, input generation and file writes, and
    one untimed warm-up op. Returns (seconds, warm-up correct)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hdnorm"], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=SRC))
    wl.setup(seed, workdir)
    _, error = attempt(wl, wl.warmup_inputs())
    if error:
        print(f"warm-up failed: {error}", file=sys.stderr)
    return time.perf_counter() - t0, error is None


def attempt(wl, inputs):
    """Run one op and check it against its golden. Returns (latency,
    None, or why the op failed). This is the boundary that keeps the loop
    going whatever the program does, so any exception counts as a failed
    op."""
    t0 = time.perf_counter()
    try:
        out = wl.run(inputs)
    except Exception:
        return time.perf_counter() - t0, traceback.format_exc()
    latency = time.perf_counter() - t0
    try:
        ok = wl.check(inputs, out)
    except Exception:
        return latency, traceback.format_exc()
    return latency, None if ok else "golden mismatch"


class Loop:
    """Closed loop over whole rotations of a workload's op kinds, so that
    every kind is equally represented in each run's statistics."""

    def __init__(self, wl):
        self.wl = wl
        self.next_op = wl.rotation  # the first rotation's inputs are the warm-up's
        self.attempted = self.failed = 0

    def run(self, seconds, rec=None) -> list:
        wl, latencies = self.wl, []
        deadline = time.perf_counter() + seconds
        while True:
            for _ in range(wl.rotation):
                i = self.next_op
                self.next_op += 1
                inputs = wl.inputs(i)
                if rec is not None:
                    rec.op = i
                latency, error = attempt(wl, inputs)
                if rec is not None:
                    rec.op = None
                latencies.append(latency)
                self.attempted += 1
                if error:
                    self.failed += 1
                    if self.failed <= 3:
                        print(f"op {i} failed: {error}", file=sys.stderr)
            if time.perf_counter() >= deadline:
                return latencies


def backward_share(paired, hdn_loss, budget_s=0.5) -> dict:
    """Per loss key, 1 - forward/(forward+gradient) from calls on the same
    inputs, alternating which goes first."""
    share = {}
    for key, (pred, gt, cfg) in paired.items():
        fwd = grad = 0.0
        t_end = time.perf_counter() + budget_s
        for n in range(8):
            for with_gradient in ((False, True) if n % 2 else (True, False)):
                t0 = time.perf_counter()
                hdn_loss(pred, gt, cfg, with_gradient=with_gradient)
                dt = time.perf_counter() - t0
                if with_gradient:
                    grad += dt
                else:
                    fwd += dt
            if time.perf_counter() >= t_end:
                break
        share[key] = max(0.0, 1.0 - fwd / grad)
    return share


def traced_half(wl, loop, seconds):
    """Per-layer metrics from a traced stretch of the loop."""
    import spans
    from hdnorm import loss

    rec = spans.Recorder()
    spans.install(rec)
    wl.rec = rec
    try:
        latencies = loop.run(seconds, rec)
    finally:
        wl.rec = None
        rec.restore()
    shares = backward_share(rec.paired, loss.hdn_loss)
    metrics = spans.layer_metrics(rec.spans, len(latencies), shares)
    return latencies, metrics, rec.spans, spans.fit_loss_evals(rec.spans)


def summarize(latencies) -> dict:
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_s_p50": statistics.median(latencies)}


def run_workload(wl, seed, seconds, trace, setups, workdir):
    """Set up, measure and check one workload. Returns (result, record)."""
    record = {"setup_s": []}
    warm_ok = True
    for _ in range(setups):
        t, ok = timed_setup(wl, seed, workdir)
        record["setup_s"].append(t)
        warm_ok &= ok
    loop = Loop(wl)
    if trace:
        plain = loop.run(seconds / 2)
        traced, metrics, spans, fit_evals = traced_half(wl, loop, seconds / 2)
        metrics["trace.overhead_ratio"] = (
            summarize(traced)["ops_per_s"] / summarize(plain)["ops_per_s"])
        record.update(untraced_latencies=plain, traced_latencies=traced,
                      fit_loss_evals=fit_evals, spans=spans)
        print(f"samples: {len(plain)} untraced ops, {len(traced)} traced ops")
        if fit_evals:
            print("fit loss evaluations: "
                  + ", ".join(f"{label} {n}" for label, n in fit_evals))
    else:
        latencies = loop.run(seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if wl.children:  # the client stays resident while a child runs
            peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = dict(summarize(latencies),
                       setup_s=statistics.median(record["setup_s"]),
                       peak_rss_mb=peak_kb / 1024)
        record["latencies"] = latencies
        line = f"samples: {len(latencies)} ops; op_s_p50 is their median"
        if len(latencies) >= 100:  # at least ten samples beyond the p90
            line += f"; op_s_p90 {statistics.quantiles(latencies, n=10)[-1]:.6f} s"
        print(line)
    spot_ok = wl.spot_check(seed)
    if not spot_ok:
        print("affine-invariance spot check failed", file=sys.stderr)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        reported = json.load(f)["per_layer" if trace else "end_to_end"]
    result = {"correct": warm_ok and spot_ok and loop.failed == 0,
              "attempted": loop.attempted, "failed": loop.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in reported}}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one traced rotation of every workload, goldens checked")
    args = parser.parse_args(argv)

    load = os.getloadavg()
    sys.path.insert(0, SRC)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    status = 0
    for name in names:
        env = environment(name, args.seed, load)
        print("env: " + json.dumps(env), flush=True)
        wl = workloads.WORKLOADS[name]()
        workdir = os.path.join(OUT, f"work-{os.getpid()}")
        os.makedirs(workdir)
        try:
            if args.smoke:
                result, record = run_workload(wl, args.seed, 0, 1, 1, workdir)
            else:
                result, record = run_workload(wl, args.seed, args.seconds, args.trace,
                                              SETUPS, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        record.update(env=env, result=result)
        trace = 1 if args.smoke else args.trace
        with open(os.path.join(OUT, f"{name}-seed{args.seed}-trace{trace}.json"), "w") as f:
            json.dump(record, f)
        if args.smoke:
            print(f"smoke {name}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")
            status |= not result["correct"]
    if not args.smoke:
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
