#!/usr/bin/env python3
"""Benchmark of dmshape: end-to-end workloads, correctness checks, layer trace.

One run measures one workload and prints its metrics by name with their
units; the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run from the repository root:

    python3 perfbench/run.py --workload ref-compare --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload ess-files --trace 1     # per-layer
    python3 perfbench/run.py --all       # every workload once; writes BENCHMARK.json

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload once plain and once traced, each in a fresh
interpreter, and reports the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from statistics import median

import tracer
import workloads as wl

RUN_SECONDS = 20
WORKLOADS = {
    "ref-compare": "`dmshape compare --n 216 --k 349`, the reference end-to-end "
                   "unit: scheme builds and analyze dominate, no codec",
    "codec-stream": "seeded uniform 349-bit words round-robin over the four "
                    "schemes, encoded and decoded in process: codec only",
    "ess-files": "build --scheme ess, analyze, codec encode and decode as CLI "
                 "processes on one 12 MB scheme file: file I/O, validate, ESS",
}
# (name, unit, bound): the metrics every untraced run reports.
END_TO_END = (
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
)
# Reported by name where the workload has codec work; not every workload
# has, so they are not in the gated set.
CODEC_NOTES = ("codec_mbit_s", "encode_us_p50", "encode_us_p99",
               "decode_us_p50", "decode_us_p99")


def manifest() -> dict:
    """BENCHMARK.json: the contract between this benchmark and its runner."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in tracer.PER_LAYER.items()],
    }


def provenance(backend: str, seed: int) -> dict:
    """Backend, interpreter, core count and source identity of a result."""
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for top, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(top, name)
                digest.update(path.encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"backend": backend, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit,
            "source_sha256": digest.hexdigest(), "seed": seed}


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, wl.Result]:
    if workload == "codec-stream":
        res = wl.codec_stream(os.getcwd(), seed, seconds)
        setup_what = "scheme+codec builds"
        op_what = "rounds of one word per scheme"
    else:
        with wl.Checkout(os.getcwd()) as co:
            run = wl.ref_compare if workload == "ref-compare" else wl.ess_files
            res = run(co, seed, seconds)
        setup_what = "cold imports of dmshape.cli"
        op_what = ("compare processes" if workload == "ref-compare"
                   else "build/analyze/encode/decode file flows")
    metrics = {
        "setup_s": (median(res.setup_s), f"median of {len(res.setup_s)} "
                    f"{setup_what}"),
        "wall_s": (median(res.op_s), f"median of {len(res.op_s)} {op_what}"),
        "peak_rss_mb": (res.peak_rss_mb, "peak resident set of the working "
                        "process"),
    }
    units = {n: u for n, u, _ in END_TO_END}
    for name, (value, note) in metrics.items():
        print(f"  {name:<16} {value:<14.6g} {units[name]:<7} {note}")
    print(f"  {'ops':<16} {res.attempted:<14} {'count':<7} operations attempted")
    print(f"  {'failed_ops':<16} {res.failed:<14} {'count':<7} failed checks or "
          "errors")
    noted = {name for name, *_ in res.notes}
    for name, value, unit, note in res.notes:
        print(f"  {name:<16} {value:<14.6g} {unit:<7} {note}")
    for name in CODEC_NOTES:
        if name not in noted:
            print(f"  {name:<16} {'n/a':<14} {'':<7} no in-process codec work "
                  "in this workload")
    return ({name: {"value": value, "unit": units[name]}
             for name, (value, _) in metrics.items()}, res)


def traced(workload: str, seed: int) -> tuple[dict, int, int, str]:
    """Plain pass, then traced pass, each in a fresh interpreter."""
    passes = {}
    env = wl.Checkout(os.getcwd()).env
    for mode in (0, 1):
        proc = subprocess.run(
            [sys.executable, tracer.__file__, "--workload", workload,
             "--seed", str(seed), "--traced", str(mode)],
            env=env, capture_output=True, text=True, timeout=170)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"tracer pass failed with exit {proc.returncode}")
        passes[mode] = json.loads(proc.stdout.strip().splitlines()[-1])
    plain, trace = passes[0], passes[1]
    values = dict.fromkeys(tracer.PER_LAYER, 0)
    values.update(plain["metrics"])
    values.update(trace["metrics"])
    values["trace.overhead_s"] = trace["wall_s"] - plain["wall_s"]
    failed = 0
    for p in (plain, trace):
        for error in p["errors"]:
            print(f"FAILED: {error}", file=sys.stderr)
        failed += bool(p["errors"])
    for name, unit in tracer.PER_LAYER.items():
        print(f"  {name:<34} {values[name]:<14.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracer.PER_LAYER.items()}
    return metrics, 2, failed, trace["backend"]


def run_all(seed: int, seconds: float) -> int:
    """Every workload once, each in its own interpreter; rewrite BENCHMARK.json."""
    failed = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=300)
        sys.stdout.write(proc.stdout)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += proc.returncode != 0 or not result["correct"]
    with open("BENCHMARK.json", "w", encoding="utf-8") as fh:
        json.dump(manifest(), fh, indent=2)
        fh.write("\n")
    print("wrote BENCHMARK.json")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload once and write BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "dmshape", "cli.py")):
        print("perfbench: run from the root of a dmshape checkout "
              "(src/dmshape/cli.py not found)", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if not args.workload:
        parser.error("--workload or --all is required")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    if args.trace:
        metrics, attempted, failed, backend = traced(args.workload, args.seed)
    else:
        metrics, res = untraced(args.workload, args.seed, args.seconds)
        attempted, failed, backend = res.attempted, res.failed, res.backend
    print("provenance " + json.dumps(provenance(backend, args.seed)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
