#!/usr/bin/env python3
"""Self-test of the benchmark at a small (n, k): its checks fire.

Runs every workload once at n=24, k=36 against the committed expected
outputs and requires zero failed operations; then corrupts one expected
output (or, for codec-stream, the decoder) and requires every operation to
be counted as failed.  Finally each traced pass must report self times that,
with the unattributed remainder, add up to its wall time.

    python3 perfbench/selftest.py        # from the repository root, ~40 s
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import tracer
import workloads as wl

N, K = 24, 36


def corrupt(data: bytes) -> bytes:
    """Change the last digit of the data: a near-miss an exact check must catch."""
    i = max(i for i, c in enumerate(data) if chr(c).isdigit())
    return data[:i] + str((int(chr(data[i])) + 1) % 10).encode() + data[i + 1:]


class SelfTest:
    def __init__(self):
        self.failures = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}: {what}")
        self.failures += not ok

    def untraced(self, co: wl.Checkout, expected: wl.Expected) -> None:
        for name, run in (("ref-compare", wl.ref_compare),
                          ("ess-files", wl.ess_files)):
            res = run(co, 1, 0, N, K, expected)
            self.expect(res.attempted >= 1 and res.failed == 0,
                        f"{name}: seed outputs pass ({res.attempted} ops)")
        bad = [("ref-compare", wl.ref_compare, "compare",
                corrupt(expected.compare)),
               ("ess-files", wl.ess_files, "ess_sha256",
                corrupt(expected.ess_sha256.encode()).decode()),
               ("ess-files", wl.ess_files, "ess_aggregates",
                corrupt(expected.ess_aggregates))]
        for name, run, field, value in bad:
            res = run(co, 1, 0, N, K, dataclasses.replace(expected,
                                                          **{field: value}))
            self.expect(res.attempted >= 1 and res.failed == res.attempted,
                        f"{name}: corrupted expected {field} counted as "
                        f"{res.failed}/{res.attempted} failed ops")

    def codec(self) -> None:
        res = wl.codec_stream(os.getcwd(), 1, 0, N, K, rounds=16)
        self.expect(res.attempted == 64 and res.failed == 0,
                    f"codec-stream: {res.attempted} words round-trip")
        from dmshape.codec import SchemeCodec
        decode = SchemeCodec.decode
        SchemeCodec.decode = lambda self, seq: decode(self, seq) ^ 1
        try:
            res = wl.codec_stream(os.getcwd(), 1, 0, N, K, rounds=4)
        finally:
            SchemeCodec.decode = decode
        self.expect(res.failed == res.attempted == 16,
                    f"codec-stream: a corrupted decoder counted as "
                    f"{res.failed}/{res.attempted} failed ops")

    def traced(self, co: wl.Checkout, expected: wl.Expected) -> None:
        bad = dataclasses.replace(expected, compare=corrupt(expected.compare))
        errors, _ = tracer.pass_ref_compare(co, 1, N, K, bad)
        self.expect(bool(errors), "traced ref-compare pass: corrupted expected "
                                  "compare reported")
        for workload in tracer.PASSES:
            proc = subprocess.run(
                [sys.executable, tracer.__file__, "--workload", workload,
                 "--n", str(N), "--k", str(K)],
                env=co.env, capture_output=True, text=True, timeout=170)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            m = out["metrics"]
            parts = sum(m[name] for name in tracer.SELF.values())
            total = parts + m["trace.unattributed_s"]
            self.expect(not out["errors"] and m["trace.unattributed_s"] >= 0
                        and abs(total - m["trace.wall_s"]) < 1e-6,
                        f"traced {workload}: self times {parts:.4f} s + "
                        f"unattributed {m['trace.unattributed_s']:.6f} s = "
                        f"wall {m['trace.wall_s']:.4f} s")


def main() -> int:
    if not os.path.isfile(os.path.join("src", "dmshape", "cli.py")):
        print("run from the repository root", file=sys.stderr)
        return 2
    expected = wl.Expected.load(N, K)
    test = SelfTest()
    with wl.Checkout(os.getcwd()) as co:
        test.untraced(co, expected)
        test.codec()
        test.traced(co, expected)
    print("self-test", "failed" if test.failures else "passed")
    return 1 if test.failures else 0


if __name__ == "__main__":
    sys.exit(main())
