#!/usr/bin/env python3
"""One workload pass in a fresh interpreter, traced or plain.

The traced pass wraps public functions of the dmshape modules at run time
(nothing under ``src/`` changes) and records one span per call: name, start,
end and the enclosing span.  A layer's self time is its span time minus its
direct children's; self times plus the unattributed remainder equal the
traced wall time.  Hot per-composition kernels (``mc_counts``, the rank and
unrank walks) stay unwrapped.  The plain pass runs the same work unwrapped,
so the difference of the two walls is the tracing overhead; it then times
the kernel entry points at fixed inputs.

    PYTHONPATH=src python3 perfbench/tracer.py --workload ref-compare --traced 1

Run from the repository root; the last stdout line is a JSON object.
``perfbench/run.py --trace 1`` runs both passes and reports the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import random
import statistics
import sys
import time

import workloads as wl

SPANS = (
    # (module, attribute, span name): the layers of the pipeline
    ("dmshape.cli", "main", "cli.main"),
    ("dmshape.config", "RunConfig.resolve_model", "config.resolve_model"),
    ("dmshape.ccdm", "build_ccdm", "ccdm.build_ccdm"),
    ("dmshape.ccdm", "mb_composition_chain", "ccdm.mb_composition_chain"),
    ("dmshape.mpdm", "build_mpdm", "mpdm.build_mpdm"),
    ("dmshape.mpdm", "select_mpdm_target", "mpdm.select_mpdm_target"),
    ("dmshape.kernels", "pair_capacity", "kernels.pair_capacity"),
    ("dmshape.mpdm", "enumerate_pairs", "mpdm.enumerate_pairs"),
    ("dmshape.mpdm", "assemble_tree", "mpdm.assemble_tree"),
    ("dmshape.schemes", "exact_cover", "schemes.exact_cover"),
    ("dmshape.schemes", "CompositionSet.validate", "schemes.validate"),
    ("dmshape.ess", "build_ess", "ess.build_ess"),
    ("dmshape.kernels", "energy_totals", "ess.radius"),
    ("dmshape.kernels", "shells_upto", "ess.shells_upto"),
    ("dmshape.optimizer", "build_opt_mpdm", "optimizer.build_opt_mpdm"),
    ("dmshape.optimizer", "compare_schemes", "optimizer.compare_schemes"),
    ("dmshape.nli", "analyze", "nli.analyze"),
    ("dmshape.schemefile", "write_scheme", "schemefile.write_scheme"),
    ("dmshape.schemefile", "read_scheme", "schemefile.read_scheme"),
    ("dmshape.codec", "SchemeCodec.__init__", "codec.init"),
    ("dmshape.kernels", "trellis_build", "kernels.trellis_build"),
    ("dmshape.codec", "SchemeCodec.encode", "codec.encode"),
    ("dmshape.codec", "SchemeCodec.decode", "codec.decode"),
)

# Spans reported per scheme; the scheme is read from the call's arguments.
TAGS = {
    "nli.analyze": lambda a: a[0].scheme,
    "codec.init": lambda a: a[1].scheme,
    "codec.encode": lambda a: a[0].set.scheme,
    "codec.decode": lambda a: a[0].set.scheme,
}

# Spans whose total (inclusive) time is reported as `<span>_s`, or per scheme
# as `<span>_s.<scheme>` for the tagged ones.
INCLUSIVE = (
    "config.resolve_model", "ccdm.mb_composition_chain",
    "mpdm.select_mpdm_target", "mpdm.enumerate_pairs", "mpdm.assemble_tree",
    "schemes.exact_cover", "schemes.validate", "ess.radius",
    "ess.shells_upto", "ess.build_ess", "nli.analyze",
    "schemefile.write_scheme", "schemefile.read_scheme", "codec.init",
    "kernels.trellis_build",
)

# Self time of every span, by metric name.
SELF = {name: f"self.{name}_s" for _, _, name in SPANS}
SELF["cli.main"] = "cli.self_s"
SELF["optimizer.build_opt_mpdm"] = "optimizer.build_opt_mpdm_s"

# Counters: (name, span, amount as a function of (args, result), and whether
# calls repeating earlier arguments are skipped, as cached calls would be).
COUNTERS = (
    ("ccdm.chain_len", "ccdm.mb_composition_chain", lambda a, r: len(r), True),
    ("mpdm.candidates_scanned", "kernels.pair_capacity", lambda a, r: 1, False),
    ("mpdm.pairs", "mpdm.enumerate_pairs", lambda a, r: len(r), True),
    ("schemes.validate_leaves", "schemes.validate",
     lambda a, r: len(a[0].leaves), False),
    ("ess.shells", "ess.shells_upto", lambda a, r: len(r), False),
    ("nli.analyze_leaves", "nli.analyze", lambda a, r: len(r.entries), False),
    ("schemefile.bytes", "schemefile.write_scheme",
     lambda a, r: os.path.getsize(a[1]), False),
    ("schemefile.bytes", "schemefile.read_scheme",
     lambda a, r: os.path.getsize(a[0]), False),
)

KERNEL_BENCH = ("cc_round_trip", "energy_totals", "shells_upto", "pair_list",
                "trellis_build", "ess_round_trip")


def _per_scheme(prefix: str) -> list[str]:
    return [f"{prefix}.{s}" for s in wl.SCHEMES]


def _unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if "_us_p50." in name:
        return "us"
    return "bytes" if name == "schemefile.bytes" else "count"


# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = {name: _unit(name) for name in (
    ["trace.wall_s", "trace.unattributed_s", "trace.overhead_s",
     "dmshape.import_s"]
    + [m for span in INCLUSIVE
       for m in (_per_scheme(f"{span}_s") if span in TAGS else [f"{span}_s"])]
    + _per_scheme("codec.encode_us_p50") + _per_scheme("codec.decode_us_p50")
    + [name for name, *_ in COUNTERS]
    + ["codec.zero_weight_words"]
    + list(SELF.values())
    + [f"kernels.bench.{k}_ms" for k in KERNEL_BENCH]
)}


class Tracer:
    """In-memory span recorder that wraps functions by module attribute."""

    def __init__(self):
        self.spans = []  # [name, tag, start, end, parent index]
        self.stack = []
        self.counts = dict.fromkeys((name for name, *_ in COUNTERS), 0)
        self.seen = set()

    def wrap(self, fn, name):
        tag_of = TAGS.get(name)
        counters = [(c, amount, once) for c, span, amount, once in COUNTERS
                    if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, tag_of(args) if tag_of else None,
                    time.perf_counter(), None,
                    self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[3] = time.perf_counter()
            for counter, amount, once in counters:
                if once:
                    key = (counter, repr(args))
                    if key in self.seen:
                        continue
                    self.seen.add(key)
                self.counts[counter] += amount(args, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "dmshape" or n.startswith("dmshape.")]
        for mod_name, attr, name in SPANS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(vars(cls)[meth], name))
                continue
            old = getattr(owner, attr)
            new = self.wrap(old, name)
            # rebind every reference: `from .x import f` copies and registries
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is old:
                        setattr(mod, key, new)
                    elif isinstance(val, dict) and key != "__builtins__":
                        for dk, dv in list(val.items()):
                            if dv is old:
                                val[dk] = new

    def metrics(self, wall: float) -> dict:
        """Inclusive and self times, codec medians, counts and the remainder."""
        child_time = [0.0] * len(self.spans)
        roots = 0.0
        for name, tag, t0, t1, parent in self.spans:
            if parent < 0:
                roots += t1 - t0
            else:
                child_time[parent] += t1 - t0
        out = dict.fromkeys(SELF.values(), 0.0)
        samples: dict[tuple, list] = {}
        for i, (name, tag, t0, t1, parent) in enumerate(self.spans):
            out[SELF[name]] += t1 - t0 - child_time[i]
            if not self._nested_in_itself(i):
                samples.setdefault((name, tag), []).append(t1 - t0)
        for (name, tag), xs in samples.items():
            if name in INCLUSIVE:
                out[f"{name}_s" if tag is None else f"{name}_s.{tag}"] = sum(xs)
            elif name in ("codec.encode", "codec.decode"):
                op = name.split(".")[1]
                out[f"codec.{op}_us_p50.{tag}"] = statistics.median(xs) * 1e6
        out.update(self.counts)
        out["trace.wall_s"] = wall
        out["trace.unattributed_s"] = wall - roots
        return out

    def _nested_in_itself(self, i: int) -> bool:
        name, parent = self.spans[i][0], self.spans[i][4]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][4]
        return False


def cli(argv: list[str]) -> bytes:
    """Run the CLI in this process; return its stdout, raise on a non-zero exit."""
    import dmshape.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dmshape.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"dmshape {' '.join(argv[:2])} exited {code}")
    return buf.getvalue().encode()


# A pass runs one operation of a workload; it returns its failed checks and
# the counts it measured outside the spans.

def pass_ref_compare(co, seed, n, k, expected) -> tuple[list, dict]:
    out = cli(["compare", "--n", str(n), "--k", str(k)])
    return [] if out == expected.compare else ["compare stdout differs"], {}


def pass_ess_files(co, seed, n, k, expected) -> tuple[list, dict]:
    """The file flow with caches emptied before each step, as in a new process."""
    word = random.Random(seed).getrandbits(k)
    scheme, prefix = co.path("ess.scheme"), co.path("ess")
    errors = []
    wl.clear_caches()
    cli(["build", "--scheme", "ess", "--n", str(n), "--k", str(k),
         "--out", scheme])
    if wl.file_sha256(scheme) != expected.ess_sha256:
        errors.append("scheme file hash differs from the seed's")
    wl.clear_caches()
    cli(["analyze", scheme, "--config", wl.ESS_CONFIG, "--out", prefix])
    if wl.read_bytes(prefix + "_aggregates.csv") != expected.ess_aggregates:
        errors.append("_aggregates.csv differs from the seed's")
    wl.clear_caches()
    seq = cli(["codec", "encode", scheme, f"0x{word:x}"]).decode().strip()
    wl.clear_caches()
    back = cli(["codec", "decode", scheme, seq]).decode().strip()
    if back != f"0x{word:0{(k + 3) // 4}x}":
        errors.append(f"codec decode did not return word 0x{word:x}")
    return errors, {}


TRACE_ROUNDS = 256  # codec-stream: rounds of one word per scheme


def pass_codec_stream(co, seed, n, k, expected) -> tuple[list, dict]:
    codecs = wl.build_codecs(n, k)
    checker = wl.CodecChecker(codecs)
    rng = random.Random(seed)
    errors = []
    for _ in range(TRACE_ROUNDS):
        for s in wl.SCHEMES:
            word = rng.getrandbits(k)
            seq = codecs[s].encode(word)
            error = checker.check(s, word, seq, codecs[s].decode(seq))
            if error:
                errors.append(error)
    return errors, {"codec.zero_weight_words": checker.zero_weight_words}


PASSES = {
    "ref-compare": pass_ref_compare,
    "ess-files": pass_ess_files,
    "codec-stream": pass_codec_stream,
}


def _best_ms(fn, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def kernel_bench() -> dict:
    """Best-of-three ms of the kernel entry points that
    ``benchmarks/bench_kernels.py`` times, at its inputs, on the active
    backend only."""
    from dmshape import kernels as kb
    counts = (102, 70, 33, 11)
    energies = (1, 9, 25, 49)
    n = 216
    rng = random.Random(11)
    mc = kb.mc_counts(counts)
    words = [rng.randrange(mc) for _ in range(2000)]
    c0 = (105, 70, 31, 10)
    pmin = kb.mc_counts(c0).bit_length() - 1 - 40
    deltas, width = (0, 1, 3, 6), 222
    table = kb.trellis_build(n, deltas, width)
    ess_words = [rng.randrange(min(table[0][width], 1 << 349))
                 for _ in range(2000)]

    def cc_round_trip():
        for w in words:
            kb.cc_rank(kb.cc_unrank(w, counts), counts)

    def ess_round_trip():
        for w in ess_words:
            kb.ess_rank(kb.ess_unrank(w, n, deltas, width, table),
                        n, deltas, width, table)

    runs = {
        "cc_round_trip": cc_round_trip,
        "energy_totals": lambda: kb.energy_totals(n, energies),
        "shells_upto": lambda: kb.shells_upto(n, energies, n * 9),
        "pair_list": lambda: kb.pair_list(c0, pmin),
        "trellis_build": lambda: kb.trellis_build(n, deltas, width),
        "ess_round_trip": ess_round_trip,
    }
    return {f"kernels.bench.{name}_ms": _best_ms(runs[name])
            for name in KERNEL_BENCH}


def run_pass(workload: str, seed: int, traced: bool, n: int = wl.N,
             k: int = wl.K) -> dict:
    """Import dmshape, run one pass of the workload; return what it measured."""
    t0 = time.perf_counter()
    import dmshape.cli  # noqa: F401  (in a fresh interpreter: a cold import)
    import dmshape.kernels
    import_s = time.perf_counter() - t0
    expected = wl.Expected.load(n, k)
    tracer = Tracer()
    if traced:
        tracer.install()
    with wl.Checkout(os.getcwd()) as co:
        t0 = time.perf_counter()
        try:
            errors, counts = PASSES[workload](co, seed, n, k, expected)
        except Exception as exc:  # reported as a failed operation
            errors, counts = [f"{type(exc).__name__}: {exc}"], {}
        wall = time.perf_counter() - t0
    if traced:
        metrics = tracer.metrics(wall)
    else:
        metrics = kernel_bench()
        metrics["dmshape.import_s"] = import_s
    metrics.update(counts)
    return {"backend": dmshape.kernels.backend_name(), "wall_s": wall,
            "errors": errors, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=1)
    parser.add_argument("--n", type=int, default=wl.N)
    parser.add_argument("--k", type=int, default=wl.K)
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.traced),
                              args.n, args.k)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
