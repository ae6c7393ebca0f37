"""The three benchmark workloads, measured untraced, with their correctness checks.

Every operation is checked; a mismatch or an error counts as one failed
operation and never aborts the run.  Operations run one at a time (a closed
loop with a single client): the next one starts when the previous one has
finished, until the run has measured for the requested number of seconds
(see ``keep_going``).

- ref-compare: sequential ``python -m dmshape.cli compare`` processes.
- ess-files:   sequential CLI processes ``build --scheme ess``, ``analyze``,
               ``codec encode`` and ``codec decode`` on the same scheme file.
- codec-stream: in this process, seeded uniform k-bit words round-robin
               over the four reference schemes, each encoded and decoded.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from statistics import median

N, K = 216, 349
SCHEMES = ("ccdm", "mpdm", "ess", "opt-mpdm")
HERE = os.path.dirname(os.path.abspath(__file__))
ESS_CONFIG = os.path.join(HERE, "ess.cfg")
# Cold starts timed as set-up for the CLI workloads; the median is reported.
IMPORT_PROBES = 5
# Scheme+codec builds timed as set-up for codec-stream.  Each costs ~11 s on
# the pure backend, so two is what the run budget allows.
CODEC_SETUPS = 2
PROBE = ("import dmshape.cli, dmshape.kernels as k; "
         "print(k.backend_name())")


@dataclass
class Expected:
    """Seed outputs at one (n, k): compare table, ESS file hash, aggregates."""

    compare: bytes
    ess_sha256: str
    ess_aggregates: bytes

    @classmethod
    def load(cls, n: int, k: int) -> "Expected":
        base = os.path.join(HERE, "expected", f"{n}_{k}")
        with open(os.path.join(base, "compare.csv"), "rb") as fh:
            compare = fh.read()
        with open(os.path.join(base, "ess.sha256"), encoding="ascii") as fh:
            sha = fh.read().strip()
        with open(os.path.join(base, "ess_aggregates.csv"), "rb") as fh:
            aggregates = fh.read()
        return cls(compare, sha, aggregates)


@dataclass
class Result:
    """What one untraced run measured."""

    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    backend: str = "unknown"
    # (name, value, unit, note): reported by name, not part of the gate.
    notes: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 10:
            print(f"FAILED: {what}", file=sys.stderr)


class Checkout:
    """The repository under test: runs its CLI from ``src/`` in a work dir."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.src = os.path.join(self.root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p)
        self.work = os.path.join(self.root, ".perfbench_work", str(os.getpid()))

    def __enter__(self) -> "Checkout":
        os.makedirs(self.work, exist_ok=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def run(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        """Run one Python child to completion; return it and its wall time."""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=self.work,
                              env=self.env, capture_output=True, timeout=170)
        return proc, time.perf_counter() - t0

    def cli(self, *args: str) -> tuple[subprocess.CompletedProcess, float]:
        return self.run(["-m", "dmshape.cli", *args])

    def cold_start(self, result: Result) -> None:
        """Set-up of the CLI workloads: a fresh interpreter importing the CLI."""
        for _ in range(IMPORT_PROBES):
            proc, dt = self.run(["-c", PROBE])
            if proc.returncode != 0:
                raise RuntimeError("cannot import dmshape from src/: "
                                   + proc.stderr.decode(errors="replace"))
            result.setup_s.append(dt)
        result.backend = proc.stdout.decode().strip()


def keep_going(start: float, seconds: float, op_s: list) -> bool:
    """Start another operation?  Always a first one; then while fewer than
    ``seconds`` have passed and, judged by the last operation, the next one
    would end no later than half of ``seconds`` past them.  Operations of the
    CLI workloads take 10-20 s, so this keeps a run's length bounded."""
    if not op_s:
        return True
    elapsed = time.perf_counter() - start
    return elapsed < seconds and elapsed + op_s[-1] <= 1.5 * seconds


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def ref_compare(co: Checkout, seed: int, seconds: float, n: int = N,
                k: int = K, expected: Expected | None = None) -> Result:
    """``dmshape compare`` with the calibrated default model, stdout checked."""
    del seed  # the compare table has no random input
    expected = expected or Expected.load(n, k)
    res = Result()
    co.cold_start(res)
    start = time.perf_counter()
    while keep_going(start, seconds, res.op_s):
        proc, dt = co.cli("compare", "--n", str(n), "--k", str(k))
        res.op_s.append(dt)
        res.attempted += 1
        if proc.returncode != 0 or proc.stdout != expected.compare:
            res.fail(f"compare exit {proc.returncode}, stdout md5 "
                     f"{hashlib.md5(proc.stdout).hexdigest()}")
    res.peak_rss_mb = children_peak_rss_mb()
    return res


def ess_flow(co: Checkout, word: int, n: int, k: int,
             expected: Expected, steps: dict) -> list[str]:
    """One README file flow; returns the list of failed checks."""
    scheme = co.path("ess.scheme")
    prefix = co.path("ess")
    for stale in (scheme, prefix + "_aggregates.csv"):
        if os.path.exists(stale):
            os.remove(stale)
    errors = []

    def step(name, *args):
        proc, dt = co.cli(*args)
        steps.setdefault(name, []).append(dt)
        if proc.returncode != 0:
            errors.append(f"{name} exit {proc.returncode}: "
                          + proc.stderr.decode(errors="replace")[-200:])
        return proc

    step("build", "build", "--scheme", "ess", "--n", str(n), "--k", str(k),
         "--out", scheme)
    if file_sha256(scheme) != expected.ess_sha256:
        errors.append("scheme file hash differs from the seed's")
    step("analyze", "analyze", scheme, "--config", ESS_CONFIG, "--out", prefix)
    if read_bytes(prefix + "_aggregates.csv") != expected.ess_aggregates:
        errors.append("_aggregates.csv differs from the seed's")
    enc = step("encode", "codec", "encode", scheme, f"0x{word:x}")
    if enc.returncode == 0:
        dec = step("decode", "codec", "decode", scheme, enc.stdout.decode().strip())
        if dec.stdout.decode().strip() != f"0x{word:0{(k + 3) // 4}x}":
            errors.append(f"codec decode did not return word 0x{word:x}")
    return errors


def ess_files(co: Checkout, seed: int, seconds: float, n: int = N,
              k: int = K, expected: Expected | None = None) -> Result:
    """build -> analyze -> codec encode -> codec decode through one ESS file."""
    expected = expected or Expected.load(n, k)
    rng = random.Random(seed)
    res = Result()
    co.cold_start(res)
    steps: dict[str, list[float]] = {}
    start = time.perf_counter()
    while keep_going(start, seconds, res.op_s):
        word = rng.getrandbits(k)
        t0 = time.perf_counter()
        errors = ess_flow(co, word, n, k, expected, steps)
        res.op_s.append(time.perf_counter() - t0)
        res.attempted += 1
        if errors:
            res.fail("; ".join(errors))
    res.peak_rss_mb = children_peak_rss_mb()
    for name, walls in steps.items():
        res.notes.append((f"{name}_call_s", median(walls), "s",
                          f"median of {len(walls)} CLI calls"))
    return res


def clear_caches() -> None:
    """Empty every functools cache in the loaded dmshape modules."""
    for name, mod in list(sys.modules.items()):
        if name == "dmshape" or name.startswith("dmshape."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def build_codecs(n: int, k: int) -> dict:
    """Cold-build the four reference schemes and their codecs."""
    from dmshape.cli import BUILDERS
    from dmshape.codec import SchemeCodec
    clear_caches()
    return {s: SchemeCodec(BUILDERS[s](n, k)) for s in SCHEMES}


class CodecChecker:
    """Per-scheme round-trip and leaf-membership checks for codec words.

    Also counts words whose composition is a leaf of zero weight: the ESS
    codec takes the first 2^k sequences of the energy ball in lexicographic
    order, while the scheme's weights assume the shells are used in energy
    order, so such words occur (about one ESS word in four at n=216, k=349).
    """

    def __init__(self, codecs: dict):
        self.weights = {s: {leaf.counts: leaf.weight for leaf in c.set.leaves}
                        for s, c in codecs.items()}
        self.levels = next(iter(codecs.values())).set.alphabet.levels
        self.zero_weight_words = 0

    def check(self, scheme: str, word: int, seq, back: int) -> str | None:
        if back != word:
            return f"{scheme}: decode(encode(w)) != w for w=0x{word:x}"
        counts = tuple(seq.count(level) for level in self.levels)
        weight = self.weights[scheme].get(counts)
        if weight is None:
            return f"{scheme}: encoded composition {counts} is not a leaf"
        self.zero_weight_words += weight == 0
        return None


def codec_stream(root: str, seed: int, seconds: float, n: int = N,
                 k: int = K, rounds: int | None = None) -> Result:
    """Seeded uniform words, round-robin over the schemes, in this process.

    One operation is one word; ``wall_s`` is the median of one round (one
    word through each of the four schemes), so a change to any scheme's
    codec moves it.  With ``rounds`` set, exactly that many rounds run.
    """
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    import dmshape.kernels
    res = Result(backend=dmshape.kernels.backend_name())
    for _ in range(CODEC_SETUPS):
        codecs = None  # release the previous build before timing the next
        t0 = time.perf_counter()
        codecs = build_codecs(n, k)
        res.setup_s.append(time.perf_counter() - t0)
    checker = CodecChecker(codecs)
    rng = random.Random(seed)
    enc, dec = [], []
    codec_time = 0.0
    start = time.perf_counter()
    while (len(res.op_s) < rounds if rounds is not None
           else keep_going(start, seconds, res.op_s)):
        round_s = 0.0
        for s in SCHEMES:
            word = rng.getrandbits(k)
            res.attempted += 1
            try:
                t0 = time.perf_counter()
                seq = codecs[s].encode(word)
                t1 = time.perf_counter()
                back = codecs[s].decode(seq)
                t2 = time.perf_counter()
            except Exception:  # a failed word is counted, the stream goes on
                res.fail(f"{s}: word 0x{word:x}\n{traceback.format_exc()}")
                continue
            enc.append(t1 - t0)
            dec.append(t2 - t1)
            round_s += t2 - t0
            error = checker.check(s, word, seq, back)
            if error:
                res.fail(error)
        res.op_s.append(round_s)
        codec_time += round_s
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    res.notes += [
        ("codec_mbit_s", len(enc) * k / codec_time / 1e6, "Mbit/s",
         f"{len(enc)} words of {k} bits round-tripped"),
        ("encode_us_p50", median(enc) * 1e6, "us", f"n={len(enc)}"),
        ("encode_us_p99", quantile(enc, 0.99) * 1e6, "us", f"n={len(enc)}"),
        ("decode_us_p50", median(dec) * 1e6, "us", f"n={len(dec)}"),
        ("decode_us_p99", quantile(dec, 0.99) * 1e6, "us", f"n={len(dec)}"),
        ("zero_weight_words", checker.zero_weight_words, "count",
         "words encoded to a composition of zero weight in its scheme"),
    ]
    return res


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    xs = sorted(values)
    return xs[min(len(xs) - 1, max(0, math.ceil(q * len(xs)) - 1))]


def file_sha256(path: str) -> str | None:
    data = read_bytes(path)
    return None if data is None else hashlib.sha256(data).hexdigest()


def read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None
