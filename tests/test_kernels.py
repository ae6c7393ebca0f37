"""Backend parity: the compiled kernels must match the pure ones bit for bit."""

import os
import random

import pytest

from dmshape import kernels
from dmshape.kernels import pure

speed = pytest.importorskip("dmshape.kernels._speed",
                            reason="compiled kernels not built")

BACKENDS = [pure, speed]


def random_composition(rng, n, m):
    cuts = sorted(rng.sample(range(n + m - 1), m - 1))
    return tuple(b - a - 1 for a, b in zip([-1] + cuts, cuts + [n + m - 1]))


@pytest.mark.skipif(os.environ.get("DMSHAPE_PURE") == "1",
                    reason="pure backend forced via environment")
def test_active_backend_is_compiled():
    assert kernels.backend_name() == "cython"


def test_mc_and_cc_parity():
    rng = random.Random(7)
    for _ in range(150):
        m = rng.randint(2, 5)
        n = rng.randint(1, 12)
        counts = random_composition(rng, n, m)
        mc_p = pure.mc_counts(counts)
        assert mc_p == speed.mc_counts(counts)
        for _ in range(4):
            i = rng.randrange(mc_p) if mc_p > 0 else 0
            s = pure.cc_unrank(i, counts)
            assert s == speed.cc_unrank(i, counts)
            assert pure.cc_rank(s, counts) == speed.cc_rank(s, counts) == i


@pytest.mark.parametrize("energies", [(1, 9), (1, 9, 25), (1, 9, 25, 49),
                                      (2, 5, 11)])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_scan_parity(energies, n):
    assert pure.energy_totals(n, energies) == speed.energy_totals(n, energies)
    cap = (n * energies[0] + n * energies[-1]) // 2
    assert pure.shells_upto(n, energies, cap) == speed.shells_upto(n, energies, cap)


@pytest.mark.parametrize("c0", [(3, 2, 1), (5, 3, 2, 1), (10, 6, 3, 1), (4, 2)])
@pytest.mark.parametrize("pmin", [0, 1, 3])
def test_pair_parity(c0, pmin):
    assert sorted(pure.pair_list(c0, pmin)) == sorted(speed.pair_list(c0, pmin))
    assert pure.pair_capacity(c0, pmin) == speed.pair_capacity(c0, pmin)


@pytest.mark.parametrize("deltas,width,n", [((0, 4), 10, 5),
                                            ((0, 4, 12, 24), 40, 8),
                                            ((0, 1), 3, 4)])
def test_trellis_parity(deltas, width, n):
    rng = random.Random(3)
    t_p = pure.trellis_build(n, deltas, width)
    t_s = speed.trellis_build(n, deltas, width)
    assert t_p == t_s
    total = t_p[0][width]
    for i in rng.sample(range(total), min(40, total)):
        a = pure.ess_unrank(i, n, deltas, width, t_p)
        assert a == speed.ess_unrank(i, n, deltas, width, t_s)
        assert pure.ess_rank(a, n, deltas, width, t_p) == \
            speed.ess_rank(a, n, deltas, width, t_s) == i


def test_simplex_totals_are_m_to_n():
    for backend in BACKENDS:
        totals, ncomp = backend.energy_totals(7, (1, 9, 25))
        assert sum(totals) == 3 ** 7
        assert sum(ncomp) == 36  # C(9, 2)


def test_scheme_bytes_identical_across_backends(tmp_path):
    # builders only take integers from the kernels, so a forced-pure build
    # must produce byte-identical scheme files
    import subprocess
    import sys

    from dmshape.schemefile import scheme_to_text
    import dmshape as d

    script = (
        "import dmshape as d, sys\n"
        "from dmshape.schemefile import scheme_to_text\n"
        "a2 = d.AmplitudeAlphabet((1, 3))\n"
        "sys.stdout.write(scheme_to_text(d.build_mpdm(8, 5, a2)))\n"
        "sys.stdout.write(scheme_to_text(d.build_ess(8, 6, a2)))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env=dict(os.environ, DMSHAPE_PURE="1"))
    assert proc.returncode == 0, proc.stderr
    a2 = d.AmplitudeAlphabet((1, 3))
    local = scheme_to_text(d.build_mpdm(8, 5, a2)) + \
        scheme_to_text(d.build_ess(8, 6, a2))
    assert proc.stdout == local
