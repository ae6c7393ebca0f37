"""Exact combinatorial kernels.

These are the hot inner loops of the package: multiset rank/unrank walks,
the ESS shell walk (shells_upto: one count matrix, from a depth-first walk
that stops each level at the energy radius, so its cost follows its
output, and that refuses a ball of more than MAX_ESS_SHELLS shells before
forming any row), the complement-pair walk (pair_list; scanned_pairs keeps
its last list for pair_capacity and MPDM), and the column kernel
``multinomials``: the exact multinomial of every row of a count matrix
(validate's capacities, build_ess's shell sizes), each distinct binomial
formed once and the products taken in numpy's object loops.  The energy
ball's suffix-count table and its walks (trellis_build, ess_unrank,
ess_rank) serve only perfbench's kernel bench and the test oracle, as
energy_totals does.  All arithmetic that can overflow 64 bits is done with
Python ints, so every kernel is exact.
"""

import functools
from math import comb

import numpy as np

from .errors import RateInfeasibleError

# Rows per block of multinomials: a block holds this many bigints at once.
MULTINOMIAL_CHUNK = 4096

# Rows one shells_upto walk may return.  An ESS build peaks near 300 bytes
# of RSS per shell (297 MB for 989,150 shells at n=464), so this bounds it
# near 320 MB and still holds compare at n=432 (802,188 shells).
MAX_ESS_SHELLS = 1 << 20


def backend_name():
    """Name of the kernel implementation; there is only the pure one."""
    return "pure"


def mc_counts(counts):
    """Multinomial coefficient n! / prod(counts_i!), exact."""
    n = sum(counts)
    r = 1
    rest = n
    for x in counts:
        r *= comb(rest, x)
        rest -= x
    return r


def multinomials(counts, n):
    """Exact multinomials of the rows of an (L, m) matrix of compositions of n.

    Yields them as object arrays of Python ints, MULTINOMIAL_CHUNK rows at a
    time in row order, so no array of L bigints is held.  Row i's value is
    the product over j < m-1 of comb(rest_j, c_j), with rest_j = n minus the
    earlier counts, as in mc_counts; each distinct (rest_j, c_j) binomial is
    formed once for the whole matrix.  Every count must lie in [0, n] and
    each row must sum to n, with (n+1)^2 inside int64.
    """
    counts = np.asarray(counts, dtype=np.int64)
    binomials = {}

    def binomial(key):
        value = binomials.get(key)
        if value is None:
            value = binomials[key] = comb(*divmod(key, n + 1))
        return value

    for start in range(0, len(counts), MULTINOMIAL_CHUNK):
        head = counts[start:start + MULTINOMIAL_CHUNK, :-1]
        # one int64 key rest_j * (n+1) + c_j per binomial, built in place
        keys = np.cumsum(head, axis=1)
        keys -= head
        np.subtract(n, keys, out=keys)
        keys *= n + 1
        keys += head
        pairs, index = np.unique(keys, return_inverse=True)
        values = np.array(list(map(binomial, pairs.tolist())), dtype=object)
        yield np.multiply.reduce(values[index.reshape(keys.shape)], axis=1)


def cc_unrank(index, counts):
    """Lexicographic unranking of multiset permutations.

    Returns the sequence of level indices with the given rank among all
    arrangements of ``counts``.  Index 0 is the lexicographically smallest
    arrangement (lowest level indices first).
    """
    m = len(counts)
    rem = list(counts)
    n = sum(counts)
    total = mc_counts(counts)
    out = []
    for pos in range(n):
        r = n - pos
        for i in range(m):
            ci = rem[i]
            if ci == 0:
                continue
            cnt = total * ci // r
            if index < cnt:
                out.append(i)
                total = cnt
                rem[i] = ci - 1
                break
            index -= cnt
        else:
            raise ValueError("index out of range for composition")
    return out


def cc_rank(seq, counts):
    """Inverse of cc_unrank: rank of a level-index sequence."""
    m = len(counts)
    rem = list(counts)
    n = sum(counts)
    total = mc_counts(counts)
    index = 0
    for pos, s in enumerate(seq):
        r = n - pos
        if rem[s] == 0:
            raise ValueError("sequence does not match composition")
        for i in range(m):
            ci = rem[i]
            if ci == 0:
                continue
            cnt = total * ci // r
            if i == s:
                total = cnt
                rem[i] = ci - 1
                break
            index += cnt
    return index


def _advance(counts, m):
    """Step to the next composition in colexicographic order.

    Returns the index pair (src, dst) of the single-unit move when the step
    is incremental, or None after a bulk reset (caller recomputes state), or
    False when the scan is complete.
    """
    if counts[0] > 0:
        counts[0] -= 1
        counts[1] += 1
        return (0, 1)
    for j in range(1, m - 1):
        if counts[j] > 0:
            t = counts[j]
            counts[j] = 0
            counts[j + 1] += 1
            counts[0] = t - 1
            return None
    return False


def energy_totals(n, int_energies):
    """Sum of multinomial coefficients per integer energy over all compositions.

    Returns (totals, comp_counts): lists indexed by raw integer energy, where
    totals[e] is the exact number of length-n sequences with energy e and
    comp_counts[e] the number of compositions at that energy.
    """
    m = len(int_energies)
    emax = n * max(int_energies)
    totals = [0] * (emax + 1)
    ncomp = [0] * (emax + 1)
    counts = [n] + [0] * (m - 1)  # colex-first: all of n in level 0
    mc = 1
    e = n * int_energies[0]
    while True:
        totals[e] += mc
        ncomp[e] += 1
        step = _advance(counts, m)
        if step is False:
            break
        if step is None:
            mc = mc_counts(counts)
            e = sum(c * w for c, w in zip(counts, int_energies))
        else:
            src, dst = step
            # counts already updated: move of one unit src -> dst
            mc = mc * (counts[src] + 1) // counts[dst]
            e += int_energies[dst] - int_energies[src]
    return totals, ncomp


def shells_upto(n, int_energies, e_cap):
    """All compositions with integer energy <= e_cap, in colex order.

    Returns them as the rows of an (L, m) int64 matrix.  The walk goes
    depth first over levels m-1 .. 2, outermost first; level 1 is the sweep
    and level 0 holds the rest.  The levels ascend, so the energy e with the
    rest in level 0 is the least below that point, and each level stops at
    (e_cap - e) // (u_i - u_0).  A sweep inside the cap keeps one start row
    and one length, expanded into rows at the end.  A running count of the
    rows refuses more than MAX_ESS_SHELLS before any row is formed.  The
    walk keeps its own stack, so any number of levels is walked.
    """
    m = len(int_energies)
    u0 = int_energies[0]
    starts, lengths = [], []
    total = 0
    # (level, rest of n, counts of the levels above, e with the rest in 0)
    stack = [(m - 1, n, (), n * u0)]
    while stack:
        i, rem, suffix, e = stack.pop()
        step = int_energies[i] - u0
        hi = min(rem, (e_cap - e) // step)
        if i > 1:
            # pushed last first, so the walk pops them in colex order
            stack += [(i - 1, rem - ci, (ci,) + suffix, e + ci * step)
                      for ci in range(hi, -1, -1)]
        elif hi >= 0:
            total += hi + 1
            if total > MAX_ESS_SHELLS:
                raise RateInfeasibleError(
                    f"the ESS ball at n={n} over {m} levels holds more than "
                    f"MAX_ESS_SHELLS={MAX_ESS_SHELLS} shells")
            starts += (rem, 0) + suffix  # flat: no object per row
            lengths.append(hi + 1)
    lengths = np.array(lengths, dtype=np.int64)
    rows = np.repeat(np.array(starts, dtype=np.int64).reshape(-1, m),
                     lengths, axis=0)
    # position of each row within its sweep
    steps = np.arange(len(rows)) - np.repeat(
        np.cumsum(lengths) - lengths, lengths)
    rows[:, 0] -= steps
    rows[:, 1] += steps
    return rows


def pair_list(c0, min_payload):
    """All complement pairs around c0 with payload >= min_payload.

    Returns a list of (canonical counts, complement counts, payload) with the
    canonical member the colexicographically smaller one; each unordered pair
    appears exactly once, the pair {c0, c0} never.
    """
    m = len(c0)
    n = sum(c0)
    c0t = tuple(c0)
    box = [min(2 * a, n) for a in c0t]
    floor = 1 << min_payload
    pairs = []

    # Outer loops run over coordinates m-1 .. 2 in colex order; coordinate 1
    # varies along the inner line and coordinate 0 is the remainder.  C is the
    # colex-smaller member iff C_i < c0_i at the highest index where they
    # differ, so while every outer coordinate equals c0's ("tight") the next
    # one is capped at c0's value, and a tight line stops below c0[1].
    def rec(i, rem, suffix, tight):
        if i == 1:
            line(rem, suffix, tight)
            return
        hi = min(box[i], rem, c0t[i]) if tight else min(box[i], rem)
        for ci in range(hi + 1):
            rec(i - 1, rem - ci, (ci,) + suffix, tight and ci == c0t[i])

    def line(rem, suffix, tight):
        # Along the line one unit moves level 0 -> 1 per step, so MC(C) and
        # MC(2*c0 - C) are each a binomial in c1, hence log-concave: the
        # points where both reach 2^min_payload form one interval.
        lo = max(0, rem - box[0])
        hi = min(box[1], rem, c0t[1] - 1) if tight else min(box[1], rem)
        if lo > hi:
            return
        a, b = rem - lo, lo                    # C[0], C[1]
        ab, bb = 2 * c0t[0] - a, 2 * c0t[1] - b  # Cb[0], Cb[1]
        rest = tuple(2 * x - y for x, y in zip(c0t[2:], suffix))
        mc = mc_counts((a, b) + suffix)
        mcb = mc_counts((ab, bb) + rest)
        inside = False
        for c1 in range(lo, hi + 1):
            if c1 > lo:
                # one unit moved 0 -> 1 in C, and 1 -> 0 in Cb
                a -= 1
                b += 1
                ab += 1
                bb -= 1
                mc = mc * (a + 1) // b
                mcb = mcb * (bb + 1) // ab
            if mc >= floor and mcb >= floor:
                inside = True
                p = min(mc.bit_length(), mcb.bit_length()) - 1
                pairs.append(((a, b) + suffix, (ab, bb) + rest, p))
            elif inside:
                return

    rec(m - 1, n, (), True)
    # rec reaches itself through its closure cell; emptying the cell breaks
    # that cycle, so pairs is freed with its last reference, not by gc
    del rec
    return pairs


# The last pair box walked, as a list.  MPDM's winning target is the last
# candidate its selection scans, so enumerate_pairs finds the list here.
scanned_pairs = functools.lru_cache(maxsize=1)(pair_list)


def pair_capacity(c0, min_payload):
    """Total address space of complement pairs around c0.

    Returns sum over unordered pairs {C, 2*c0 - C} with payload >= min_payload
    of 2 * 2^payload, where payload = min(input_bits(C), input_bits(C_bar)).
    The walk's list replaces the last one in scanned_pairs, which is dropped
    first: two lists alive at once fragment the heap (+12 MB peak RSS in
    compare at n=432, where five candidates are scanned).
    """
    scanned_pairs.cache_clear()
    return sum(2 << p for _, _, p in scanned_pairs(tuple(c0), min_payload))


def trellis_build(n, deltas, width):
    """Suffix counts over an energy-offset grid.

    counts[i][w] = number of length-(n - i) level sequences whose summed
    energy offsets (deltas, smallest first, deltas[0] == 0) are at most w.
    counts is cumulative in w, so counts[n][w] = 1 for every w.
    """
    m = len(deltas)
    row = [1] * (width + 1)
    table = [row]
    for _ in range(n):
        prev = table[-1]
        cur = [0] * (width + 1)
        for w in range(width + 1):
            s = 0
            for j in range(m):
                d = deltas[j]
                if d > w:
                    break
                s += prev[w - d]
            cur[w] = s
        table.append(cur)
    table.reverse()
    return table


def ess_unrank(index, n, deltas, width, table):
    """Lexicographic index -> level-index sequence within the ball (unused by
    the codec; perfbench times it)."""
    m = len(deltas)
    out = []
    w = width
    for i in range(n):
        nxt = table[i + 1]
        for j in range(m):
            d = deltas[j]
            if d > w:
                raise ValueError("index out of range for energy ball")
            band = nxt[w - d]
            if index < band:
                out.append(j)
                w -= d
                break
            index -= band
        else:
            raise ValueError("index out of range for energy ball")
    return out


def ess_rank(seq, n, deltas, width, table):
    """Inverse of ess_unrank."""
    index = 0
    w = width
    for i, s in enumerate(seq):
        nxt = table[i + 1]
        for j in range(s):
            d = deltas[j]
            if d <= w:
                index += nxt[w - d]
        d = deltas[s]
        if d > w:
            raise ValueError("sequence exceeds the energy ball")
        w -= d
    return index
