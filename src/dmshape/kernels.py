"""Exact combinatorial kernels.

These are the hot inner loops of the package: the codec's rank and unrank
of multiset permutations in one level-split order (cc_rank, cc_unrank),
which read their binomials from one cached table (binomial_columns) up to
MAX_TABLE_N and update one binomial per step above it; the ESS shell walk
(shells_upto: one count matrix, from a depth-first walk that stops each
level at the energy radius, so its cost follows its output, and that
refuses a ball of more than MAX_ESS_SHELLS shells before forming any row);
the complement-pair walk (pair_list: one array of canonical members and
payloads, bounded by MAX_MPDM_PAIRS; scanned_pairs keeps the last for
pair_capacity and MPDM); and the column kernel ``multinomials``: the exact
multinomial of every row of a count matrix (validate's capacities,
build_ess's shell sizes), each distinct binomial formed once and the
products taken in numpy's object loops, by multinomial_blocks, which also
serves a pass that meets its blocks one at a time (the ESS used counts a
scheme file or a table derives); the codec derives a few leaves' words
per word with row_multinomials.  The energy ball's suffix-count
table and its walks (trellis_build, ess_unrank, ess_rank) serve only
perfbench's kernel bench and the test oracle, as energy_totals does.  All
arithmetic that can overflow 64 bits is done with Python ints, so every
kernel is exact.
"""

import functools
from bisect import bisect_right
from itertools import accumulate
from math import comb

import numpy as np

from .errors import RateInfeasibleError

# Rows per block of every column walk: multinomials, validate, analyze, the
# scheme file's leaf lines and the MB lambda grid.  A block holds this many
# bigints, floats or lines at once, where one tolist() of the n=216 ESS counts
# would hold 108,990 lists (~10 MB).  Read at each walk, never copied.
CHUNK = 4096


def chunks(size):
    """Consecutive slices of at most CHUNK rows that cover range(size)."""
    step = CHUNK
    for start in range(0, size, step):
        yield slice(start, min(start + step, size))


# Rows one shells_upto walk may return.  An ESS build peaks near 190 bytes
# of RSS per shell in one process (44 MB for 108,990 shells at n=216,
# 151 MB for 802,188 at n=432, 183 MB for 989,150 at n=464), so this bounds
# it near 200 MB and still holds compare at n=432.
MAX_ESS_SHELLS = 1 << 20

# Pairs one pair_list walk may return.  An MPDM build peaks near 55 bytes of
# RSS per pair in one process over 8 levels (61 MB for 558,016 pairs at n=56,
# 179 MB for 2,723,472 at n=64, 205 MB for that opt-mpdm), so this bounds it
# near 200 MB, as MAX_ESS_SHELLS does the ESS build.
MAX_MPDM_PAIRS = 3 << 20


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


def multinomial_blocks(n):
    """A function from a block of compositions of n, an (L, m) count matrix,
    to the exact multinomials of its rows as an object array of Python ints.

    Row i's value is the product over j < m-1 of comb(rest_j, c_j), with
    rest_j = n minus the earlier counts, as in mc_counts.  Each distinct
    (rest_j, c_j) binomial is formed once over every block the function is
    given, so one function serves one pass over a column of blocks.  Every
    count must lie in [0, n] and each row must sum to n, with (n+1)^2 inside
    int64.  Each block is cast to int64 on its own.
    """
    binomials = {}

    def binomial(key):
        value = binomials.get(key)
        if value is None:
            value = binomials[key] = comb(*divmod(key, n + 1))
        return value

    def block_multinomials(counts):
        head = np.asarray(counts[:, :-1], dtype=np.int64)
        # one int64 key rest_j * (n+1) + c_j per binomial, built in place
        keys = np.cumsum(head, axis=1)
        keys -= head
        np.subtract(n, keys, out=keys)
        keys *= n + 1
        keys += head
        pairs, index = np.unique(keys, return_inverse=True)
        values = np.array(list(map(binomial, pairs.tolist())), dtype=object)
        return np.multiply.reduce(values[index.reshape(keys.shape)], axis=1)

    return block_multinomials


def multinomials(counts, n):
    """Exact multinomials of the rows of an (L, m) matrix of compositions of n.

    Yields them as object arrays of Python ints, CHUNK rows at a time in row
    order, so no array of L bigints is held, from one multinomial_blocks(n):
    each distinct binomial is formed once for the whole matrix, and a narrow
    count matrix is never copied whole.
    """
    block_multinomials = multinomial_blocks(n)
    for rows in chunks(len(counts)):
        yield block_multinomials(counts[rows])


# Largest block length whose binomial table cc_unrank and cc_rank build.
# binomial_columns takes 0.95 MB at n=216, 4.7 MB at n=432 and 7.1 MB here
# (tracemalloc), built in ~6 ms; its digits grow as n^3, to an estimated
# ~270 MB at n=2,048.  Above the bound the same order comes from a walk that
# updates one binomial per step: ~1 ms a word each way at n=2,048 over two
# levels.
MAX_TABLE_N = 512


@functools.lru_cache(maxsize=1)
def binomial_columns(n):
    """cols[a][p] = C(p, a) for 0 <= a <= n // 2 and 0 <= p <= n.

    Each column is the running sum of the one before (Pascal's rule summed
    along p), so the table costs additions only.  The last n asked for is
    cached, and the four codecs of one block length share it.
    """
    col = [1] * (n + 1)
    cols = [col]
    for _ in range(n // 2):
        col = [0, *accumulate(col[:n])]
        cols.append(col)
    return cols


def row_multinomials(rows, n):
    """Exact multinomials of a few compositions of n (lists of counts), one
    at a time: the product of C(r, c) = C(r, r - c) read from
    binomial_columns(n) up to MAX_TABLE_N, mc_counts above it.  This is the
    codec's per-word rule; whole columns go through multinomials."""
    if n > MAX_TABLE_N:
        yield from map(mc_counts, rows)
        return
    cols = binomial_columns(n)
    for row in rows:
        r, mc = n, 1
        for c in row[:-1]:
            mc *= cols[c][r] if c + c <= r else cols[r - c][r]
            r -= c
        yield mc


def _split(counts):
    """(r, a, take) for every level t but the last, in level order.

    r is the number of positions still free at level t, after the levels
    below it took theirs.  take says whether level t's own c_t positions
    form its subset (when c_t <= r - c_t) or the r - c_t positions of the
    levels above it do; a is that subset's size, so a <= r // 2.
    """
    r = sum(counts)
    split = []
    for c in counts[:-1]:
        take = 2 * c <= r
        split.append((r, c if take else r - c, take))
        r -= c
    return split


def _colex_unrank_table(d, r, a, cols):
    """The a of r positions with colex rank d, highest first: each is the
    largest p with C(p, i) <= what is left of d, found by bisection down
    column i."""
    sub = []
    p = r
    for col in reversed(cols[1:a + 1]):
        p = bisect_right(col, d, 0, p) - 1
        d -= col[p]
        sub.append(p)
    return sub


def _colex_unrank_walk(d, r, a, size):
    """_colex_unrank_table without a table: p walks down from r - 1 with
    b = C(p, i) updated by one multiply and one divide a step; size is
    C(r, a)."""
    sub = []
    i, p = a, r - 1
    b = size * (r - a) // r if a else 0  # C(r - 1, a)
    while i:
        if b <= d:
            d -= b
            sub.append(p)
            b = b * i // p if p else 0  # C(p - 1, i - 1)
            i -= 1
        else:
            b = b * (p - i) // p  # C(p - 1, i)
        p -= 1
    return sub


def _colex_rank_walk(pos):
    """sum of C(p, i) over the ascending positions pos, i counted from 1,
    with b = C(p, i) carried along p by one multiply and one divide a step."""
    total, b, i, p = 0, 0, 1, 0
    for q in pos:
        while p < q:
            # C(p + 1, i); b = 0 only at p = i - 1, where that is C(i, i)
            b = b * (p + 1) // (p + 1 - i) if b else 1
            p += 1
        total += b
        b = b * (p + 1) // (i + 1)  # C(p + 1, i + 1)
        p += 1
        i += 1
    return total


def cc_unrank(index, counts):
    """Level-split unranking of multiset permutations.

    Returns the sequence of level indices with the given rank among all
    arrangements of ``counts``.  Level t's subset (see _split) among the
    positions still free has a colex rank sum_i C(p_i, i); the rank of the
    arrangement is the mixed-radix number of those m - 1 subset ranks, with
    level 0 the most significant digit and C(r, a) the radix of each.  The
    sequence is built from the top level down: each level's symbols are
    inserted into the arrangement of the levels above it.  Up to
    MAX_TABLE_N the binomials come from binomial_columns, above it from a
    walk.
    """
    n = sum(counts)
    m = len(counts)
    cols = binomial_columns(n) if n <= MAX_TABLE_N else None
    split = _split(counts)
    cur = [m - 1] * counts[-1]
    for t in range(m - 2, -1, -1):
        r, a, take = split[t]
        if cols:
            index, d = divmod(index, cols[a][r])
            sub = _colex_unrank_table(d, r, a, cols)
        else:
            size = comb(r, a)
            index, d = divmod(index, size)
            sub = _colex_unrank_walk(d, r, a, size)
        if take:
            for p in reversed(sub):
                cur.insert(p, t)
        else:
            arranged = [t] * r
            for p, s in zip(sub, reversed(cur)):
                arranged[p] = s
            cur = arranged
    if index:
        raise ValueError("index out of range for composition")
    return cur


def cc_rank(seq, counts):
    """Inverse of cc_unrank: rank of a level-index sequence."""
    m = len(counts)
    n = sum(counts)
    if len(seq) != n:
        raise ValueError("sequence does not match composition")
    cols = binomial_columns(n) if n <= MAX_TABLE_N else None
    index = 0
    cur = seq
    for t, (r, a, take) in enumerate(_split(counts)):
        pos, rest = [], []
        if take:
            for p, s in enumerate(cur):
                if s == t:
                    pos.append(p)
                else:
                    rest.append(s)
        else:
            for p, s in enumerate(cur):
                if s != t:
                    pos.append(p)
                    rest.append(s)
        if len(pos) != a:
            raise ValueError("sequence does not match composition")
        if cols:
            index = (index * cols[a][r]
                     + sum(map(list.__getitem__, cols[1:], pos)))
        else:
            index = index * comb(r, a) + _colex_rank_walk(pos)
        cur = rest
    if cur.count(m - 1) != len(cur):
        raise ValueError("sequence does not match composition")
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


def _sweep_rows(out, starts, lengths):
    """Fill the (L, m) matrix out, and return it, with sweeps given as start
    rows (m ints each, flat) and lengths: row j of a sweep is its start row
    with j units moved from level 0 to level 1, formed CHUNK rows at a time."""
    starts = np.array(starts, dtype=out.dtype).reshape(-1, out.shape[1])
    firsts = np.cumsum([0, *lengths])  # each sweep's first row
    for rows in chunks(len(out)):
        at = np.arange(rows.start, rows.stop)
        sweep = np.searchsorted(firsts, at, side="right") - 1
        steps = (at - firsts[sweep]).astype(out.dtype, copy=False)
        out[rows] = starts[sweep]
        out[rows, 0] -= steps
        out[rows, 1] += steps
    return out


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
    return _sweep_rows(np.empty((total, m), dtype=np.int64), starts, lengths)


def pair_list(c0, min_payload):
    """All complement pairs around c0 with payload >= min_payload.

    Returns one read-only structured array, a row per pair in colex order:
    ``counts`` is the colexicographically smaller member in
    np.min_scalar_type(n), whose complement 2*c0 - counts is never stored,
    and ``payload`` the smaller member's input bits.  Each unordered pair
    appears exactly once, the pair {c0, c0} never.  More than MAX_MPDM_PAIRS
    pairs are refused before the array is formed.
    """
    from array import array  # here, so ESS runs never map its ~0.3 MB
    m = len(c0)
    n = sum(c0)
    c0t = tuple(c0)
    box = [min(2 * a, n) for a in c0t]
    floor = 1 << min_payload
    starts, lengths = [], []
    payloads = array("i")  # 4 bytes a pair, no object per pair
    # Outer levels run over coordinates m-1 .. 2 in colex order, on an
    # explicit stack as in shells_upto, so any number of levels is walked;
    # coordinate 1 varies along the inner line and coordinate 0 is the
    # remainder.  C is the colex-smaller member iff C_i < c0_i at the highest
    # index where they differ, so while every outer coordinate equals c0's
    # ("tight") the next one is capped at c0's value, and a tight line stops
    # below c0[1].
    stack = [(m - 1, n, (), True)]
    while stack:
        i, rem, suffix, tight = stack.pop()
        if i > 1:
            hi = min(box[i], rem, c0t[i]) if tight else min(box[i], rem)
            # pushed last first, so the walk pops them in colex order
            stack += [(i - 1, rem - ci, (ci,) + suffix, tight and ci == c0t[i])
                      for ci in range(hi, -1, -1)]
            continue
        # Along the line one unit moves level 0 -> 1 per step, so MC(C) and
        # MC(2*c0 - C) are each a binomial in c1, hence log-concave: the
        # points where both reach 2^min_payload form one interval (a sweep).
        lo = max(0, rem - box[0])
        hi = min(box[1], rem, c0t[1] - 1) if tight else min(box[1], rem)
        if lo > hi:
            continue
        a, b = rem - lo, lo                    # C[0], C[1]
        ab, bb = 2 * c0t[0] - a, 2 * c0t[1] - b  # Cb[0], Cb[1]
        rest = tuple(2 * x - y for x, y in zip(c0t[2:], suffix))
        mc = mc_counts((a, b) + suffix)
        mcb = mc_counts((ab, bb) + rest)
        first, held = None, len(payloads)
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
                first = c1 if first is None else first
                payloads.append(min(mc.bit_length(), mcb.bit_length()) - 1)
            elif first is not None:
                break
        if first is not None:
            if len(payloads) > MAX_MPDM_PAIRS:
                raise RateInfeasibleError(
                    f"the MPDM pairs around {c0t} number more than "
                    f"MAX_MPDM_PAIRS={MAX_MPDM_PAIRS}")
            starts += (rem - first, first) + suffix  # flat, as in shells_upto
            lengths.append(len(payloads) - held)
    pairs = np.empty(len(payloads), dtype=[
        ("counts", np.min_scalar_type(n), (m,)), ("payload", np.int32)])
    _sweep_rows(pairs["counts"], starts, lengths)
    pairs["payload"] = payloads
    pairs.flags.writeable = False
    return pairs


# The last pair box walked.  MPDM's winning target is the last candidate its
# selection scans, so enumerate_pairs finds its array here.
scanned_pairs = functools.lru_cache(maxsize=1)(pair_list)


def pair_capacity(c0, min_payload):
    """Total address space of complement pairs around c0.

    Returns sum over unordered pairs {C, 2*c0 - C} with payload >= min_payload
    of 2 * 2^payload, payload = min(input_bits(C), input_bits(C_bar)), over
    the histogram of the payloads of the array scanned_pairs keeps."""
    held = np.bincount(scanned_pairs(tuple(c0), min_payload)["payload"])
    return sum(count << (p + 1) for p, count in enumerate(held.tolist()))


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
