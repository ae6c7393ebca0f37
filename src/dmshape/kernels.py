"""Exact combinatorial kernels.

These are the hot inner loops of the package: the codec's rank and unrank
of multiset permutations in one level-split order (cc_rank, cc_unrank),
which read their binomials from one cached table (binomial_table, as the
lists of binomial_columns) up to MAX_TABLE_N and update one binomial per
step above it; the batch kernel binomials, which maps arrays of (r, a) to
C(r, a) by one 2-D index of that table up to MAX_TABLE_N and forms each
distinct one once a pass above it, within MAX_BINOMIAL_WORK; the ESS shell
walk (shells_upto: one count matrix, from a depth-first walk that stops
each level at the energy radius, so its cost follows its output, and that
refuses a ball of more than MAX_ESS_SHELLS shells before forming any row;
shell_count takes the same walk's count alone);
the complement-pair walk (pair_list: one array of canonical members and
payloads, bounded by MAX_MPDM_PAIRS, from a walk that finds each line's
kept interval exactly by a search down a column of the table and forms
only the kept rows' payloads, CHUNK rows at a time; scanned_pairs keeps
the last for pair_capacity and MPDM); and the column kernel
``multinomials``: the exact multinomial of every row of a count matrix
(validate's capacities, the ESS walk's shell sizes and the used counts an
ESS table derives), one block at a time from one binomials pass; the codec
derives a few leaves' words per word with row_multinomials.  The energy
ball's suffix-count table and its walks (trellis_build, ess_unrank,
ess_rank) serve only perfbench's kernel bench and the test oracle, as
energy_totals does.  All arithmetic that can overflow 64 bits is done with
Python ints, so every kernel is exact.
"""

import functools
from bisect import bisect_left, bisect_right
from itertools import accumulate
from math import comb

import numpy as np

from .errors import BinomialBudgetError, RateInfeasibleError

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


def count_dtype(n):
    """dtype of a count column whose counts all lie in [0, n]: the narrowest
    of uint8, uint16 and uint32 that holds n (np.min_scalar_type), or int64
    for an n outside [0, 2^32), which validate refuses."""
    return np.min_scalar_type(n) if 0 <= n < 1 << 32 else np.dtype(np.int64)


# Rows one shells_upto walk may return.  An ESS build in one process peaks
# near 53 bytes of RSS per shell above the ~30 MB that importing dmshape
# takes (36 MB in all for 108,990 shells at n=216, 73 MB for 802,188 at
# n=432, 82 MB for 989,150 at n=464), so this bounds it near 86 MB and
# still holds compare at n=432.
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


# Largest block length whose binomial table is built: cc_unrank, cc_rank,
# binomials and the pair walk read it.  binomial_table takes 0.69 MB at n=216,
# 3.4 MB at n=432 and 5.1 MB here (tracemalloc), built in ~10 ms, and
# binomial_columns' lists 0.19, 0.76 and 1.1 MB more; its digits grow as
# n^3, to an estimated ~200 MB at n=2,048.  Above the bound the same order
# comes from a walk that updates one binomial per step: ~1 ms a word each
# way at n=2,048 over two levels.
MAX_TABLE_N = 512

# Work one binomials pass may spend above MAX_TABLE_N forming its distinct
# binomials, each charged binomial_work before any of a call's new ones is
# formed.  The charge follows the time, so this bounds a pass near 1 s.  The
# program's own largest passes ask for 5.3x less: ESS over 1,3,5 at n=1,320,
# k=2,090 (near the largest n its energy grid allows, 332,725 binomials,
# 4.0e8, a 1.4 s pass with its products) and over 1,5,7 at n=1,620, k=2,520
# (3.6e8); an mpdm build over 1,3,5,7 at n=1,200, k=2,000 asks for 2.4e7 in
# a pass of its pair walk.  A file of 100 two-level leaves two apart near
# n/2 at n=2^16 asks for 1.3e10 (~6 s of comb).
MAX_BINOMIAL_WORK = 1 << 31


def binomial_work(r, a, stepped=False):
    """The work charged for forming C(r, a), 0 <= a <= r // 2, elementwise
    over arrays r, a and stepped: a * b^0.75 in integers from comb, or 2 * b
    when it is stepped from C(r, a - 1) by one multiply and one exact
    divide, with b = min(r, a * (bit_length(r) - bit_length(a) + 3)) a bound
    on its bits, since C(r, a) <= (e*r/a)^a and C(r, a) <= 2^r.  Both follow
    the time (Python 3.11, 2-core x86-64): comb takes 0.3-0.5 ns a unit from
    r = 1,024 to 65,536 and a from r/100 to r/2, so C(65536, 32768) is
    charged 2^27 and takes 63 ms, and a step 0.3-0.7 ns a bit.  Bit lengths
    and square roots are taken in floats, exact below 2^52."""
    b = np.minimum(r, a * (np.frexp(r)[1] - np.frexp(a)[1] + 3))
    root = np.sqrt(b).astype(np.int64)
    return np.where(stepped, 2 * b, a * np.sqrt(b * root).astype(np.int64))


@functools.lru_cache(maxsize=1)
def binomial_table(n):
    """table[a, p] = C(p, a) for 0 <= a <= n // 2 and 0 <= p <= n: the one
    binomial table, an object ndarray of Python ints that binomials indexes
    and binomial_columns lists for the codec.

    Each column is the running sum of the one before (Pascal's rule summed
    along p), so the table costs additions only.  C(p, a) for p < 2a equals
    C(p, p - a) of an earlier column and is stored as that same int, which
    leaves 0.46 MB of ints at n=216 and 2.5 MB at n=432 (0.68 and 3.6 MB as
    separate ints); the array adds 0.19 and 0.75 MB of pointers.  Built on
    first use, never at import; the last n asked for is cached.
    """
    col = [1] * (n + 1)
    cols = [col]
    for a in range(1, n // 2 + 1):
        col = [0, *accumulate(col[:n])]
        col[a:2 * a] = [cols[p - a][p] for p in range(a, min(2 * a, n + 1))]
        cols.append(col)
    return np.array(cols, dtype=object)


@functools.lru_cache(maxsize=1)
def binomial_columns(n):
    """binomial_table(n) as a list of columns, cols[a][p] = C(p, a), holding
    the table's own ints: the codec's rank and unrank read it by C-level
    list lookups, bisections and sums.  The last n asked for is cached, and
    the four codecs of one block length share it."""
    return binomial_table(n).tolist()


def binomials(n):
    """A function from int64 arrays r and a of one shape (or two that
    broadcast to one), 0 <= a <= r <= n, to the exact C(r, a) as an object
    array of Python ints of that shape.

    Up to MAX_TABLE_N each is read from binomial_table(n), the codec's
    cached table, at (min(a, r - a), r) by one 2-D index.  Above it each
    distinct binomial is formed once over every call the function is given,
    so one function serves one pass: by one step from C(r, a' - 1) when the
    pass holds it, a' = min(a, r - a), else by comb; a pass whose
    binomial_work passes MAX_BINOMIAL_WORK is refused (BinomialBudgetError)
    before the new ones of the call that passes it are formed.  (n+1)^2
    must lie inside int64.
    """
    if n <= MAX_TABLE_N:
        table = binomial_table(n)
        return lambda r, a: table[np.minimum(a, r - a), r]

    memo = {}  # C(r, a) at key r * (n+1) + a, a <= r // 2
    spent = 0  # the pass's binomial_work so far

    def formed_binomials(r, a):
        nonlocal spent
        keys = np.minimum(a, r - a) + r * (n + 1)
        pairs, index = np.unique(keys, return_inverse=True)
        # ascending, so C(r, a - 1) is formed before C(r, a); as a <= r // 2
        # < n, key - 1 is its key or no binomial's
        new = [key for key in pairs.tolist() if key not in memo]
        fresh = set(new)
        stepped = [key - 1 in memo or key - 1 in fresh for key in new]
        spent += int(binomial_work(*np.divmod(np.array(new, dtype=np.int64),
                                              n + 1), stepped).sum())
        if spent > MAX_BINOMIAL_WORK:
            raise BinomialBudgetError(
                f"the multinomials at n={n} need more binomial work than "
                f"MAX_BINOMIAL_WORK={MAX_BINOMIAL_WORK}")
        for key in new:
            r, a = divmod(key, n + 1)
            below = memo.get(key - 1)
            memo[key] = (comb(r, a) if below is None
                         else below * (r - a + 1) // a)
        values = np.array(list(map(memo.__getitem__, pairs.tolist())),
                          dtype=object)
        return values[index.reshape(keys.shape)]

    return formed_binomials


def multinomials(counts, n):
    """Exact multinomials of the rows of an (L, m) matrix of compositions of n.

    Yields them as object arrays of Python ints, CHUNK rows at a time in row
    order, so no array of L bigints is held, and a narrow count matrix is
    never copied whole: each block is cast to int64 on its own.  Row i's
    value is the product over j < m-1 of C(r_j, c_j), with r_j = n minus
    the earlier counts, as in mc_counts, taken in numpy's object loops, and
    every block's binomials come from one binomials(n), one pass.  Every
    count must lie in [0, n] and each row must sum to n.
    """
    binomial = binomials(n)
    for rows in chunks(len(counts)):
        head = np.asarray(counts[rows, :-1], dtype=np.int64)
        rest = np.cumsum(head, axis=1)  # r_j, built in place
        rest -= head
        np.subtract(n, rest, out=rest)
        yield np.multiply.reduce(binomial(rest, head), axis=1)


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


def _sweep_steps(lengths):
    """(rows, sweep, steps) for each chunks block of the rows of consecutive
    sweeps of the given lengths: the sweep each row belongs to and its step
    within it, as int64 arrays."""
    firsts = np.cumsum([0, *lengths])  # each sweep's first row
    for rows in chunks(int(firsts[-1])):
        at = np.arange(rows.start, rows.stop)
        sweep = np.searchsorted(firsts, at, side="right") - 1
        yield rows, sweep, at - firsts[sweep]


def _sweep_rows(out, starts, lengths):
    """Fill the (L, m) matrix out, and return it, with sweeps given as start
    rows (m ints each, flat) and lengths: row j of a sweep is its start row
    with j units moved from level 0 to level 1, formed CHUNK rows at a time."""
    starts = np.array(starts, dtype=out.dtype).reshape(-1, out.shape[1])
    for rows, sweep, steps in _sweep_steps(lengths):
        steps = steps.astype(out.dtype, copy=False)
        out[rows] = starts[sweep]
        out[rows, 0] -= steps
        out[rows, 1] += steps
    return out


def _sweeps(n, int_energies, e_cap):
    """The sweeps of the compositions with integer energy <= e_cap, in colex
    order: the start row of each (m ints, flat in one list) and its length.

    The walk goes depth first over levels m-1 .. 2, outermost first; level
    1 is the sweep and level 0 holds the rest.  The levels ascend, so the
    energy e with the rest in level 0 is the least below that point, and
    each level stops at (e_cap - e) // (u_i - u_0).  A running count of the
    rows refuses more than MAX_ESS_SHELLS.  The walk keeps its own stack,
    so any number of levels is walked.
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
    return starts, lengths


def shell_count(n, int_energies, e_cap):
    """The number of rows shells_upto returns, from the same walk of sweeps,
    with no row formed."""
    return sum(_sweeps(n, int_energies, e_cap)[1])


def shells_upto(n, int_energies, e_cap):
    """All compositions with integer energy <= e_cap, in colex order.

    Returns them as the rows of an (L, m) matrix of count_dtype(n), filled
    in that dtype, so no wider copy is formed.  Each sweep of the walk
    (_sweeps) keeps one start row and one length, expanded into rows at the
    end, so more than MAX_ESS_SHELLS is refused before any row is formed.
    """
    starts, lengths = _sweeps(n, int_energies, e_cap)
    return _sweep_rows(np.empty((sum(lengths), len(int_energies)),
                                dtype=count_dtype(n)), starts, lengths)


@functools.lru_cache(maxsize=1024)
def _central_binomial(r):
    """C(r, r // 2), where _least walks down a column above MAX_TABLE_N:
    the lines of a pair walk share few rests r, so each is formed once."""
    return comb(r, r // 2)


def _least(table, r, t, a_min):
    """The least a in [a_min, r // 2] with C(r, a) >= t, or None when there
    is none.  C(r, .) rises up to r // 2, so the table's column is bisected;
    with no table (above MAX_TABLE_N) the column is walked down from
    r // 2."""
    a = r // 2
    if table is not None:
        j = bisect_left(table[:, r], t, a_min, a + 1)
        return j if j <= a else None
    b = _central_binomial(r)
    if b < t:
        return None
    while a > a_min:
        b = b * a // (r - a + 1)  # C(r, a - 1)
        if b < t:
            break
        a -= 1
    return a


def pair_list(c0, min_payload):
    """All complement pairs around c0 with payload >= min_payload.

    Returns one read-only structured array, a row per pair in colex order:
    ``counts`` is the colexicographically smaller member in
    np.min_scalar_type(n), whose complement Cb = 2*c0 - counts is never
    stored, and ``payload`` the smaller member's input bits,
    min(bit_length(MC(C)), bit_length(MC(Cb))) - 1.  Each unordered pair
    appears exactly once, the pair {c0, c0} never.  More than
    MAX_MPDM_PAIRS pairs are refused before the array is formed.

    The walk visits only the pairs it keeps, each exactly, with no float.
    Outer levels m-1 .. 2 are walked depth first on an explicit stack, so
    any number of levels is walked; on each line they leave, level 1's c1
    moves one unit at a time from level 0, which holds the rest rem.  Every
    push multiplies two factors by one binomial each, so on a line
    MC(C) = A * C(rem, c1), with A the multinomial of (rem, c_2, ...), and
    likewise MC(Cb) = B * C(remb, 2*c0[1] - c1), remb = 2*(c0[0] + c0[1]) -
    rem.  A column C(r, .) is symmetric and rises up to r // 2, so
    MC(C) >= 2^min_payload exactly when c1 lies in [j, rem - j], j the least
    a with C(rem, a) >= ceil(2^min_payload / A), found by _least; the same
    holds for Cb.  A line keeps the intersection of both intervals with the
    box 0 <= C_i <= min(2*c0_i, n) and the colex bound, so an empty line
    costs at most two searches.  Each push, and each flush of the kept
    rows' payloads (CHUNK rows, in numpy's object loops), is one binomials
    pass; only the lines whose payloads are pending hold their factors.
    """
    from array import array  # here, so ESS runs never map its ~0.3 MB
    c0t = tuple(map(int, c0))
    m, n = len(c0t), sum(c0t)
    box = [min(2 * a, n) for a in c0t]
    floor = 1 << min_payload
    two1 = 2 * c0t[1]  # C_1 + Cb_1 on every line
    table = binomial_table(n) if n <= MAX_TABLE_N else None
    bit_length = np.frompyfunc(int.bit_length, 1, 1)
    starts, lengths = [], []
    payloads = array("i")  # 4 bytes a pair, no object per pair
    pending, factors = [], []  # (c1, rem, remb) and (A, B) a line

    def flush():
        """Append the payloads of the pending lines, CHUNK rows at a time."""
        first, rem, remb = np.array(pending, dtype=np.int64).reshape(-1, 3).T
        a, b = np.array(factors, dtype=object).reshape(-1, 2).T
        binomial = binomials(n)
        for _, line, steps in _sweep_steps(lengths[-len(a):]):
            c1 = first[line] + steps
            bits = np.minimum(
                bit_length(a[line] * binomial(rem[line], c1)),
                bit_length(b[line] * binomial(remb[line], two1 - c1)))
            payloads.extend((bits - 1).tolist())
        pending.clear()
        factors.clear()

    # C is the colex-smaller member iff C_i < c0_i at the highest index where
    # they differ, so while every outer coordinate equals c0's ("tight") the
    # next one is capped at c0's value, and a tight line stops below c0[1].
    # (level, rem, remb, counts of the levels above, tight, A, B)
    stack = [(m - 1, n, n, (), True, 1, 1)]
    total = waiting = 0  # rows kept, and rows whose payloads are pending
    while stack:
        i, rem, remb, suffix, tight, fa, fb = stack.pop()
        if i > 1:
            two = 2 * c0t[i]
            hi = min(box[i], rem, c0t[i]) if tight else min(box[i], rem)
            lo = max(0, two - remb)  # Cb's rest stays >= 0
            if lo > hi:
                continue
            # pushed last first, so the walk pops them in colex order
            ci = np.arange(hi, lo - 1, -1)
            xs, xbs = binomials(n)(np.array([[rem], [remb]]),
                                   np.stack((ci, two - ci))).tolist()
            stack += [(i - 1, rem - c, remb - two + c, (c,) + suffix,
                       tight and c == c0t[i], fa * x, fb * xb)
                      for c, x, xb in zip(ci.tolist(), xs, xbs)]
            continue
        lo = max(0, rem - box[0])
        hi = min(box[1], rem, c0t[1] - 1) if tight else min(box[1], rem)
        if lo > hi:
            continue
        j = _least(table, rem, -(-floor // fa), min(lo, rem - hi))
        if j is None:
            continue
        lo, hi = max(lo, j), min(hi, rem - j)
        if lo > hi:
            continue
        # Cb_1 = two1 - c1 runs over [two1 - hi, two1 - lo]
        j = _least(table, remb, -(-floor // fb),
                   min(two1 - hi, remb - two1 + lo))
        if j is None:
            continue
        lo, hi = max(lo, two1 - remb + j), min(hi, two1 - j)
        if lo > hi:
            continue
        total += hi - lo + 1
        if total > MAX_MPDM_PAIRS:
            raise RateInfeasibleError(
                f"the MPDM pairs around {c0t} number more than "
                f"MAX_MPDM_PAIRS={MAX_MPDM_PAIRS}")
        starts += (rem - lo, lo) + suffix  # flat, as in shells_upto
        lengths.append(hi - lo + 1)
        pending += (lo, rem, remb)
        factors += (fa, fb)
        waiting += hi - lo + 1
        if waiting >= CHUNK:
            flush()
            waiting = 0
    if pending:
        flush()
    pairs = np.empty(total, dtype=[
        ("counts", np.min_scalar_type(n), (m,)), ("payload", np.int32)])
    pairs["payload"] = payloads
    del payloads  # before the counts are swept, which lowers the peak
    _sweep_rows(pairs["counts"], starts, lengths)
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
