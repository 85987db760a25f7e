"""The numpy engine of the coloring searches, loaded on first use.

It is imported only once the pure-Python plan (`coloring._array_walk`) has
taken an equation: by `coloring.profile_census_many` for the closed-form
census of a plan with constant steps (`_census_linear`), by
`coloring.head_census` for the head census (`_array_heads`), and by
`cli.cmd_search` for the solutions stream (`_stream_chunks`).  Loading it,
and numpy with it, costs tens of milliseconds that `import radolab`,
`analyze`, `certify`, the witness search, the walked census and the
searches of unplanned shapes never pay.

The closed-form census splits each inner progression of a block of prefix
points (`_progressions`) into valid-profile pieces (`_piece_sweep`) and
counts their monochromatic terms with one kernel per coloring
(`_counter`).  The array walk builds each row's inner and solved values as
int64 arrays, from its progression or its exact quadratic windows
(`_quadratic_runs`); the head census bins them, and the stream takes the
profiles of their columns (`_profiles`).
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Iterator, Sequence

import numpy as np

# the constants shared with `coloring` (`_CHUNK`, `_CELLS`) are read through
# the module at call time, so a patched value reaches both
from . import coloring
from .coloring import ColoringSpec, _ceil_div, _grid, _partition


# ---------------------------------------------------------------------------
# closed-form census of constant-slope plans


def _lt_zero(alpha, beta, lo, hi):
    """Row by row, the integer subinterval of [lo, hi) where
    alpha*i + beta < 0.  An empty result may have lo > hi."""
    div = np.where(alpha == 0, 1, alpha)
    # alpha > 0: i < ceil(-beta/alpha); alpha < 0: i > floor(-beta/alpha);
    # alpha == 0: every i or none, by the sign of beta
    new_lo = np.where(alpha < 0, np.maximum(lo, (-beta) // div + 1), lo)
    new_hi = np.where(alpha > 0, np.minimum(hi, -(beta // div)),
                      np.where((alpha < 0) | (beta < 0), hi, lo))
    return new_lo, new_hi


def _piece_sweep(slopes: Sequence[int], starts: np.ndarray,
                 count: np.ndarray, N: int):
    """Exact decomposition of every row's index range [0, count) into
    valid-profile pieces, all rows at once in int64.

    Row r carries one affine value slopes[j]*i + starts[j, r] over the
    index i per item j, the items in slot order; the slopes are shared by
    every row.  Returns arrays (row, lo, hi, ranks) of disjoint pieces
    [lo, hi) covering exactly the indices whose values have a valid
    profile, with ranks[p, j] the class of item j in piece p, 0 the top.

    Between the pairwise value crossings the (-value, slot) order of the
    items is fixed.  There, the profile is valid with exactly the runs of
    that order as classes iff N*first - (N+1)*last < 0 in each run and
    N*next - last < 0 at each cut, all affine in i.  One sweep down the
    sorted positions keeps the live (segment, interval, open run) entries:
    at each position an entry extends its run (near its first item) or
    cuts it (apart from the previous item).  The two exclude each other,
    so at most one entry holds each i, and empty ones are dropped.
    """
    n = len(slopes)
    # segment cuts: 0, count, and both sides of each crossing of two items
    # of different slopes; a cut outside (0, count) becomes 0 and only adds
    # an empty segment
    groups: dict[int, list[int]] = {}
    for j, s in enumerate(slopes):
        groups.setdefault(s, []).append(j)
    cuts = [np.zeros((1, len(count)), dtype=np.int64), count[None]]
    for (s, p), (t, q) in itertools.combinations(groups.items(), 2):
        f = ((starts[q][:, None] - starts[p]) // (s - t)).reshape(
            len(q) * len(p), len(count))
        cuts += [np.where((0 < f) & (f < count), f, 0),
                 np.where((0 <= f) & (f < count - 1), f + 1, 0)]
    cuts = np.concatenate(cuts).T
    cuts.sort(axis=1)
    row, seg = np.nonzero(cuts[:, :-1] < cuts[:, 1:])
    lo, hi = cuts[row, seg], cuts[row, seg + 1]
    del cuts, seg

    # the items in (-value at the segment start, slot) order: the stable
    # sort keeps equal values in slot order
    slope = np.asarray(slopes, dtype=np.int64)
    start = starts.T[row]
    order = np.argsort(-(slope * lo[:, None] + start), axis=1, kind="stable")
    sl = slope[order].T
    st = np.take_along_axis(start, order, axis=1).T
    del start

    # each condition is (alpha, beta) of alpha*i + beta < 0; `trail` keeps
    # each position's (parent entry, class) for the ranks
    seg = np.arange(len(row))
    first = np.zeros_like(seg)
    cls = np.zeros_like(seg)
    trail = []
    for pos in range(1, n):
        a, b = sl[pos][seg], st[pos][seg]
        # near: N*(first - x) < x; apart: N*x < previous
        near = _lt_zero(N * sl[first, seg] - (N + 1) * a,
                        N * st[first, seg] - (N + 1) * b, lo, hi)
        apart = _lt_zero(N * a - sl[pos - 1][seg], N * b - st[pos - 1][seg],
                         lo, hi)
        lo, hi = np.concatenate([near[0], apart[0]]), np.concatenate(
            [near[1], apart[1]])
        keep = np.flatnonzero(lo < hi)
        parent = keep % len(seg)
        first = np.concatenate([first, np.full_like(first, pos)])[keep]
        cls = np.concatenate([cls, cls + 1])[keep]
        seg, lo, hi = seg[parent], lo[keep], hi[keep]
        trail.append((parent, cls))
    ranks = np.zeros((len(seg), n), dtype=np.min_scalar_type(n))
    entry = np.arange(len(seg))
    for pos in range(n - 1, 0, -1):
        parent, cls = trail[pos - 1]
        ranks[:, pos] = cls[entry]
        entry = parent[entry]
    out = np.empty_like(ranks)
    np.put_along_axis(out, order[seg], ranks, axis=1)
    return row[seg], lo, hi, out


# prefix points per piece table.  Each block pays a fixed cost of about
# 0.3 ms (over a hundred array calls in `blocks`, `_piece_sweep`,
# `_lt_zero`, `_distinct_rows` and the kernels), and its temporaries grow
# with its pieces.  Against 1024, 4096 rows take 1.1-2.2x less CPU time
# for a raised tracemalloc peak (BENCH_25.json `block_size`, 2-core Xeon):
# x + y + z + u = v under mod:2 at bound 40, 27.6 -> 12.8 ms and
# 0.3 -> 0.7 MB; x + 2y = 3z + w under logband:2:3 at bound 300,
# 114.0 -> 88.2 ms and 1.1 -> 4.2 MB.  8192 rows save at most 24% more and
# double the peak
_BLOCK = 4096


def _prefix_blocks(k: int, bound: int, rows: int) -> Iterator[np.ndarray]:
    """The points of [1, bound]^k, k >= 1, as int64 arrays of shape
    (k, r) with r <= rows.  The innermost variables whose grid fits in a
    block go whole into every block, the next one in chunks, and the outer
    ones one point at a time; no array holds a flat grid index, which can
    pass 2^63."""
    tail = np.empty((0, 1), dtype=np.int64)
    while len(tail) < k and tail.shape[1] * bound <= rows:
        tail = np.concatenate([
            np.repeat(np.arange(1, bound + 1), tail.shape[1])[None],
            np.tile(tail, bound)])
    inner, size = tail.shape
    if inner == k:
        yield tail
        return
    step = rows // size
    for head in _grid(bound, k - inner - 1):
        for lo in range(1, bound + 1, step):
            mid = np.arange(lo, min(lo + step, bound + 1))
            yield np.concatenate([
                np.broadcast_to(np.array(head, dtype=np.int64)[:, None],
                                (len(head), len(mid) * size)),
                np.repeat(mid, size)[None], np.tile(tail, len(mid))])


def _progressions(alpha, beta, den, g, step, inv, bound: int):
    """`_progression(alpha, beta, den, 1, bound, bound)` row by row in
    int64, as (first, count): the t in [1, bound] for which
    (alpha*t + beta)/den is an integer in [1, bound] are first + step*i for
    i in [0, count).  The caller gives den > 0, g = gcd(alpha, den),
    step = den/g and inv, the inverse of alpha/g mod step; each argument
    is a scalar or an int64 array, and `coloring._array_walk` checks that
    |den|*bound + |beta| and den^2 fit in int64."""
    residue = (-(beta // g)) % step * inv % step
    # den*1 <= alpha*t + beta <= den*bound
    a, b = den - beta, den * bound - beta
    if np.any(alpha < 0):
        a, b = np.where(alpha < 0, b, a), np.where(alpha < 0, a, b)
    flat = alpha == 0
    t_lo = np.maximum(-(-a // (alpha + flat)), 1)
    t_hi = np.minimum(b // (alpha + flat), bound)
    if np.any(flat):
        # alpha == 0 takes every t or none
        t_lo = np.where(flat, 1, t_lo)
        t_hi = np.where(flat, np.where((a <= 0) & (0 <= b), bound, 0), t_hi)
    first = t_lo + (residue - t_lo) % step
    count = np.maximum((t_hi - first) // step + 1, 0)
    return first, np.where(beta % g == 0, count, 0)


def _inverse(a, m):
    """a^-1 mod m row by row, for int64 arrays with m >= 1 and
    gcd(a, m) == 1 (0 where m == 1): the extended Euclidean algorithm on
    every row at once, each remainder and coefficient below m."""
    r0, r1 = m, a % m
    s0, s1 = np.zeros_like(r0), np.ones_like(r0)
    while r1.any():
        live = r1 != 0
        q = r0 // np.where(live, r1, 1)
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - q * r1, 0)
        s0, s1 = np.where(live, s1, s0), np.where(live, s0 - q * s1, s1)
    return s0 % m


def _linear_pieces(plan, bound: int, N: int):
    """The valid pieces of the solutions of a plan whose solved value is
    (alpha*t + beta)/den at inner value t, alpha and den constant, a block
    of prefix points at a time.

    For each prefix point the inner variable runs over the exact arithmetic
    progression of `_progressions` and the solved variable over the
    matching one, so a block of points takes int64 array operations, and
    `_piece_sweep` splits each progression into its valid pieces.

    Returns (vstep, wstep, blocks).  blocks(mono, tally) adds the number of
    solutions to `tally`, a one-item list, and yields per block with valid
    pieces (ranks, keep, x, v, w, n), per piece: its ranks (by variable),
    whether its prefix is monochromatic under each coloring, the first
    prefix value x, and the first values v, w and number n of its terms
    v + vstep*i, w + wstep*i for i in [0, n).  `mono` maps prefix values
    of shape (n - 2, rows) to a (rows, colorings) bool array, and rows
    with none are dropped before the piece table; with one prefix
    variable, keep is None, as a single value always shares its color.
    """
    prefix, inner, solved, terms = plan[:4]
    n = len(prefix) + 2
    # every coordinate lies in [1, bound], so each profile comparison
    # (N*(a - b) < b, N*b >= a) answers the same for every N >= bound
    N = min(N, bound)
    # only beta depends on the prefix, so alpha, den, the gcd and the
    # inverse are scalars
    sign = 1 if plan.den_coeff > 0 else -1
    alpha = sign * sum(c for c, k, _ in terms if k == 1)
    den = sign * plan.den_coeff
    g = gcd(alpha, den)
    vstep = den // g
    inv = pow(alpha // g, -1, vstep)
    wstep = alpha * vstep // den
    slopes = [0] * n
    slopes[inner], slopes[solved] = vstep, wstep
    rows = min(_BLOCK, coloring._CELLS // (n * min(4 * n, bound)))

    def blocks(mono, tally):
        for u in _prefix_blocks(len(prefix), bound, rows):
            beta = sign * _row_coefficients(terms, dict(zip(prefix, u)),
                                            u.shape[1])[0]
            v_first, count = _progressions(alpha, beta, den, g, vstep, inv,
                                           bound)
            tally[0] += int(count.sum())
            live = count > 0
            keep = mono(u) if len(prefix) > 1 else None
            if keep is not None:
                live &= keep.any(axis=1)
                keep = keep[live]
            u, v_first, count = u[:, live], v_first[live], count[live]
            if not len(count):
                continue
            starts = np.empty((n, len(count)), dtype=np.int64)
            starts[prefix] = u
            starts[inner] = v_first
            starts[solved] = (alpha * v_first + beta[live]) // den
            row, lo, hi, ranks = _piece_sweep(slopes, starts, count, N)
            if len(row):
                yield (ranks, None if keep is None else keep[row], u[0, row],
                       v_first[row] + vstep * lo,
                       starts[solved, row] + wstep * lo, hi - lo)

    return vstep, wstep, blocks


def _census_linear(plan, specs: Sequence[ColoringSpec], bound: int,
                   N: int) -> tuple[list, int]:
    """Censuses for a planned equation that `_linear_pieces` takes, without
    materializing the solution list.

    `_linear_pieces` gives the valid pieces of the rows whose prefix values
    share a color under some coloring, and each coloring's kernel
    (`_counter`) counts the monochromatic terms of every piece of a block
    at once, and gives the colors of the prefix values.
    """
    vstep, wstep, blocks = _linear_pieces(plan, bound, N)
    kernels = [_counter(s, bound, vstep, wstep) for s in specs]

    def mono(u):
        out = np.empty((u.shape[1], len(specs)), dtype=bool)
        for k, (colors, _) in enumerate(kernels):
            c = colors(u)
            out[:, k] = (c == c[0]).all(axis=0)
        return out

    counts: dict[tuple[int, ...], np.ndarray] = {}
    tally = [0]
    for ranks, keep, x, v, w, n in blocks(mono, tally):
        profiles, which = _distinct_rows(ranks)
        acc = np.zeros((len(profiles), len(specs)), dtype=np.int64)
        for k, (_, count) in enumerate(kernels):
            sel = slice(None) if keep is None else np.flatnonzero(keep[:, k])
            np.add.at(acc[:, k], which[sel],
                      count(x[sel], v[sel], w[sel], n[sel]))
        for key, row in zip(map(tuple, profiles.tolist()), acc):
            counts[key] = counts.get(key, 0) + row
    return [{_partition(key): int(row[k]) for key, row in counts.items()
             if row[k]} for k in range(len(specs))], tally[0]


def _distinct_rows(ranks: np.ndarray):
    """The distinct rows of a rank array, ascending, and each row's position
    among them.  Each row is coded as one base-n digit per column, and the
    codes are renumbered densely before one could pass 2^62, so no width
    overflows int64."""
    n = max(ranks.shape[1], 2)
    code, top = np.zeros(len(ranks), dtype=np.int64), 0
    for column in ranks.T:
        if (top + 1) * n > 2 ** 62:
            distinct, code = np.unique(code, return_inverse=True)
            top = len(distinct) - 1
        code, top = code * n + column, top * n + n - 1
    _, first, which = np.unique(code, return_index=True, return_inverse=True)
    return ranks[first], which


def _counter(spec: ColoringSpec, bound: int, vstep: int, wstep: int):
    """A coloring's census kernel, as (colors, count): colors maps an
    array of values to their colors, and count maps piece arrays
    (x, v, w, n) to the number of i in [0, n) at which x, v + vstep*i and
    w + wstep*i share a color, per piece.  vstep > 0 and wstep != 0; every
    value lies in [1, bound].  A random coloring counts packed bits
    (`_bits_counter`) when their copies fit `_BITS_BUDGET`, and slices its
    table (`_slice_counter`) otherwise."""
    if spec.kind == "mod":
        # x % m == x for x <= bound < m, as in `ColoringSpec._table`
        return _mod_counter(min(spec.params[0], bound + 1), vstep, wstep)
    if spec.kind == "random":
        table = spec.color_array(bound)
        copies = 8 * len(table) * len({vstep, wstep})
        if _colors_within(table, _BITS_BUDGET // copies):
            return _bits_counter(table, vstep, wstep)
        return _slice_counter(table, vstep, wstep)
    return _run_counter(spec, bound, vstep, wstep)


def _mod_counter(m: int, vstep: int, wstep: int):
    """Residues mod m.  A piece is monochromatic at i iff
    vstep*i = x - v and wstep*i = x - w (mod m).  Each congruence holds on
    one class of i or none, and the two combine by the Chinese remainder
    theorem into one class r mod L, or none, so the count is the number of
    i = r (mod L) in [0, n).  The inverses are scalars; with m <= BOUND_CAP
    + 1, every product is below m^2 < 2^51."""
    def congruence(a):
        # a*i = b (mod m) iff g | b and i = (b/g)*inv (mod m/g)
        g = gcd(a % m, m)
        return g, m // g, pow(a % m // g, -1, m // g)

    (g1, m1, inv1), (g2, m2, inv2) = congruence(vstep), congruence(wstep)
    g = gcd(m1, m2)
    inv = pow(m1 // g, -1, m2 // g)
    period = m1 * (m2 // g)

    def count(x, v, w, n):
        b1, b2 = (x - v) % m, (x - w) % m
        r1, r2 = b1 // g1 * inv1 % m1, b2 // g2 * inv2 % m2
        r = r1 + m1 * ((r2 - r1) // g % (m2 // g) * inv % (m2 // g))
        ok = (b1 % g1 == 0) & (b2 % g2 == 0) & ((r2 - r1) % g == 0)
        return np.where(ok, np.maximum((n - 1 - r) // period + 1, 0), 0)

    return (lambda x: x % m), count


def _run_counter(spec: ColoringSpec, bound: int, vstep: int, wstep: int):
    """logband and digit.  A color is constant on runs of consecutive
    values: the levels [p^L, p^(L+1)) of logband, the values of leading
    digit d at each level of digit, so a color has at most one run per
    level.  v and w are monotone in i, so each run is one interval of i for
    v and one for w, and the count is the total overlap of the intervals of
    the runs of x's color: O(levels^2) array work per block."""
    p = spec.params[0]
    scales = [1]
    while scales[-1] * p <= bound:
        scales.append(scales[-1] * p)
    levels = len(scales)
    # level L is [edges[L], edges[L + 1]), and edges[levels] ends the range
    edges = np.array(scales + [bound + 1], dtype=np.int64)
    scale = edges[:-1]

    # level < levels, so clamping a logband period changes no color and
    # keeps it in int64
    period = min(spec.params[-1], levels)

    def colors(x):
        """logband: the level mod the period; digit: the leading digit."""
        level = np.searchsorted(edges, x, side="right") - 1
        if spec.kind == "logband":
            return level % period
        return x // scale[level]

    def runs(x):
        """The runs of each x's color, as (start, stop) arrays of one row
        per piece and one column per run, empty runs padded with
        start == stop."""
        c = colors(x)[:, None]
        if spec.kind == "logband":
            # levels c, c + period, ... of color c
            lv = np.minimum(c + period * np.arange(_ceil_div(levels, period)),
                            levels)
            return edges[lv], edges[np.minimum(lv + 1, levels)]
        # digit c covers [c*p^L, (c+1)*p^L) at each level L
        start = c * scale
        return np.minimum(start, bound + 1), np.minimum(start + scale,
                                                         bound + 1)

    def interval(first, step, start, stop, n):
        """The i in [0, n) with start <= first + step*i < stop, as
        [lo, hi), empty when lo >= hi."""
        if step > 0:
            lo, hi = start - first, stop - first
        else:
            lo, hi = first - stop + 1, first - start + 1
        size = abs(step)
        return np.clip(-(-lo // size), 0, n), np.clip(-(-hi // size), 0, n)

    def count(x, v, w, n):
        start, stop = runs(x)
        n = n[:, None]
        v_lo, v_hi = interval(v[:, None], vstep, start, stop, n)
        w_lo, w_hi = interval(w[:, None], wstep, start, stop, n)
        total = np.zeros(len(x), dtype=np.int64)
        for k in range(start.shape[1]):
            overlap = (np.minimum(v_hi[:, k:k + 1], w_hi)
                       - np.maximum(v_lo[:, k:k + 1], w_lo))
            total += np.maximum(overlap, 0).sum(axis=1)
        return total

    return colors, count


# bytes of a random kernel's pre-shifted bit copies: `_bits_counter` takes
# 8 per value, color and distinct step, and a table past it is sliced
_BITS_BUDGET = 2 ** 25


def _colors_within(table: np.ndarray, limit: int) -> bool:
    """Whether table[1:] holds at most `limit` distinct colors, read in
    chunks so that a table with more stops early."""
    seen = table[:0]
    chunk = coloring._CHUNK
    for lo in range(1, len(table), chunk):
        seen = np.union1d(seen, table[lo:lo + chunk])
        if len(seen) > limit:
            return False
    return True


def _bits_counter(table: np.ndarray, vstep: int, wstep: int):
    """random, as popcounts of packed indicator bits.  With the colors
    renumbered densely, each color and step s keeps one bit stream of the
    values 1..bound: the lanes y = r (mod |s|), r ascending, each in the
    order of y + s*i, so the terms of a progression of step s are
    consecutive bits.  Each stream is kept as 64 pre-shifted copies, word j
    of copy h holding bits 64*j + h onwards, so a piece's n terms are
    ceil(n/64) consecutive words of one copy for v and one for w: one
    gather each, an AND, the last word masked to the piece's terms, and
    one popcount.  The copies take 8 bytes per value, color and distinct
    step (`_BITS_BUDGET`); pieces are counted `coloring._CHUNK` words at a
    time."""
    palette, dense = np.unique(table[1:], return_inverse=True)
    size = len(dense)
    width = -(-size // 64)
    steps = [vstep] if wstep == vstep else [vstep, wstep]
    copies = np.empty((len(palette), len(steps), 64, width), dtype=np.uint64)

    def lanes(s):
        """The stream position of each value y in [1, bound] under step s."""
        a = abs(s)
        length = (size - 1 - np.arange(min(a, size))) // a + 1
        first = np.cumsum(length) - length

        def position(y):
            q, lane = np.divmod(y - 1, a)
            return first[lane] + (q if s > 0 else length[lane] - 1 - q)

        return position

    positions = [lanes(s) for s in steps]
    for k, position in enumerate(positions):
        bits = np.zeros((len(palette), 64 * (width + 1)), dtype=bool)
        bits[dense, position(np.arange(1, size + 1))] = True
        words = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
        del bits
        copies[:, k, 0] = words[:, :-1]
        for h in range(1, 64):
            np.bitwise_or(words[:, :-1] >> np.uint64(h),
                          words[:, 1:] << np.uint64(64 - h),
                          out=copies[:, k, h])
    flat = copies.reshape(-1)
    ones = np.uint64(2 ** 64 - 1)

    def base(c, k, p):
        """The flat index of the word holding bits p onwards of stream
        (color c, step k)."""
        return ((c * len(steps) + k) * 64 + p % 64) * width + p // 64

    def count(x, v, w, n):
        out = np.empty(len(x), dtype=np.int64)
        if not len(x):
            return out
        c = dense[x - 1]
        bv = base(c, 0, positions[0](v))
        bw = base(c, len(steps) - 1, positions[-1](w))
        k = (n + 63) // 64
        mask = ones >> (64 * k - n).astype(np.uint64)
        ends = np.cumsum(k)
        cuts = (np.flatnonzero(np.diff((ends - 1) // coloring._CHUNK))
                + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(x)]):
            kk = k[lo:hi]
            start = ends[lo:hi] - kk
            start -= start[0]
            index = np.arange(start[-1] + kk[-1])
            got = flat[np.repeat(bv[lo:hi] - start, kk) + index]
            got &= flat[np.repeat(bw[lo:hi] - start, kk) + index]
            got[start + kk - 1] &= mask[lo:hi]
            out[lo:hi] = np.add.reduceat(np.bitwise_count(got), start,
                                         dtype=np.int64)
        return out

    return (lambda x: table[x]), count


def _slice_counter(table: np.ndarray, vstep: int, wstep: int):
    """random past the copy budget: each piece slices the coloring's table
    once for v and once for w."""
    def count(x, v, w, n):
        out = []
        for color, b, c, size in zip(table[x], v.tolist(), w.tolist(),
                                     n.tolist()):
            stop = c + wstep * size
            mono = table[b:b + vstep * size:vstep] == color
            mono &= table[c:(stop if stop >= 0 else None):wstep] == color
            out.append(np.count_nonzero(mono))
        return np.array(out, dtype=np.int64)

    return (lambda x: table[x]), count


# ---------------------------------------------------------------------------
# array walk


def _array_terms(plan, bound: int, colors):
    """The terms of a planned array walk (`coloring._array_walk`), a block
    of `_BLOCK` prefix points at a time: per row, an affine num walks its
    progression (`_progressions`, with a per-row gcd and `_inverse`) and a
    quadratic one its exact windows (`_quadratic_runs`), each term then
    tested for divisibility.  Given a color array, it yields per chunk of
    at most `coloring._CHUNK` terms (u, row, t, s): the prefix values u of
    shape (len(prefix), rows), and for every monochromatic solution the
    index of its prefix in u, its inner value t and its solved value s, in
    the order of `coloring._walk` (by prefix point, then by t).  A
    row whose prefix values do not share a color is dropped before any term
    is built, and a term whose inner value does not share it before num is
    evaluated there."""
    prefix, _, _, terms, den_coeff, den_factors, quadratic = plan
    blocks = (_prefix_blocks(len(prefix), bound, _BLOCK) if prefix
              else [np.ones((0, 1), dtype=np.int64)])
    for u in blocks:
        c0 = None
        if prefix:
            c0 = colors[u[0]]
            if len(prefix) > 1:
                keep = (colors[u[1:]] == c0).all(axis=0)
                u, c0 = u[:, keep], c0[keep]
        rows = u.shape[1]
        if not rows:
            continue
        values = dict(zip(prefix, u))
        coef = _row_coefficients(terms, values, rows)
        den = np.full(rows, den_coeff, dtype=np.int64)
        for v, e in den_factors:
            den *= values[v] ** e
        coef *= np.where(den < 0, -1, 1)
        den = np.abs(den)
        a, b, c = coef[2], coef[1], coef[0]
        # affine rows: the progression of t with (b*t + c)/den in range
        row = np.flatnonzero(a == 0)
        alpha, beta, dr = b[row], c[row], den[row]
        g = np.gcd(alpha, dr)
        step = dr // g
        first, count = _progressions(alpha, beta, dr, g, step,
                                     _inverse(alpha // g, step), bound)
        runs = [(row, first, step, count)]
        if quadratic:
            row = np.flatnonzero(a)
            runs += [(row, lo, 1, np.maximum(hi - lo + 1, 0))
                     for lo, hi in _quadratic_runs(
                         a[row], b[row], c[row], den[row], bound)]
        row, first, step, count = (
            np.concatenate([np.broadcast_to(r[j], r[0].shape)
                            for r in runs]) for j in range(4))
        live = count > 0
        if quadratic:
            # row by row, as `_walk` goes: a row's windows ascend in t
            live = np.flatnonzero(live)
            live = live[np.argsort(row[live], kind="stable")]
        row, first, step, count = (x[live] for x in (row, first, step,
                                                     count))
        for run, i in _chunks(count, coloring._CHUNK):
            r = row[run]
            t = first[run] + step[run] * i
            if c0 is None:
                ct = colors[t]
            else:
                ct = c0[r]
                hit = colors[t] == ct
                r, t, ct = r[hit], t[hit], ct[hit]
            num = b[r] * t + c[r]
            if quadratic:
                num += a[r] * t * t
            dt = den[r]
            s = num // dt
            hit = colors[s] == ct
            if quadratic:
                hit &= s * dt == num
            yield u, r[hit], t[hit], s[hit]


def _row_coefficients(terms, values, rows: int):
    """Rows of num's coefficients of 1, t and t^2 at the prefix values."""
    coef = np.zeros((3, rows), dtype=np.int64)
    for x, k, factors in terms:
        for v, e in factors:
            x = x * (values[v] if e == 1 else values[v] ** e)
        coef[k] += x
    return coef


def _quadratic_runs(a, b, c, den, bound: int):
    """Row by row, the two windows [lo, hi] of the t in [1, bound] with
    den <= a*t^2 + b*t + c <= den*bound, a != 0, den > 0, as
    ((lo1, hi1), (lo2, hi2)): the t with the polynomial at most the top,
    less the t with it below the bottom, which lie inside them."""
    up = np.where(a > 0, 1, -1)
    a, b, c = a * up, b * up, c * up
    # with a > 0 now: bottom <= a*t^2 + b*t + c <= top
    bottom = np.where(up > 0, den, -den * bound)
    top = np.where(up > 0, den * bound, -den)
    lo, hi = _at_most(a, b, c - top, bound)
    cut_lo, cut_hi = _at_most(a, b, c - bottom + 1, bound)
    cut = cut_lo <= cut_hi
    return ((np.maximum(lo, 1), np.minimum(np.where(cut, cut_lo - 1, hi),
                                           bound)),
            (np.where(cut, np.maximum(cut_hi + 1, 1), bound + 1),
             np.minimum(hi, bound)))


def _at_most(a, b, c, bound: int):
    """Row by row, the integer interval [lo, hi] of the t with
    a*t^2 + b*t + c <= 0, for a > 0: empty (lo > hi) when it holds no
    integer, and exact where it meets [0, bound + 1].

    Each end starts within one of itself (`_root_starts`), and one exact
    evaluation on each side of the start corrects it: the polynomial is
    monotone between its roots and the vertex, and every candidate lies in
    [-1, bound + 2]."""
    disc = b * b - 4 * a * c
    lo, hi = _root_starts(a, b, disc, bound)

    def p(t):
        return (a * t + b) * t + c

    lo = np.where(p(lo - 1) <= 0, lo - 1, np.where(p(lo) > 0, lo + 1, lo))
    hi = np.where(p(hi + 1) <= 0, hi + 1, np.where(p(hi) > 0, hi - 1, hi))
    return np.where(disc < 0, 1, lo), np.where(disc < 0, 0, hi)


def _root_starts(a, b, disc, bound: int):
    """The ceiling and the floor of the float roots
    (-b -+ sqrt(disc))/(2a), clipped to [0, bound + 1].  With b^2 and
    disc below 2^62 the float error is far below 1, so each is within one
    of the integer end it estimates."""
    root = np.sqrt(np.maximum(disc, 0).astype(np.float64))
    lo = np.clip(np.ceil((-b - root) / (2 * a)), 0, bound + 1)
    hi = np.clip(np.floor((-b + root) / (2 * a)), 0, bound + 1)
    return lo.astype(np.int64), hi.astype(np.int64)


def _chunks(count, size: int):
    """The terms of runs of count[j] terms each, in order, at most `size`
    at a time: per chunk (run, i), term i of run `run`."""
    ends = np.cumsum(count)
    starts = ends - count
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, size):
        hi = min(lo + size, total)
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        take = (np.minimum(ends[first:last], hi)
                - np.maximum(starts[first:last], lo))
        run = np.repeat(np.arange(first, last), take)
        yield run, np.arange(lo, hi) - starts[run]


def _profiles(values: np.ndarray, N: int):
    """`coloring._profile` of every column of an (n, m) int64 array of
    values in [1, BOUND_CAP], as (ranks, valid): ranks[i, j] is the class
    of value i of column j, 0 the top, and valid[j] its validity.

    A stable descending argsort orders each column, and one pass over the
    n sorted rows opens a class where N*(anchor - v) >= v and marks the
    column invalid where, at such a cut, N*v >= the value before; the
    ranks are then scattered back to their positions.  Each comparison
    answers the same for every N at or past the largest value, as in
    `_linear_pieces`, so N is capped at `BOUND_CAP` and every product
    stays below 2^50."""
    N = min(N, coloring.BOUND_CAP)
    order = np.argsort(-values.T, axis=1, kind="stable").T
    ordered = np.take_along_axis(values, order, axis=0)
    by_order = np.zeros(values.shape, dtype=np.min_scalar_type(len(values)))
    valid = np.ones(values.shape[1], dtype=bool)
    anchor = last = ordered[0]
    for pos in range(1, len(values)):
        v = ordered[pos]
        cut = N * (anchor - v) >= v
        valid &= ~cut | (N * v < last)
        by_order[pos] = by_order[pos - 1] + cut
        anchor = np.where(cut, v, anchor)
        last = v
    ranks = np.empty_like(by_order)
    np.put_along_axis(ranks, order, by_order, axis=0)
    return ranks, valid


def _stream_chunks(plan, colors, bound: int, record):
    """The solutions stream of a planned array walk in `_walk`'s order, per
    chunk of `_array_terms`, as the text columns of `cli._Record`'s pieces:
    each variable's values, the colors, with a base each variable's heads,
    and the tails of the profile keys (`_profiles`).  Each column is one
    gather from the texts of the chunk's distinct values
    (`np.unique(values, return_inverse=True)`), colors or profile keys, so
    a text is made once per distinct item and format, and no table spans
    the bound or the colors."""
    n = len(plan.prefix) + 2

    def gather(texts, index):
        return np.array(texts, dtype=object)[index].tolist()

    for u, row, t, s in _array_terms(plan, bound, colors):
        if not len(t):
            continue
        values = np.empty((n, len(t)), dtype=np.int64)
        values[plan.prefix] = u[:, row]
        values[plan.inner] = t
        values[plan.solved] = s
        ranks, valid = _profiles(values, record.N)
        keys, which = _distinct_rows(np.vstack([ranks, valid]).T)
        tails = [record.tail((tuple(r[:-1]), bool(r[-1])))
                 for r in keys.tolist()]
        distinct, index = np.unique(values, return_inverse=True)
        index = index.reshape(values.shape)
        palette, shade = np.unique(colors[values[0]], return_inverse=True)
        xs = distinct.tolist()
        heads = list(map(record.head, xs)) if record.heads else []
        texts = {f: [f % x for x in xs] for f in set(record.values)}
        quoted = {f: [f % h for h in heads] for f in set(record.heads)}
        yield [*(gather(texts[f], i) for f, i in zip(record.values, index)),
               gather([record.color % c for c in palette.tolist()], shade),
               *(gather(quoted[f], i) for f, i in zip(record.heads, index)),
               gather(tails, which)]


def _array_heads(plan, colors, bound: int, base: int,
                 bin_count: int) -> tuple[list[int], int]:
    """`head_census`'s bins and total over the terms of the array walk
    that `coloring._array_walk` planned (`_array_terms`).  Each coordinate
    x finds its level scale = base^L <= x < base^(L+1) by a search over the
    base's powers and goes to bin (x - scale)*bin_count // ((base - 1)*scale);
    a prefix value is binned once per row, weighted by the row's
    solutions."""
    scales = [1]
    while scales[-1] * base <= bound:
        scales.append(scales[-1] * base)
    edges = np.array(scales, dtype=np.int64)
    # every numerator is below bound*bin_count, where any divisor gives bin
    # 0, so capping the exact divisor there keeps it in int64 for a base up
    # to and past 2^64
    dens = np.array([min((base - 1) * s, bound * bin_count) for s in scales],
                    dtype=np.int64)
    acc = np.zeros(bin_count, dtype=np.int64)

    def add(x, weights=None):
        level = np.searchsorted(edges, x, side="right") - 1
        # weighted counts come as float64, exact below 2^53
        got = np.bincount((x - edges[level]) * bin_count // dens[level],
                          weights)
        acc[:len(got)] += got.astype(np.int64)

    solutions = 0
    for u, row, t, s in _array_terms(plan, bound, colors):
        add(t)
        add(s)
        if len(u):
            per_row = np.bincount(row, minlength=u.shape[1])
            for x in u:
                add(x, per_row)
        solutions += len(t)
    # the prefix, inner and solved variables
    return acc.tolist(), (len(plan.prefix) + 2) * solutions
