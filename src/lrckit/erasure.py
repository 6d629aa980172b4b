"""Erasure-pattern machinery: the admissibility test for the structured
polynomial decoder, the decoder itself, a generic linear-algebra rank test
and decoding oracle that both run ``Matrix.eliminate`` (the library's one
sparse column elimination), exact minimum-distance search, and the local
repair that the array sweeps apply before the rank test.

Local repair rests on information locality.  If the code punctured to a
repair set A has distance d, and an erased set E meets A in at least one
and at most min(d, delta) - 1 coordinates, then E is recoverable iff E - A
is: a codeword supported on E restricts on A to a punctured codeword of
weight below d, which is zero.  ``local_repair_map`` finds those
thresholds from the punctured checks, and ``peel`` drops the light sets of
disjoint repair sets in one pass.

Erasure patterns are stated in terms of evaluation points, grouped by the
repair set they hit, plus the erased global points; the coordinate-level
view is derived through the layout's coordinate map.  The structured
decoder receives erased coordinates as ``None`` and never reads them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .algebra import FiniteField, Matrix, lagrange_basis, value_from_roots
from .errors import Inconsistent, Infeasible, InvalidParameter, NotAdmissible
from .lrc import EvaluationLayout, LinearCode, encode, punctured_checks


@dataclass(frozen=True)
class ErasurePattern:
    """Erased evaluation points per repair set, plus erased global points."""

    sets: tuple[frozenset[int], ...]
    globals_: frozenset[int]

    @staticmethod
    def make(layout: EvaluationLayout, per_set, global_points=()) -> "ErasurePattern":
        """Build a pattern from erased points per set (a list aligned with
        the layout's sets, or a dict keyed by set index) plus erased global
        points.  Raises InvalidParameter for a set index the layout does
        not have, and for a list longer than the layout's sets."""
        nsets = len(layout.sets)
        if isinstance(per_set, dict):
            unknown = set(per_set) - set(range(nsets))
            if unknown:
                raise InvalidParameter(f"the layout has no evaluation set {min(unknown, key=repr)!r}")
            per_set = [per_set.get(b, ()) for b in range(nsets)]
        elif len(per_set) > nsets:
            raise InvalidParameter(f"pattern has {len(per_set)} sets, the layout {nsets}")
        sets = []
        for b, pts in enumerate(per_set):
            pts = frozenset(pts)
            if not pts <= set(layout.sets[b]):
                raise InvalidParameter(f"erasures outside evaluation set {b}")
            sets.append(pts)
        while len(sets) < nsets:
            sets.append(frozenset())
        g = frozenset(global_points)
        if not g <= set(layout.s_points):
            raise InvalidParameter("global erasures outside the global point set")
        return ErasurePattern(tuple(sets), g)

    def coords(self, layout: EvaluationLayout) -> tuple[int, ...]:
        """The erased coordinates, sorted; only the sets with erased points
        and the erased global points are visited."""
        out = []
        for b, pts in enumerate(self.sets):
            if pts:
                out.extend(layout.coord(b, t) for t, x in enumerate(layout.sets[b]) if x in pts)
        if self.globals_:
            out.extend(layout.global_coord(i) for i, s in enumerate(layout.s_points)
                       if s in self.globals_)
        return tuple(sorted(out))


@dataclass
class AdmissibilityReport:
    admissible: bool
    heavy_sets: list[int]
    union_size: int
    budget: int   # h + delta - 1


def _exclusive_points(layout: EvaluationLayout, heavy) -> dict[int, list[int]]:
    """Per heavy set, in set order, its points that lie in no other heavy
    set."""
    count = Counter(x for t in heavy for x in layout.sets[t])
    return {t: [x for x in layout.sets[t] if count[x] == 1] for t in heavy}


def pattern_admissible(layout: EvaluationLayout, pat: ErasurePattern) -> AdmissibilityReport:
    """Sufficient condition for structured recovery: the union of erased
    points over heavy sets plus the global erasures fits within h+delta-1,
    and each heavy set meets the union of the other heavy sets in at most
    delta-1 evaluation points, i.e. keeps at least |A_t|-delta+1 exclusive
    points."""
    p = layout.params
    heavy = [i for i, e in enumerate(pat.sets) if len(e) >= p.delta]
    union = set().union(*(pat.sets[i] for i in heavy))
    budget = p.h + p.delta - 1
    ok = len(union) + len(pat.globals_) <= budget and all(
        len(xs) >= layout.interp_count(t)
        for t, xs in _exclusive_points(layout, heavy).items())
    return AdmissibilityReport(ok, heavy, len(union), budget)


def decode_structured(layout: EvaluationLayout, received, pat: ErasurePattern) -> list[int]:
    """Recover a codeword from an admissible pattern by the polynomial
    procedure, evaluating every polynomial only at the points it is needed
    at, through ``lagrange_basis``: no polynomial is built.

    A light set's erased information symbols are the values of the
    polynomial through its first |A_i|-delta+1 survivors.  For the heavy
    sets, the combined polynomial is split into a known part and an
    unknown part supported on the union U of the heavy sets; the unknown
    part has degree < |U|-delta+1 and is pinned by that many values: the
    survivors in U, each scaled by e_t(x) = prod_{y in U - A_t} (x - y),
    then the surviving global parities, less the known part (a partial dot
    product of the global row over the light blocks) and divided by
    phi(s) = Delta(s)/U(s).  Each heavy set's information symbols are then
    read off its first |A_t|-delta+1 exclusive points.  Admissibility
    guarantees that there are enough of each.

    Only the blocks with erasures are visited: an untouched light block
    keeps its survivors as they are.  Each e_t(x) is computed once per call.

    The recovered information is re-encoded through ``layout.check_rows``,
    and the one consistency check compares the result, zeroed at the
    erased coordinates, with the survivors in a single list comparison.
    The result is always a codeword, so it matches the survivors iff they
    extend to a codeword, which admissibility makes unique; survivors the
    steps above did not read, those of untouched blocks included, are
    checked there too.

    ``received`` holds None at erased coordinates; those entries are never
    read.  Raises NotAdmissible or Inconsistent, and InvalidParameter when
    ``received`` does not have n symbols or a survivor is missing or
    outside [0, q).
    """
    fld = layout.field
    dot = fld.dot
    p = layout.params
    rep = pattern_admissible(layout, pat)
    if not rep.admissible:
        raise NotAdmissible("pattern fails the admissibility conditions")
    erased = pat.coords(layout)
    heavy = rep.heavy_sets
    survivors = _survivors(received, erased, layout.n, fld.q)
    # survivors in place, light erasures filled below, heavy blocks zero;
    # only the information coordinates are read
    word = survivors[:]
    for b, lost_pts in enumerate(pat.sets):
        if not lost_pts:
            continue
        a, coords = layout.sets[b], layout.block_coords(b)
        if b in heavy:
            for c in coords:
                word[c] = 0
            continue
        cnt = layout.interp_count(b)
        lost = [(c, x) for c, x in zip(coords, a[:cnt]) if x in lost_pts]
        if lost:
            kept = [(x, word[c]) for x, c in zip(a, coords) if x not in lost_pts][:cnt]
            basis = lagrange_basis(fld, [x for x, _ in kept])
            ys = [y for _, y in kept]
            for c, x in lost:
                word[c] = dot(basis(x), ys)

    if heavy:
        union = sorted({x for t in heavy for x in layout.sets[t]})
        # e_t(x) = prod_{y in U \ A_t} (x - y), which vanishes on U \ A_t
        outside = {t: [y for y in union if y not in layout.sets[t]] for t in heavy}
        e_values = {}

        def e(t, x):
            if (t, x) not in e_values:
                e_values[t, x] = value_from_roots(fld, outside[t], x)
            return e_values[t, x]

        erased_pts = set().union(*(pat.sets[t] for t in heavy))
        xs, ys = [], []
        for x in union:
            if x in erased_pts:
                continue
            acc = 0
            for t in heavy:
                a = layout.sets[t]
                if x in a:
                    c = received[layout.coord(t, a.index(x))]
                    acc = fld.add(acc, fld.mul(e(t, x), c))
            xs.append(x)
            ys.append(acc)
        # heavy sets hold >= delta erasures, so the survivors in U fall
        # short of the need and the global parities complete it
        need = len(union) - p.delta + 1
        global_rows = layout.check_rows[len(layout.check_rows) - p.h:]
        for i, s in enumerate(layout.s_points):
            if len(xs) == need:
                break
            if s in pat.globals_:
                continue
            pivot, cs, coeffs = global_rows[i]  # the pivot is s's coordinate
            known = dot(coeffs, map(word.__getitem__, cs))
            phi = fld.div(layout.delta_at_s[i], value_from_roots(fld, union, s))
            xs.append(s)
            ys.append(fld.div(fld.sub(received[pivot], known), phi))
        combined = lagrange_basis(fld, xs)

        for t, exclusive in _exclusive_points(layout, heavy).items():
            nodes = exclusive[: layout.interp_count(t)]
            vals = [fld.div(dot(combined(x), ys), e(t, x)) for x in nodes]
            basis = lagrange_basis(fld, nodes)
            for c, x in zip(layout.block_coords(t), layout.sets[t][: len(nodes)]):
                word[c] = dot(basis(x), vals)

    word = encode(layout, [word[c] for c in layout.info_coords])
    check = word[:]
    for c in erased:
        check[c] = 0
    if check != survivors:
        raise Inconsistent("decoded word disagrees with a survivor")
    return word


def _survivors(received, erased, n: int, q: int) -> list[int]:
    """The received word with its erased coordinates set to 0, after
    checking that it has n symbols and that every survivor is present and
    a field element."""
    word = list(received)
    if len(word) != n:
        raise InvalidParameter(f"received word must have length {n}")
    for c in erased:
        word[c] = 0
    if None in word:
        raise InvalidParameter("survivor coordinate is missing")
    if word and not 0 <= min(word) <= max(word) < q:
        raise InvalidParameter(f"received word symbols must lie in [0, {q})")
    return word


# ----------------------------------------------------------------------
# generic linear-algebra oracle


def _columns(coords, n: int) -> list[int]:
    """The distinct coordinates, sorted; raises InvalidParameter unless
    they all lie in [0, n)."""
    cols = sorted(set(coords))
    if cols and not (0 <= cols[0] and cols[-1] < n):
        raise InvalidParameter(f"erased coordinates must lie in [0, {n})")
    return cols


def recoverable(h: Matrix, coords) -> bool:
    """True iff the columns of H indexed by ``coords`` are independent,
    i.e. the erasure pattern has a unique completion, by
    ``Matrix.eliminate``.  Raises InvalidParameter unless every coordinate
    lies in [0, n), n the number of columns of H.  On the structural parity
    check, whose local rows come first, a block with at most delta-1
    erasures is absorbed by its own local rows and only the global rows
    fill in."""
    return not h.eliminate(_columns(coords, h.ncols))[1]


def decode_linear(code: LinearCode, erased, received) -> list[int] | None:
    """Unique-completion decoder: solve the parity checks for the erased
    coordinates.  Returns None when the erased columns are dependent
    (pattern not recoverable); raises Inconsistent when the survivors do
    not extend to a codeword, and InvalidParameter when an erased
    coordinate lies outside [0, n), ``received`` does not have n symbols or
    a survivor is missing or outside [0, q).  Erased entries of
    ``received`` are not read.

    Shares ``recoverable``'s elimination, with tagged columns: the
    survivors' syndrome, padded with zeros, is reduced against the pivots,
    must vanish on the rows of H, and leaves the erased values in the tag
    rows.  Each syndrome entry is one ``field.dot`` of a row's cached
    nonzero values with the survivors its getter picks (``Matrix.row_terms``)."""
    h = code.check
    fld = code.field
    cols = _columns(erased, code.n)
    masked = _survivors(received, cols, code.n, fld.q)
    pivots, dependent = h.eliminate(cols, tagged=True)
    if dependent:
        return None
    dot, nrows = fld.dot, h.nrows
    # the syndrome (erased entries of masked are zero)
    v = [dot(vals, get(masked)) for get, vals in h.row_terms()] + [0] * len(cols)
    for pr, pinv, u, su in pivots:
        if v[pr]:
            fld.vec_sub_at(v, fld.mul(v[pr], pinv), u, su)
    if any(v[:nrows]):
        raise Inconsistent("survivors are inconsistent with the code")
    for t, c in enumerate(cols):
        masked[c] = v[nrows + t]
    return masked


# ----------------------------------------------------------------------
# exact minimum distance


def _support_masks(cols) -> tuple[list[int], list[int]]:
    """The supports of ``cols`` as bitmasks, with the rows renumbered
    sparsest first (ties in row order), so the lowest bit of a row mask is
    its sparsest row: per column the rows it is nonzero at, and per row the
    columns nonzero there."""
    rows = list(zip(*cols))
    col_rows = [0] * len(cols)
    row_cols = []
    for i, row in enumerate(sorted(rows, key=lambda row: len(row) - row.count(0))):
        bit, mask = 1 << i, 0
        for j, x in enumerate(row):
            if x:
                mask |= 1 << j
                col_rows[j] |= bit
        row_cols.append(mask)
    return col_rows, row_cols


def _dependent_subset(cols, nrows, fld: FiniteField, size, masks=None) -> bool:
    """True iff some ``size`` of the columns are dependent, given that no
    smaller subset is.  ``cols`` holds the columns as ``fld.normalize``
    maps them (scaled to a leading 1), each of ``nrows`` entries.

    Sizes 1 and 2 need no search: a zero column, or, with no zero column, a
    repeat.  For larger sizes every column after the prefix (a candidate)
    is held normalized, its own collision key.  The lowest ``size - 2``
    columns of a subset form its prefix, found by a DFS over independent
    prefixes in lexicographic order.  Pushing a candidate u as a pivot at
    its leading row reduces and re-normalizes only the later candidates
    nonzero at that row; the others pass through unchanged.  So each
    candidate is zero on the pivot rows, the one such normalized vector in
    its class modulo the prefix's span, up to scale.  As no smaller subset
    is dependent, the prefix plus candidates a and b is dependent iff
    a == b or one is zero: one set lookup per candidate.

    ``masks``, ``_support_masks(cols)`` or None, turns on the
    circuit rule.  As no smaller subset is dependent, a dependent
    ``size``-set is a circuit: its one dependency has every coefficient
    nonzero, so each row of the matrix meets it in no column or in at
    least two.  The DFS carries the rows its prefix meets once and those
    it meets more often, and skips a pivot u unless the k columns still to
    pick, all after u, can meet every row met once: for k = 1 some column
    meets them all, for k = 2 or 3 some column of the sparsest such row
    leaves rows that k - 1 columns can meet, and for k >= 4 the later
    columns together meet them all.
    These conditions are necessary only: a skip never hides a circuit, and
    the collision step is still the only way to answer True."""
    zero = (0,) * nrows
    if size == 1:
        return zero in cols
    if size == 2:
        return len(set(cols)) < len(cols)
    vec_sub, key = fld.vec_sub, fld.normalize
    if masks is not None:
        col_rows, row_cols = masks
        after = [0] * (len(cols) + 1)  # after[j]: the rows columns j.. meet
        for j in range(len(cols) - 1, -1, -1):
            after[j] = after[j + 1] | col_rows[j]

    def coverable(need, k, lo):
        # can k of the columns lo.. meet every row of the mask need?
        if need & ~after[lo]:
            return False
        if not need or k >= 4:
            return True
        low = need & -need  # the sparsest row
        here = row_cols[low.bit_length() - 1] >> lo
        if k == 1:
            need ^= low
            while need and here:
                low = need & -need
                here &= row_cols[low.bit_length() - 1] >> lo
                need ^= low
            return here != 0
        while here:
            bit = here & -here
            if coverable(need & ~col_rows[lo + bit.bit_length() - 1], k - 1, lo):
                return True
            here ^= bit
        return False

    def extend(cands, lo, once, many, depth):
        # cands: the normalized columns lo.. reduced against the prefix,
        # which meets the rows of once in one column and those of many in
        # more; a pivot needs k = size - depth - 1 more columns after it,
        # the rest of the prefix and at least two candidates
        k = size - depth - 1
        once2 = many2 = 0
        for t in range(len(cands) - k):
            if masks is not None:
                m = col_rows[lo + t]
                many2 = many | (once & m)
                once2 = (once | m) & ~many2
                if not coverable(once2, k, lo + t + 1):
                    continue
            u = cands[t]
            pi = u.index(1)  # the leading row
            rest = [key(vec_sub(w, w[pi], u)) if w[pi] else w for w in cands[t + 1:]]
            if depth + 3 == size:
                if len(set(rest)) < len(rest) or zero in rest:
                    return True
            elif extend(rest, lo + t + 1, once2, many2, depth + 1):
                return True
        return False

    return extend(cols, 0, 0, 0, 0)


NODE_GUARD = 10**8  # most rank tests a distance search may project


def min_distance(h: Matrix, d_max: int | None = None, workers: int = 1) -> int:
    """Exact minimum distance of the code with parity-check matrix H: the
    smallest s such that some s columns of H are dependent.

    The search is incremental by size: pass s proves that no dependent
    subset of size < s exists before subsets of size s are examined, so the
    first hit is exact.  Within pass s a DFS enumerates the independent
    prefixes of s - 2 columns.  The later columns are held reduced against
    the prefix and normalized (scaled to a leading 1), so a pivot touches
    only the columns nonzero at its row, and the last two columns come from
    a collision step: two later columns are dependent with the prefix iff
    their normalized forms coincide or one is zero (see
    ``_dependent_subset``).  ``d_max`` bounds the search and must be at
    least 1.  Its default, min(n, nrows) + 1, needs no rank: any rank(H) +
    1 columns are dependent and rank(H) <= min(n, nrows), so a dependent
    subset, if any, is found within it; if there is none, rank(H) = n <=
    nrows and the bound is n + 1.  Raises Infeasible when the projected
    number of rank tests, the sum of C(n, s) over the passes so far,
    exceeds ``NODE_GUARD``; that estimate ignores the pruning below, so
    the guard refuses the same inputs as an unpruned search would.

    Pass s runs only after the smaller passes found no dependent subset, so
    a dependent s-set is a circuit, and every row of H meets it in no
    column or in at least two.  From the first pass of size 4 on, the DFS
    uses that circuit rule to skip prefixes whose once-met rows the
    columns still to pick cannot meet (see ``_dependent_subset``).  The
    row and column support masks it needs are built once per call, at that
    pass, from the normalized columns; the smaller passes, and the many
    searches that end in them, never build them.

    The columns are normalized once per call, and every pass runs in this
    process.  ``workers`` is accepted, for callers that still pass it, and
    ignored.
    """
    n = h.ncols
    if n == 0:
        raise InvalidParameter("empty matrix")
    if d_max is None:
        d_max = min(n, h.nrows) + 1
    elif d_max < 1:
        raise InvalidParameter(f"d_max must be at least 1, got {d_max}")
    s = _smallest_dependent(h, d_max)
    if s is None:
        raise Infeasible(f"no dependent subset of size <= {d_max} found")
    return s


def _smallest_dependent(h: Matrix, d_max: int) -> int | None:
    """The passes of ``min_distance`` up to ``d_max``: the smallest s <=
    d_max such that some s columns of H are dependent, or None.  Raises
    Infeasible past ``NODE_GUARD``."""
    n = h.ncols
    cols = list(map(h.field.normalize, zip(*h.rows))) or [()] * n
    masks = None
    est = 0
    for s in range(1, d_max + 1):
        est += math.comb(n, s)
        if est > NODE_GUARD:
            raise Infeasible(
                f"distance search would need ~{est} rank tests (> {NODE_GUARD})"
            )
        if s == 4:
            masks = _support_masks(cols)
        if _dependent_subset(cols, h.nrows, h.field, s, masks):
            return s
    return None


# ----------------------------------------------------------------------
# local repair in front of the rank test


def local_repair_map(code: LinearCode) -> dict[int, tuple[int, int]]:
    """Coordinate -> (repair set, threshold t), for the coordinates of
    every repair set of ``code`` with t >= 1, where t = min(d, delta) - 1
    and d is the distance of the code punctured to the set: at most t
    erasures in the set are repaired from it alone (module docstring).

    d is tested only as far as delta - 1: the passes of ``min_distance``
    of size < delta on each set's ``lrc.punctured_checks`` matrix.  A set
    whose check is empty, or whose search would pass ``NODE_GUARD``, gets
    t = 0.  The map is empty when delta < 2 or when the repair sets are
    not disjoint: ``peel`` drops a set by the erasures it counts there,
    which would miss those of a shared coordinate counted for another
    set."""
    sets = code.repair_sets
    if len(set().union(*sets)) < sum(map(len, sets)):
        return {}
    out = {}
    for b, (coords, pc) in enumerate(zip(sets, punctured_checks(code))):
        if pc.nrows == 0:
            continue
        try:
            d = _smallest_dependent(pc, code.delta - 1)
        except Infeasible:
            continue
        t = code.delta - 1 if d is None else d - 1
        if t:
            out.update(dict.fromkeys(coords, (b, t)))
    return out


def peel(repair: dict[int, tuple[int, int]], coords) -> list[int]:
    """The coordinates left of an erased set once every repair set it
    meets in at most its threshold, by ``repair`` (``local_repair_map``),
    is dropped, in one pass over ``coords``.  Exact: ``coords`` is
    recoverable iff the result is, as dropping one light set leaves the
    others' erasures as they were (the sets are disjoint)."""
    kept: list[int] = []
    hits: dict[tuple[int, int], list[int]] = {}
    for c in coords:
        entry = repair.get(c)
        if entry is None:
            kept.append(c)
        elif entry in hits:
            hits[entry].append(c)
        else:
            hits[entry] = [c]
    for (_, t), cs in hits.items():
        if len(cs) > t:
            kept += cs
    return kept
