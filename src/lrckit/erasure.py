"""Erasure-pattern machinery: the admissibility test for the structured
polynomial decoder, the decoder itself, a generic linear-algebra rank test
and decoding oracle that both run ``algebra.eliminate_keys`` (the
library's one column elimination) on H's column keys, the decoder with
the survivors' syndrome appended as one more key, and ``min_distance``,
the validated entry to the exact distance search
(``algebra.smallest_dependent``).

Erasure patterns are stated in terms of evaluation points, grouped by the
repair set they hit, plus the erased global points; the coordinate-level
view is read off the layout's point maps (``EvaluationLayout.point_coords``,
point -> coordinate per block and for S).  The admissibility test and
the coordinate view walk only the sets a pattern touches, once, and refuse
a pattern that does not fit the layout.  The structured decoder takes the
erased coordinates from that walk, reads its heavy sets off one combined
polynomial on barycentric weights cached per block
(``EvaluationLayout.block_table``), receives erased coordinates as
``None`` and never reads them; its word equals the survivors at the
information coordinates by construction, so it compares only the parities.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import chain, compress

from .algebra import FiniteField, Matrix, eliminate_keys, interpolant, smallest_dependent
from .errors import Inconsistent, Infeasible, InvalidParameter, NotAdmissible
from .lrc import EvaluationLayout, LinearCode


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
        not have, for a list longer than the layout's sets, and for a
        pattern that does not fit the layout (``_touched_sets``)."""
        nsets = len(layout.sets)
        if isinstance(per_set, dict):
            unknown = set(per_set) - set(range(nsets))
            if unknown:
                raise InvalidParameter(f"the layout has no evaluation set {min(unknown, key=repr)!r}")
            per_set = [per_set.get(b, ()) for b in range(nsets)]
        elif len(per_set) > nsets:
            raise InvalidParameter(f"pattern has {len(per_set)} sets, the layout {nsets}")
        sets = [*map(frozenset, per_set)] + [frozenset()] * (nsets - len(per_set))
        pat = ErasurePattern(tuple(sets), frozenset(global_points))
        _touched_sets(layout, pat)
        return pat

    def coords(self, layout: EvaluationLayout) -> tuple[int, ...]:
        """The erased coordinates, sorted, read off the layout's point maps
        (``layout.point_coords``) for the sets with erased points and the
        erased global points.  Raises InvalidParameter unless the pattern
        fits the layout (``_touched_sets``)."""
        touched = _touched_sets(layout, self).values()
        return tuple(sorted(chain(*touched, map(layout.point_coords[-1].__getitem__, self.globals_))))


def _touched_sets(layout: EvaluationLayout, pat: ErasurePattern) -> dict[int, list[int]]:
    """Per set with erased points, in set order, their coordinates, once
    the pattern is checked to fit the layout: one set of points per
    evaluation set, each inside its set, and erased global points in S.
    Raises InvalidParameter otherwise, so ``ErasurePattern.make`` builds
    no pattern that does not fit."""
    maps = layout.point_coords
    if len(pat.sets) != len(layout.sets):
        raise InvalidParameter(f"pattern has {len(pat.sets)} sets, the layout {len(layout.sets)}")
    touched = {}
    for b in compress(range(len(pat.sets)), pat.sets):
        try:
            touched[b] = [*map(maps[b].__getitem__, pat.sets[b])]
        except KeyError:
            raise InvalidParameter(f"erasures outside evaluation set {b}") from None
    if not maps[-1].keys() >= pat.globals_:
        raise InvalidParameter("global erasures outside the global point set")
    return touched


@dataclass
class AdmissibilityReport:
    admissible: bool
    heavy_sets: list[int]
    union_size: int
    budget: int   # h + delta - 1
    # per heavy set, in set order: its points, in order, in no other heavy set
    exclusive_points: dict[int, list[int]] = dc_field(default_factory=dict)
    # per set the pattern touches, in set order: its erased coordinates
    erased: dict[int, list[int]] = dc_field(default_factory=dict)


def pattern_admissible(layout: EvaluationLayout, pat: ErasurePattern) -> AdmissibilityReport:
    """Sufficient condition for structured recovery: the union of erased
    points over heavy sets plus the global erasures fits within h+delta-1,
    and each heavy set meets the union of the other heavy sets in at most
    delta-1 evaluation points, i.e. keeps at least |A_t|-delta+1 exclusive
    points.  Only the sets the pattern touches are visited, once; their
    erased coordinates and the heavy sets' exclusive points are reported
    for the decoder, the shared points from ``layout.point_sets`` when two
    or more sets are heavy.  Raises InvalidParameter unless the pattern
    fits the layout."""
    p = layout.params
    touched = _touched_sets(layout, pat)
    heavy = [t for t, lost in touched.items() if len(lost) >= p.delta]
    budget = p.h + p.delta - 1
    if len(heavy) < 2:  # a heavy set keeps all its points
        union = len(pat.sets[heavy[0]]) if heavy else 0
        return AdmissibilityReport(union + len(pat.globals_) <= budget, heavy, union, budget,
                                   {t: [*layout.sets[t]] for t in heavy}, touched)
    points = layout.point_sets
    seen, shared = set(), set()  # the points of the heavy sets, those of two or more
    for t in heavy:
        shared |= seen & points[t]
        seen |= points[t]
    union = len(set().union(*map(pat.sets.__getitem__, heavy)))
    exclusive, ok = {}, union + len(pat.globals_) <= budget
    for t in heavy:
        exclusive[t] = [x for x in layout.sets[t] if x not in shared]
        ok = ok and len(exclusive[t]) > len(points[t]) - p.delta
    return AdmissibilityReport(ok, heavy, union, budget, exclusive, touched)


def decode_structured(layout: EvaluationLayout, received, pat: ErasurePattern) -> list[int]:
    """Recover a codeword from an admissible pattern by the polynomial
    procedure, evaluating every polynomial only where it is needed, in
    barycentric form: no polynomial is built, and the encoder
    (``layout.encoder``) runs once.

    A light set's erased information symbols are the values of the
    polynomial through its first |A_b|-delta+1 survivors
    (``algebra.interpolant``).  With the heavy blocks' information zero, one
    pass of the encoder's row plan gives every check row on what is known,
    k_s at a global point s whose parity is c_s.  For the heavy sets, with U
    their union, E their erased points and e_t(x) = prod (x - y) over
    U - A_t, F = sum_t f_t e_t has degree < |U|-delta+1, and F(s) =
    (c_s - k_s) U(s) / Delta(s) at s in S, U(x) = prod_{y in U} (x - y).
    Its |U|-delta+1 nodes are the survivors of U and S', the first
    |E|-delta+1 surviving global points.  With W_t(x) = 1 / prod (x - y)
    over (A_t + S) - {x} (``layout.block_table``) and R(x) = prod (x - r)
    over r in E + (S - S'), the product over the other nodes is
    e_t(u) / (W_t(u) R(u)) at a survivor u of A_t, as
    U - {u} = (A_t - {u}) + (U - A_t); so its term w_u F(u) sums f_t(u)
    W_t(u) R(u) over the heavy t holding u, e_t cancelling, and a survivor
    of block t is its own f_t(u).  At s in S' it is U(s) prod_{S - s}
    (s - s') / R(s), so U(s) cancels, and w_s F(s) = (c_s - k_s) R(s) /
    (Delta(s) prod_{S - s} (s - s')), the latter cached
    (``layout.s_weights``).  At an erased x of A_t, F(x) is l(x) sum_u w_u
    F(u) / (x - u) (``fld.inv_dot``), l the product over the nodes, and
    l(x) / e_t(x) = prod (x - y) over (A_t - E) + S' / prod over E - A_t.
    F(x) = sum_v f_v(x) e_v(x) over the heavy v holding x, and e_v / W_v is
    prod (x - y) over (U + S) - {x} for each, so f_t(x) is F(x) / e_t(x)
    less f_v(x) W_v(x) / W_t(x) for each other such v, which kept x: a
    shared point lost in one block only is read off F too.  No weight is a
    product over the nodes.  Block t's information x_t is read at its
    information points; only if it lost one that another heavy set lost
    too, where F mixes two unknowns, is it the polynomial through its first
    points that are not such.  One pass of block t's plan then gives its
    local rows on x_t and what it adds to each global row.

    The decoded word is the survivors with the erased coordinates filled
    from the information and the pass's values (``layout.parities``).  It
    is the survivor at each information coordinate by construction (an
    interpolated x_t passes through them), so it is the information's
    encoding, a codeword, iff it is at the rows' pivots too: one comparison
    of the n - k parities checks every survivor, read above or not, and
    admissibility makes the codeword unique.

    ``received`` holds None at erased coordinates; those entries are never
    read.  Raises InvalidParameter when the pattern does not fit the
    layout, then NotAdmissible, then InvalidParameter when ``received``
    does not have n symbols or a survivor is missing or not an int in
    [0, q), and then Inconsistent.
    """
    fld, p = layout.field, layout.params
    rep = pattern_admissible(layout, pat)
    if not rep.admissible:
        raise NotAdmissible("pattern fails the admissibility conditions")
    heavy, touched, offsets, d = rep.exclusive_points, rep.erased, layout.block_offsets, p.delta - 1
    erased = [*map(layout.point_coords[-1].__getitem__, pat.globals_), *chain(*touched.values())]
    survivors = _survivors(received, erased, layout.n, fld)
    (plan, gather, _), groups = layout.encoder, layout.check_groups
    info = list(gather(survivors))
    # the heavy blocks' information zeroed, and the light blocks' erased
    # information filled from the first |A_b|-delta+1 survivors of each
    for b, lost in touched.items():
        a, off, cnt = layout.sets[b], offsets[b], len(layout.sets[b]) - d
        if b in heavy:
            info[groups[b].info] = [0] * cnt
        elif fill := [c - off for c in lost if c < off + cnt]:
            kept = [(x, survivors[c]) for c, x in enumerate(a, off) if x not in pat.sets[b]][:cnt]
            block = interpolant(fld, *zip(*kept))
            for i in fill:
                info[groups[b].info.start + i] = block(a[i])
    values = fld.run_plan(plan, info)

    if heavy:
        mul, div, sub, root_product, inv_dot = fld.mul, fld.div, fld.sub, fld.root_product, fld.inv_dot
        glob, s_points, maps = len(values) - p.h, layout.s_points, layout.point_coords
        lost, twice = set(), set()  # E, and its points lost in two or more heavy sets
        for t in heavy:
            twice |= lost & pat.sets[t]
            lost |= pat.sets[t]
        free = [i for i, s in enumerate(s_points) if s not in pat.globals_]
        rows = free[:len(lost) - d]  # S', the first |E| - delta + 1 surviving global points
        roots = [*lost, *pat.globals_, *map(s_points.__getitem__, free[len(rows):])]  # R
        # the nodes, each heavy set's survivors A_t - E (a point once per set
        # holding it: inv_dot sums the terms), then S'; and their terms w_u F(u)
        chosen, nodes, ws, near = [*map(s_points.__getitem__, rows)], [], [], []
        tables = [*map(layout.block_table, heavy)]
        for t, (weights, _) in zip(heavy, tables):
            a, off = layout.sets[t], offsets[t]
            nodes += (mine := [x for x in a if x not in lost])
            near.append(mine + chosen)
            ws += [mul(mul(y, w), root_product(roots, x))
                   for x, w, y in zip(a, weights, survivors[off:off + len(a)]) if x not in lost]
        nodes += chosen
        ws += [mul(mul(sub(survivors[layout.global_offset + i], values[glob + i]),
                       root_product(roots, s_points[i])), layout.s_weights[i]) for i in rows]

        for (t, exclusive), (weights, block_plan), near_t in zip(heavy.items(), tables, near):
            # f_t at the information points, or, if t lost one that another heavy
            # set lost too (mixed: F mixes two unknowns there), at the first unmixed
            a, off, mixed = layout.sets[t], offsets[t], twice & pat.sets[t]
            cnt = len(a) - d
            known = [i for i, x in enumerate(a) if x not in mixed][:cnt] if mixed else range(cnt)
            f_t, far = survivors[off:off + known[-1] + 1], lost - layout.point_sets[t]
            for c in touched[t]:
                if (i := c - off) > known[-1] or (x := a[i]) in mixed:
                    continue
                y = div(mul(inv_dot(ws, nodes, x), root_product(near_t, x)), root_product(far, x))
                if x not in exclusive:  # the other heavy sets holding x kept it
                    for v, (w_v, _) in zip(heavy, tables):
                        if v != t and (u := maps[v].get(x)) is not None:
                            y = sub(y, div(mul(survivors[u], w_v[u - offsets[v]]), weights[i]))
                f_t[i] = y
            x_t = f_t if known[-1] == cnt - 1 else [
                *map(interpolant(fld, [a[i] for i in known], [f_t[i] for i in known]), a[:cnt])]
            info[groups[t].info] = x_t
            out = fld.run_plan(block_plan, x_t)
            values[t * d:(t + 1) * d] = out[:d]
            values[glob:] = map(fld.add, values[glob:], out[d:])

    word, (parities, slots) = [*info, *values], layout.parities
    for c in erased:
        survivors[c] = word[slots[c]]
    if parities(survivors) != tuple(values):
        raise Inconsistent("decoded word disagrees with a survivor")
    return survivors


def _survivors(received, erased, n: int, fld: FiniteField) -> list[int]:
    """The received word with its erased coordinates set to 0, after
    checking that it has n symbols and that every survivor is present and
    a field element, an int in [0, q)."""
    word = list(received)
    if len(word) != n:
        raise InvalidParameter(f"received word must have length {n}")
    for c in erased:
        word[c] = 0
    if not fld.are_elements(word):
        if None in word:
            raise InvalidParameter("survivor coordinate is missing")
        raise InvalidParameter(f"received word symbols must be ints in [0, {fld.q})")
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
    a survivor is missing or not an int in [0, q).  Erased entries of
    ``received`` are not read.

    One ``eliminate_keys`` call with ``bound`` nrows decides it all.  Erased
    column t is keyed as [H_t; e_t; 0], its tag e_t the t-th unit vector,
    and the survivors' syndrome s = H w as one more key [s; 0; 1] after
    them: one pass of H's cached ``row_plan`` over the survivors, which
    ``_survivors`` has checked to be field elements, as the plan's lanes
    need.  A dependent erased column means None; a syndrome that becomes a
    pivot, one not in the span of the erased columns, means Inconsistent.
    Otherwise the syndrome reduces to c [0; x; 1], c nonzero, with s + H_E
    x = 0, so the erased values x are its tag entries divided by its last
    entry."""
    h = code.check
    fld = code.field
    cols = _columns(erased, code.n)
    masked = _survivors(received, cols, code.n, fld)
    m, nrows = len(cols), h.nrows
    vec_key = fld.vec_key
    unit = fld.packed([0] * m + [1] + [0] * m)  # [e_t; 0] is m + 1 entries from m - t
    keys = [vec_key(h.packed_column(c) + unit[m - t:2 * m + 1 - t]) for t, c in enumerate(cols)]
    keys.append(vec_key(fld.run_plan(h.row_plan(), masked) + [0] * m + [1]))
    pivots, dependents = eliminate_keys(fld.sub_key, keys, nrows)
    if len(pivots) < m:
        return None
    if not dependents:
        raise Inconsistent("survivors are inconsistent with the code")
    v = dependents[0]
    scale = fld.inv(v[-1])
    for t, c in enumerate(cols, nrows):
        masked[c] = fld.mul(v[t], scale)
    return masked


# ----------------------------------------------------------------------
# exact minimum distance


def min_distance(h: Matrix, d_max: int | None = None, workers: int = 1) -> int:
    """Exact minimum distance of the code with parity-check matrix H: the
    smallest s such that some s columns of H are dependent, by
    ``algebra.smallest_dependent``, whose docstring describes the passes.

    ``d_max`` bounds the search and must be an int (not a bool), at least
    1; InvalidParameter otherwise, and for a matrix with no columns.  Its
    default, min(n, nrows) + 1, needs no rank: any rank(H) + 1 columns are
    dependent and rank(H) <= min(n, nrows), so a dependent subset, if any,
    is found within it; if there is none, rank(H) = n <= nrows and the
    bound is n + 1.  Raises Infeasible when no subset of size <= d_max is
    dependent, and when the search would pass ``algebra.NODE_GUARD``.
    ``workers`` is accepted, for callers that still pass it, and ignored:
    the search runs in this process.
    """
    n = h.ncols
    if n == 0:
        raise InvalidParameter("empty matrix")
    if d_max is None:
        d_max = min(n, h.nrows) + 1
    elif isinstance(d_max, bool) or not isinstance(d_max, int):
        raise InvalidParameter(f"d_max must be an int, got {d_max!r}")
    elif d_max < 1:
        raise InvalidParameter(f"d_max must be at least 1, got {d_max}")
    s = smallest_dependent(h, d_max)
    if s is None:
        raise Infeasible(f"no dependent subset of size <= {d_max} found")
    return s
