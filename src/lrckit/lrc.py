"""The two-step polynomial construction of locally repairable codes with
information locality: evaluation layouts, the encoder, generator and
parity-check synthesis, and locality verification.

The construction is the paper's: block i carries a polynomial f_i of
degree < |A_i|-delta+1 interpolating its information symbols, and the
global parities are the values at S of sum_i f_i * prod_{j != i} g_j with
g_j = prod_{x in A_j} (x - y).  That polynomial encoder defines the
structural parity check H, whose rows each have one pivot at a
local-parity or global coordinate and are otherwise supported on
information coordinates.  Every entry of H is a value of a Lagrange basis
polynomial, so each layout synthesises H once, from
``algebra.lagrange_basis`` on each block's information points, as groups
of rows that read the same information symbols (``check_groups``): a
block's delta-1 local rows, and the h global rows.  The encoder runs them
all as one row plan over the information (``FiniteField.row_plan``); the
structured decoder (``erasure.decode_structured``) runs it once, on the
information it knows, and adds each block it restores by that block's
plan (``block_table``).  The generator and parity-check synthesis read
the same groups, and the decoder's interpolants are barycentric, on
weights cached per block (``block_table``), so no polynomial is built.

A layout consists of an ordered h-subset S of the field (global-parity
evaluation points) and ordered sets A_1..A_{L+1} of field elements disjoint
from S, with |A_i| = r+delta-1 for i <= L and |A_{L+1}| = v+delta-1.
Codeword coordinates are block-major: block 1's points, block 2's points,
..., then the h global coordinates.  The layout also holds that map
inverted, point -> coordinate per block and for S (``point_coords``), so
that an erasure pattern, stated in points, is read one erased point at a
time and the structured decoder walks only the sets the pattern touches.

A ``LinearCode`` is a code given by its parity check H alone, with declared
repair sets.  ``verify_locality`` checks the paper's information locality
on it, shortening the dual to each repair set from H's own supports
(``punctured_checks``), whatever the order or the form of H's rows, and
finds each punctured distance by ``algebra.smallest_dependent``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import NamedTuple, Sequence

from .algebra import FiniteField, Matrix, lagrange_basis, smallest_dependent
from .designs import Design
from .errors import (
    FieldTooSmall,
    Infeasible,
    InternalInvariantViolation,
    InvalidParameter,
)


@dataclass(frozen=True)
class LrcParams:
    """Parameters (r, delta, ell, v, h) with k = r*ell + v and
    n = k + (ell+1)(delta-1) + h."""

    r: int
    delta: int
    ell: int
    v: int
    h: int

    def __post_init__(self):
        if self.delta < 2 or self.ell < 1 or self.h < 0 or self.r < 1:
            raise InvalidParameter("need delta >= 2, ell >= 1, h >= 0, r >= 1")
        if not (0 < self.v <= self.r):
            raise InvalidParameter("need 0 < v <= r")

    @property
    def k(self) -> int:
        return self.r * self.ell + self.v

    @property
    def n(self) -> int:
        return self.k + (self.ell + 1) * (self.delta - 1) + self.h


class CheckGroup(NamedTuple):
    """Rows of the structural parity check that read the same information
    symbols: a block's delta-1 local rows, or the h global rows.  Every
    codeword has ``word[pivots[t]] = sum(c * word[j] for j, c in
    zip(coords, coeffs[t]))``, so H holds -c at j and 1 at the pivot."""

    info: slice                # the symbols read, as a slice of the information
    coords: Sequence[int]      # their coordinates: a range for a block
    pivots: range              # per row, the coordinate it solves for
    coeffs: tuple[tuple[int, ...], ...]  # per row, its coefficients on coords


class EvaluationLayout:
    """Field, global points S, and ordered evaluation sets A_1..A_{L+1}.

    Construct it directly on explicit sets of field elements, or through
    ``build_layout`` on a design.  The constructor validates the sets and
    lays out the coordinates; the structural parity check and the values
    derived from it are computed on first use and cached.

    ``truncated_tail`` records the evaluation points dropped when the last
    set was cut down from a full design block to v+delta-1 points; the
    truncated array arrangement keys its parity columns off them.
    """

    def __init__(self, fld: FiniteField, params: LrcParams, sets, s_points,
                 truncated_tail=()):
        self.field = fld
        self.params = params
        self.sets = [tuple(a) for a in sets]
        self.s_points = tuple(s_points)
        self.truncated_tail = tuple(truncated_tail)
        p = params
        # before the sets of points below, which an unhashable point or a float would upset
        if not fld.are_elements([x for a in (self.s_points, *self.sets, self.truncated_tail) for x in a]):
            raise InvalidParameter(f"evaluation points must be ints in [0, {fld.q})")
        if len(self.sets) != p.ell + 1:
            raise InvalidParameter(f"expected {p.ell + 1} evaluation sets")
        for i, a in enumerate(self.sets):
            want = p.r + p.delta - 1 if i < p.ell else p.v + p.delta - 1
            if len(a) != want:
                raise InvalidParameter(f"set {i} has size {len(a)}, expected {want}")
            if len(set(a)) != len(a):
                raise InvalidParameter(f"set {i} has repeated evaluation points")
            if set(a) & set(self.s_points):
                raise InvalidParameter(f"set {i} meets the global point set")
        if len(self.s_points) != p.h:
            raise InvalidParameter(f"expected {p.h} global points")
        if len(set(self.s_points)) != p.h:
            raise InvalidParameter("global points must be distinct")
        self.block_offsets = []
        off = 0
        for a in self.sets:
            self.block_offsets.append(off)
            off += len(a)
        self.global_offset = off
        self.n = off + p.h
        if self.n != p.n:
            raise InternalInvariantViolation("coordinate bookkeeping mismatch")

    # -- coordinate map ----------------------------------------------------

    def coord(self, block: int, t: int) -> int:
        """Flat coordinate of position t (0-based) in block (0-based)."""
        return self.block_offsets[block] + t

    def global_coord(self, i: int) -> int:
        return self.global_offset + i

    def interp_count(self, block: int) -> int:
        """Number of information positions of a block: |A_i| - delta + 1."""
        return len(self.sets[block]) - self.params.delta + 1

    def block_coords(self, block: int) -> tuple[int, ...]:
        off = self.block_offsets[block]
        return tuple(range(off, off + len(self.sets[block])))

    @cached_property
    def point_coords(self) -> tuple[dict[int, int], ...]:
        """The coordinate map inverted: per block, then for S, each
        evaluation point's coordinate.  Erasure patterns, stated in points,
        are read through it."""
        return tuple({x: c for c, x in enumerate(a, off)} for a, off in
                     zip([*self.sets, self.s_points], [*self.block_offsets, self.global_offset]))

    # -- the structural parity check, synthesised once per layout ----------

    @cached_property
    def info_coords(self) -> tuple[int, ...]:
        """Coordinates carrying the information symbols, in encoding order:
        the first |A_i|-delta+1 positions of each block."""
        return tuple(c for b in range(len(self.sets))
                     for c in self.block_coords(b)[: self.interp_count(b)])

    @cached_property
    def delta_at_s(self) -> tuple[int, ...]:
        """Delta(s) = prod_i g_i(s) at each global point s."""
        roots = [x for a in self.sets for x in a]
        return tuple(self.field.root_product(roots, s) for s in self.s_points)

    @cached_property
    def check_groups(self) -> tuple[CheckGroup, ...]:
        """The structural parity check in row groups, one per block and then
        one for S.  Information is block-major, so a block's symbols are one
        slice of the information and one range of coordinates, followed by
        its delta-1 local-parity coordinates.

        A block's rows are the Lagrange basis of its information points
        evaluated at each local-parity point.  The global group holds one
        row per point s of S, over all the information: the same bases at
        s, each scaled by Delta(s)/g_i(s).
        """
        fld = self.field
        groups = []
        bases = []  # per block: the Lagrange basis on its information points
        start = 0
        for b, a in enumerate(self.sets):
            cnt = self.interp_count(b)
            basis = lagrange_basis(fld, a[:cnt])
            bases.append(basis)
            off = self.block_offsets[b]
            coeffs = tuple(tuple(basis(x)) for x in a[cnt:])
            groups.append(CheckGroup(slice(start, start + cnt), range(off, off + cnt),
                                     range(off + cnt, off + len(a)), coeffs))
            start += cnt
        coeffs = []
        for j, s in enumerate(self.s_points):
            row = []
            for basis, a in zip(bases, self.sets):
                scale = fld.div(self.delta_at_s[j], fld.root_product(a, s))
                row += fld.vec_scale(basis(s), scale)
            coeffs.append(tuple(row))
        groups.append(CheckGroup(slice(0, start), self.info_coords,
                                 range(self.global_offset, self.n), tuple(coeffs)))
        return tuple(groups)

    @cached_property
    def encoder(self) -> tuple[tuple, operator.itemgetter, operator.itemgetter]:
        """The check rows as one row plan over the information, the getter
        of the information from a codeword, and the getter of the codeword
        from the information and a pass's values."""
        k, groups = self.params.k, self.check_groups
        return (self.field.row_plan([(range(*g.info.indices(k)), c)
                                     for g in groups for c in g.coeffs], k),
                operator.itemgetter(*self.info_coords),
                operator.itemgetter(*self.parities[1]))

    @cached_property
    def parities(self) -> tuple[operator.itemgetter, tuple[int, ...]]:
        """The getter of a codeword's parities, the check rows' pivots, and
        per coordinate its index in the information followed by a pass's values."""
        pivots = [c for g in self.check_groups for c in g.pivots]
        slots = sorted(range(self.n), key=[*self.info_coords, *pivots].__getitem__)
        return operator.itemgetter(*pivots), tuple(slots)

    @cached_property
    def point_sets(self) -> tuple[frozenset[int], ...]:
        """Each evaluation set's points, as a set."""
        return tuple(map(frozenset, self.sets))

    @cached_property
    def block_tables(self) -> dict[int, tuple[tuple[int, ...], tuple]]:
        """The tables of ``block_table``, per block, once built."""
        return {}

    def block_table(self, b: int) -> tuple[tuple[int, ...], tuple]:
        """Block b's tables for the structured decoder, built on first use:
        at each point x of A_b, in order, its barycentric weight on A_b and
        S, 1 / prod (x - y) over the other points y of both; and one row
        plan over the block's information of its delta-1 local rows, then
        the h global rows' coefficients on it."""
        if (table := self.block_tables.get(b)) is None:
            fld, a, groups, cnt = self.field, self.sets[b], self.check_groups, self.interp_count(b)
            rows = [*groups[b].coeffs, *(row[groups[b].info] for row in groups[-1].coeffs)]
            table = self.block_tables[b] = (
                tuple(fld.inv(fld.root_product(a[:i] + a[i + 1:] + self.s_points, x))
                      for i, x in enumerate(a)),
                fld.row_plan([(range(cnt), row) for row in rows], cnt))
        return table

    @cached_property
    def s_weights(self) -> tuple[int, ...]:
        """At each global point s, 1 / (Delta(s) prod (s - s')) over the
        other points s' of S."""
        fld, s = self.field, self.s_points
        return tuple(fld.inv(fld.mul(d, fld.root_product(s[:i] + s[i + 1:], x)))
                     for i, (x, d) in enumerate(zip(s, self.delta_at_s)))


def default_global_points(fld: FiniteField, h: int) -> tuple[int, ...]:
    """The last h field elements in canonical order."""
    if h > fld.q:
        raise FieldTooSmall("not enough elements for the global point set")
    return tuple(range(fld.q - 1, fld.q - 1 - h, -1))


def build_layout(
    params: LrcParams,
    fld: FiniteField,
    design: Design,
    s_points=None,
) -> EvaluationLayout:
    """Build an evaluation layout from a Design, whose abstract points are
    embedded into the field.  Layouts on explicit sets of field elements
    are built with ``EvaluationLayout`` directly.

    S defaults to the last h elements of F_q in canonical order, and design
    point label i maps to the (i+1)-th element of F_q minus S in canonical
    order.  The first ell+1 blocks are used, and the last of them is
    truncated to its first v+delta-1 points.
    """
    p = params
    if design.block_size != p.r + p.delta - 1:
        raise InvalidParameter(
            f"design block size {design.block_size} != r+delta-1 = {p.r + p.delta - 1}"
        )
    if s_points is None:
        s_points = default_global_points(fld, p.h)
    if design.num_points + p.h > fld.q:
        raise FieldTooSmall(
            f"need q >= {design.num_points + p.h} to embed {design.num_points} points"
        )
    avail = [x for x in fld.elements() if x not in set(s_points)]
    embed = avail[: design.num_points]
    chosen = [tuple(embed[pt] for pt in b) for b in design.blocks[: p.ell + 1]]
    if len(chosen) != p.ell + 1:
        raise InvalidParameter(f"need ell+1 = {p.ell + 1} blocks, got {len(chosen)}")
    last = chosen[p.ell]
    sets = list(chosen[: p.ell]) + [last[: p.v + p.delta - 1]]
    return EvaluationLayout(
        fld, params, sets, s_points, truncated_tail=last[p.v + p.delta - 1:]
    )


# ----------------------------------------------------------------------
# encoding


def encode(layout: EvaluationLayout, info) -> list[int]:
    """Map k information symbols to an n-symbol codeword.

    The code is systematic: information is placed block-major on the first
    |A_i|-delta+1 coordinates of each block.  One pass of the layout's
    row plan (``layout.encoder``) evaluates every check row on the
    information, and one getter interleaves the information and those
    values in coordinate order.  The result is the codeword of the two-step
    polynomial encoder, which defines those rows.  Raises InvalidParameter
    unless there are k symbols and every one is a field element, an int in
    [0, q), as the lanes of the plan need.
    """
    p = layout.params
    if len(info) != p.k:
        raise InvalidParameter(f"information vector must have length {p.k}")
    fld = layout.field
    if not fld.are_elements(info):
        raise InvalidParameter(f"information symbols must be ints in [0, {fld.q})")
    plan, _, interleave = layout.encoder
    return list(interleave([*info, *fld.run_plan(plan, info)]))


def generator_matrix(layout: EvaluationLayout) -> Matrix:
    """Rows are the encodings of the standard basis vectors, read off
    ``layout.check_groups``: row u holds 1 at ``info_coords[u]`` and, at
    the pivot of each check row, that row's coefficient of
    ``info_coords[u]``."""
    p = layout.params
    rows = [[0] * p.n for _ in range(p.k)]
    row_of = {}
    for u, c in enumerate(layout.info_coords):
        rows[u][c] = 1
        row_of[c] = rows[u]
    for g in layout.check_groups:
        for pivot, coeffs in zip(g.pivots, g.coeffs):
            for c, x in zip(g.coords, coeffs):
                row_of[c][pivot] = x
    return Matrix(layout.field, rows, p.n)


def parity_check_matrix(layout: EvaluationLayout) -> Matrix:
    """Structural parity check: delta-1 local rows per block expressing the
    non-information positions through interpolation, plus h global rows
    tying the global parities to the information positions.

    The dense form of ``layout.check_groups``.  Every row has a unique
    pivot (a local parity or global coordinate), so the matrix has full
    row rank n-k and spans the nullspace of the generator matrix.
    """
    fld = layout.field
    n = layout.n
    rows = []
    for g in layout.check_groups:
        for pivot, coeffs in zip(g.pivots, g.coeffs):
            row = [0] * n
            for j, c in zip(g.coords, coeffs):
                row[j] = fld.neg(c)
            row[pivot] = 1
            rows.append(row)
    return Matrix(fld, rows, n)


# ----------------------------------------------------------------------
# linear codes with declared repair sets and their locality


@dataclass
class LinearCode:
    """A linear code given by its parity-check matrix ``check``, with
    dimension ``k`` and declared repair sets of locality ``delta``.  The
    field and the length are read off ``check``, so a code cannot disagree
    with its own H; everything locality needs is computed from H
    (``punctured_checks``)."""

    k: int
    check: Matrix
    repair_sets: list[tuple[int, ...]] = dc_field(default_factory=list)
    delta: int = 2

    @property
    def field(self) -> FiniteField:
        return self.check.field

    @property
    def n(self) -> int:
        return self.check.ncols


def build_code(layout: EvaluationLayout) -> LinearCode:
    return LinearCode(
        k=layout.params.k,
        check=parity_check_matrix(layout),
        repair_sets=[layout.block_coords(b) for b in range(len(layout.sets))],
        delta=layout.params.delta,
    )


def punctured_checks(code: LinearCode) -> list[Matrix]:
    """Per repair set, a parity check of the code punctured to the set: the
    dual vectors supported inside the set, restricted to its positions.

    Exact for any H, and computed from its cached supports.  A row that is
    the only nonzero of some column outside the set (``private_columns``)
    takes no part in such a vector, so it is dropped.  ``Matrix.eliminate``
    takes the other rows as columns of their transpose, on the outside
    columns they touch, then the set's, with ``bound`` at the set; the rows
    left dependent vanish outside the set and span the vectors sought.  On
    the structural H the kept rows lie inside the set: no elimination runs.
    """
    h = code.check
    fld = h.field
    supports = h.row_supports()
    private = h.private_columns()
    owner = {cols[0]: i for i, cols in private.items()}  # first private column -> row
    free = [i for i, sup in enumerate(supports) if sup and i not in private]
    out = []
    for coords in code.repair_sets:
        cset = set(coords)
        rows = free + [owner[j] for j in coords
                       if j in owner and cset.issuperset(private[owner[j]])]
        if all(map(cset.issuperset, map(supports.__getitem__, rows))):
            out.append(Matrix(fld, [[h.rows[i][j] for j in coords] for i in rows], len(coords)))
            continue
        outside = sorted({j for i in rows for j in supports[i]} - cset)
        t = Matrix(fld, [[h.rows[i][j] for i in rows] for j in outside + list(coords)], len(rows))
        dependents = t.eliminate(range(len(rows)), stop=False, bound=len(outside))[1]
        out.append(Matrix(fld, [v[len(outside):] for v in dependents if any(v)], len(coords)))
    return out


def projection_dimension(code: LinearCode, coords) -> int:
    """Dimension of the code projected onto ``coords``: |U| - ((n-k) -
    rank(H restricted to the complement of U)), by ``Matrix.eliminate``."""
    cset = set(coords)
    outside = [j for j in range(code.n) if j not in cset]
    rank = len(code.check.eliminate(outside, stop=False)[0])
    return len(cset) - (code.n - code.k - rank)


@dataclass
class LocalityReport:
    ok: bool
    punctured_distances: list[int]
    info_rank: int
    k: int


def verify_locality(code: LinearCode) -> LocalityReport:
    """Check the declared repair sets: each punctured code must have minimum
    distance >= delta, and the union of repair sets must project onto a
    rank-k set of coordinates.  Each punctured distance is exact: that of
    ``erasure.min_distance``, by ``algebra.smallest_dependent`` within its
    default bound, min(n, nrows) + 1, and with its Infeasible."""
    dists = []
    ok = True
    for pc in punctured_checks(code):
        if pc.nrows == 0:
            dists.append(1)  # punctured code is the full space
            ok = False
            continue
        bound = min(pc.ncols, pc.nrows) + 1
        d = smallest_dependent(pc, bound)
        if d is None:
            raise Infeasible(f"no dependent subset of size <= {bound} found")
        dists.append(d)
        if d < code.delta:
            ok = False
    union = sorted({c for rs in code.repair_sets for c in rs})
    rank_u = projection_dimension(code, union)
    return LocalityReport(
        ok=ok and rank_u == code.k,
        punctured_distances=dists,
        info_rank=rank_u,
        k=code.k,
    )
