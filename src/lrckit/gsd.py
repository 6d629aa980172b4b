"""Arrange codes from the polynomial construction into sector-disk style
arrays and sweep disk+sector erasure patterns against the recoverability
oracle.

Three arrangements are provided: the basic one (data column per evaluation
point, global parities in trailing columns), the rearranged one (global
parities spread across all columns), and the truncated one for h = r - v
(parities occupy the columns of the evaluation points dropped from the last
block).  Cells erased as part of a column erasure are the column's real
cells; zero-filled cells carry no information and are excluded from erasure
accounting.

A sweep tests each pattern locally first, then globally, on the split of
H by the code's repair sets (``row_split``), which must be disjoint.  A
row of H is local to set A when its support lies inside A, and global
otherwise; g rows are global (6 on example3, 4 on ag13).  An erased set E
meets A in E_A and leaves E_F outside every set.  As A's local rows L_A
vanish outside A, H_E x = 0 iff every x_A lies in the kernel of L_A on
E_A, x_A = K_A z_A with K_A a kernel basis, and the global rows G give
sum_A G_{E_A} K_A z_A + G_{E_F} x_F = 0.  x -> z is one to one, so E is
recoverable iff the g-row matrix [G_{E_A} K_A ... | G_{E_F}] has full
column rank, which it cannot have with more than g columns.  That is
exact for any H with disjoint sets.  It is the recoverability argument of
partial-MDS codes (Blaum, Hafner and Hetzler, IEEE T-IT 2013) and of SD
codes (Plank, Blaum and Hafner, FAST 2013): each set absorbs erasures up
to its local parities, and the rest must meet the global parities.

Two things make it cheap.  A set holding at most its local repair
threshold (``erasure.local_repair_map``) is dropped at once: a codeword
supported on E restricts on A to a punctured codeword of weight below the
punctured distance, which is zero.  And A's image G_{E_A} K_A depends on
(A, E_A) alone, so it is cached; a sweep then reduces a few g-vectors per
pattern.  When the sets overlap or none holds a local row, the test is
``erasure.recoverable`` on all of H, which stays the reference.

Each array keeps what its sweeps read, built on first use
(``ArrayLayout.plan``): the column coordinates, the row split and the
image cache, holding at most ``MAX_IMAGES`` images.  Every sweep runs in
the calling process.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property

from .algebra import PRIME_LIMIT, Matrix, eliminate_vectors, factor_prime_power
from .errors import Infeasible, InvalidParameter, NotRegular
from .lrc import EvaluationLayout, LinearCode
from .erasure import local_repair_map, recoverable


# The most (repair set, erased cells) images a sweep plan keeps; past it,
# images are computed and not stored.  example3 has at most 73 * 2^9 keys.
MAX_IMAGES = 1 << 16


@dataclass(frozen=True)
class RowSplit:
    """H's rows split by disjoint repair sets, as ``SweepPlan.recoverable``
    reads them.  A row is local to set A when its support lies inside A,
    and global otherwise; ``g`` global rows.

    ``slots``: per coordinate, (set, 1 << its position in the set) when
    the set has local rows or a local repair threshold, else None (a free
    coordinate).  ``members``: per set, its coordinates by position.
    ``nlocal`` and ``thresholds``: per set, its local row count and its
    ``erasure.local_repair_map`` threshold.  ``items``: per coordinate,
    (column, its nonzero positions), the column being the global rows for
    a free coordinate, and the set's local rows then the global rows for
    a slotted one."""

    g: int
    slots: list[tuple[int, int] | None]
    members: list[tuple[int, ...]]
    nlocal: list[int]
    thresholds: list[int]
    items: list[tuple[tuple[int, ...], tuple[int, ...]]]


def row_split(code: LinearCode) -> RowSplit | None:
    """The ``RowSplit`` of the code's H, or None when its repair sets
    overlap or none of them holds a local row."""
    h, sets = code.check, code.repair_sets
    owner = {c: s for s, cs in enumerate(sets) for c in cs}
    if len(owner) < sum(map(len, sets)):
        return None
    local: list[list[int]] = [[] for _ in sets]
    glob = []
    within = [set(cs).issuperset for cs in sets]
    for i, sup in enumerate(h.row_supports()):
        s = owner.get(sup[0]) if sup else None
        if s is not None and within[s](sup):
            local[s].append(i)
        elif sup:
            glob.append(i)
    if not any(local):
        return None
    thresholds = [0] * len(sets)
    for s, t in local_repair_map(code).values():
        thresholds[s] = t
    slots: list[tuple[int, int] | None] = [None] * h.ncols
    cols = list(zip(*(h.rows[i] for i in glob))) if glob else [()] * h.ncols
    for s, cs in enumerate(sets):
        if local[s] or thresholds[s]:
            lead = [[h.rows[i][c] for c in cs] for i in local[s]]
            for k, (c, col) in enumerate(zip(cs, zip(*lead) if lead else [()] * len(cs))):
                slots[c] = (s, 1 << k)
                cols[c] = col + cols[c]
    items = [(col, tuple(itertools.compress(itertools.count(), col))) for col in cols]
    return RowSplit(len(glob), slots, [tuple(cs) for cs in sets], list(map(len, local)),
                    thresholds, items)


@dataclass(frozen=True)
class SweepPlan:
    """What every sweep of one array reads, built once per array: the
    coordinates of each column's real cells, those of all columns in one
    list (``flat``) with the position of each column's first cell there
    (``starts``), H, its ``row_split`` and the cache of repair set images
    that ``recoverable`` fills."""

    col_coords: list[tuple[int, ...]]
    flat: list[int]
    starts: list[int]
    h: Matrix
    split: RowSplit | None
    images: dict[tuple[int, int], list] = field(default_factory=dict)

    def recoverable(self, cells) -> bool:
        """``erasure.recoverable(H, cells)`` for distinct coordinates, by the
        local-then-global test of the module docstring.  One pass groups
        the cells by repair set.  A set holding at most its threshold is
        dropped; every other set A adds its image, G K_A on its erased
        cells (cached per set and erased cells); a free cell adds its
        global column.  Those g-vectors decide the verdict: more than g
        of them are dependent, which A's |E_A| - (its local rows) image
        vectors at least already tell before any image is looked up, and
        otherwise an elimination does.  With no split, the test is
        ``erasure.recoverable``."""
        split = self.split
        if split is None:
            return recoverable(self.h, cells)
        slots, items = split.slots, split.items
        vecs = []
        hits: dict[int, int] = {}
        for c in cells:
            slot = slots[c]
            if slot is None:
                vecs.append(items[c])
            else:
                s, bit = slot
                hits[s] = hits.get(s, 0) | bit
        thresholds, nlocal = split.thresholds, split.nlocal
        heavy = []
        least = len(vecs)
        for key in hits.items():
            s, erased = key[0], key[1].bit_count()
            if erased > thresholds[s]:
                heavy.append(key)
                if erased > nlocal[s]:
                    least += erased - nlocal[s]
        if least > split.g:
            return False
        images = self.images
        for key in heavy:
            image = images.get(key)
            if image is None:
                image = self._image(*key)
                if len(images) < MAX_IMAGES:
                    images[key] = image
            vecs += image
        return not vecs or not eliminate_vectors(
            self.h.field, [(list(v), set(nz)) for v, nz in vecs], split.g)[1]

    def _image(self, s, mask):
        """Set s's image for the erased cells at the bits of ``mask``: its
        stacked columns eliminated with pivots on its local rows only, so
        the dependents are G times a basis of the local rows' kernel."""
        split = self.split
        r, members = split.nlocal[s], split.members[s]
        cols = [split.items[members[k]] for k in range(mask.bit_length()) if mask >> k & 1]
        dependents = eliminate_vectors(self.h.field, [(list(v), set(nz)) for v, nz in cols], r,
                                       stop=False)[1]
        return [(v, tuple(itertools.compress(itertools.count(), v)))
                for v in map(tuple, (v[r:] for v in dependents))]


@dataclass
class ArrayLayout:
    """rows x cols array of code coordinates; None marks a zero-filled cell.

    ``data_cols`` leading columns hold code symbols keyed by evaluation
    point (``column_points``); any remaining columns hold only global
    parities.  The cells and the code are fixed once the array is built:
    ``plan`` is computed from them on first use and kept."""

    rows: int
    cols: int
    cells: list[list[int | None]]
    data_cols: int
    column_points: list[int | None]
    construction: str
    layout: EvaluationLayout
    code: LinearCode

    def column_coords(self, j: int) -> tuple[int, ...]:
        return tuple(self.cells[i][j] for i in range(self.rows) if self.cells[i][j] is not None)

    def real_cells(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for j in range(self.cols)
            for i in range(self.rows)
            if self.cells[i][j] is not None
        ]

    def coord_of(self, cell: tuple[int, int]) -> int:
        c = self.cells[cell[0]][cell[1]]
        if c is None:
            raise InvalidParameter("zero-filled cell has no coordinate")
        return c

    @cached_property
    def plan(self) -> SweepPlan:
        col_coords = [self.column_coords(j) for j in range(self.cols)]
        return SweepPlan(
            col_coords=col_coords,
            flat=list(itertools.chain.from_iterable(col_coords)),
            starts=list(itertools.accumulate(map(len, col_coords), initial=0)),
            h=self.code.check,
            split=row_split(self.code),
        )


def _regular_columns(layout: EvaluationLayout, dropped=()):
    """The prologue of the array builders: evaluation point -> flat
    coordinates carrying it, in block order; the points not in
    ``dropped``, sorted; and the number of coordinates each of those
    carries, which must be the same for all of them (NotRegular
    otherwise)."""
    occ: dict[int, list[int]] = {}
    for b, a in enumerate(layout.sets):
        for t, x in enumerate(a):
            occ.setdefault(x, []).append(layout.coord(b, t))
    points = sorted(set(occ).difference(dropped))
    counts = {len(occ[x]) for x in points}
    if len(counts) != 1:
        raise NotRegular(f"column weights {sorted(counts)} are not uniform")
    return occ, points, counts.pop()


def basic_array(layout: EvaluationLayout, code: LinearCode) -> ArrayLayout:
    """One data column per evaluation point (symbols in block-index order);
    the h global parities fill ceil(h/t) trailing columns, zero-padded."""
    occ, points, t = _regular_columns(layout)
    h = layout.params.h
    extra = (h + t - 1) // t if h else 0
    cols = len(points) + extra
    cells: list[list[int | None]] = [[None] * cols for _ in range(t)]
    for j, x in enumerate(points):
        for i, c in enumerate(occ[x]):
            cells[i][j] = c
    for g in range(h):
        cells[g % t][len(points) + g // t] = layout.global_coord(g)
    return ArrayLayout(
        rows=t,
        cols=cols,
        cells=cells,
        data_cols=len(points),
        column_points=points + [None] * extra,
        construction="basic",
        layout=layout,
        code=code,
    )


def rearranged_array(layout: EvaluationLayout, code: LinearCode) -> ArrayLayout:
    """Global parities spread evenly below the data cells: requires the
    point count to divide h; yields a (t + h/rho) x rho array."""
    occ, points, t = _regular_columns(layout)
    rho = len(points)
    h = layout.params.h
    if h % rho != 0:
        raise InvalidParameter(f"point count {rho} must divide h = {h}")
    per = h // rho
    rows = t + per
    cells: list[list[int | None]] = [[None] * rho for _ in range(rows)]
    for j, x in enumerate(points):
        for i, c in enumerate(occ[x]):
            cells[i][j] = c
        for u in range(per):
            cells[t + u][j] = layout.global_coord(j * per + u)
    return ArrayLayout(
        rows=rows,
        cols=rho,
        cells=cells,
        data_cols=rho,
        column_points=list(points),
        construction="rearranged",
        layout=layout,
        code=code,
    )


def truncated_array(layout: EvaluationLayout, code: LinearCode) -> ArrayLayout:
    """Arrangement for h = r - v: the evaluation points dropped from the
    truncated last block come first and their columns carry one global
    parity each on the freed row."""
    p = layout.params
    if p.h != p.r - p.v or p.h < 1:
        raise InvalidParameter("this arrangement requires h = r - v >= 1")
    dropped = list(layout.truncated_tail)
    if len(dropped) != p.h:
        raise InvalidParameter(
            f"layout records {len(dropped)} dropped points, expected {p.h}"
        )
    occ, rest, t = _regular_columns(layout, dropped)
    if any(len(occ[x]) != t - 1 for x in dropped):
        raise NotRegular("dropped points must appear in exactly t-1 blocks")
    points = dropped + rest
    rho = len(points)
    cells: list[list[int | None]] = [[None] * rho for _ in range(t)]
    for j, x in enumerate(points):
        for i, c in enumerate(occ[x]):
            cells[i][j] = c
        if j < p.h:
            cells[t - 1][j] = layout.global_coord(j)
    return ArrayLayout(
        rows=t,
        cols=rho,
        cells=cells,
        data_cols=rho,
        column_points=list(points),
        construction="truncated",
        layout=layout,
        code=code,
    )


# ----------------------------------------------------------------------
# disk + sector sweeps


MAX_WITNESS = 10  # unrecoverable patterns kept as witnesses per sweep


def _exhaustive_patterns(col_coords, eligible, y, gamma):
    """Every pattern as a list of cells: column choices in lexicographic
    order, then the gamma other cells in ``real_cells()`` order."""
    for choice in itertools.combinations(eligible, y):
        cells = [c for j in choice for c in col_coords[j]]
        rest = [c for j, cs in enumerate(col_coords) if j not in choice for c in cs]
        for extra in itertools.combinations(rest, gamma):
            yield cells + list(extra)


def _sampled_patterns(plan: SweepPlan, eligible, y, gamma, count, seed):
    """``count`` patterns drawn from ``seed`` as lists of cells.

    rng.sample reads only the length of its population and the items at
    the positions it draws, so drawing positions in the list of the cells
    outside the chosen columns (in ``real_cells()`` order) and mapping each
    to its cell draws the same cells without building that list."""
    rng = random.Random(seed)
    col_coords, flat, starts = plan.col_coords, plan.flat, plan.starts
    for _ in range(count):
        choice = sorted(rng.sample(eligible, y))
        cells = [c for j in choice for c in col_coords[j]]
        if gamma:
            for pos in rng.sample(range(len(flat) - len(cells)), gamma):
                # step over the chosen columns at or before the cell
                for j in choice:
                    if starts[j] > pos:
                        break
                    pos += len(col_coords[j])
                cells.append(flat[pos])
        yield cells


def check_array(
    arr: ArrayLayout,
    y: int,
    gamma: int,
    mode: str = "exhaustive",
    columns: str = "all",
    count: int = 10**4,
    seed: int = 0,
    workers: int = 1,
    exhaustive_limit: int = 10**6,
    d: int | None = None,
) -> dict:
    """Sweep erasure patterns of y whole columns plus gamma extra cells and
    test each against the recoverability oracle.

    ``columns`` selects which columns may be erased whole: "data" restricts
    to the leading data columns, "all" includes parity columns.  Exhaustive
    mode enumerates every pattern (guarded by ``exhaustive_limit``, at least
    1); sampled mode draws ``count`` (at least 1) patterns from the given
    seed.  Raises InvalidParameter unless 0 <= y <= the eligible columns
    and 0 <= gamma <= the real cells left outside any y of them.  The
    report carries the sector-disk qualification bit y*rows + gamma > d - 1
    when the minimum distance ``d`` is supplied.

    ``failures`` holds the first ``MAX_WITNESS`` unrecoverable patterns in
    pattern order, sorted.

    Every pattern is drawn from the array's ``plan`` and tested by
    ``SweepPlan.recoverable``, the local-then-global rank test of the module
    docstring: light repair sets are dropped, the heavy ones add their
    cached images on the g global rows, the cells outside the sets add
    their global columns, and an elimination of at most g short vectors
    decides.  The test is exact, so the counts and the failures are those
    of ``erasure.recoverable`` on each pattern.  ``workers`` is accepted,
    for callers that still pass it, and ignored: every sweep runs in this
    process.
    """
    if columns not in ("all", "data"):
        raise InvalidParameter("columns must be 'all' or 'data'")
    eligible = list(range(arr.data_cols if columns == "data" else arr.cols))
    if not 0 <= y <= len(eligible):
        raise InvalidParameter(f"y must lie in [0, {len(eligible)}], got {y}")
    plan = arr.plan
    col_coords = plan.col_coords
    # room: the fewest real cells that any y eligible columns leave outside
    tallest = sorted((len(col_coords[j]) for j in eligible), reverse=True)[:y]
    room = len(plan.flat) - sum(tallest)
    if not 0 <= gamma <= room:
        raise InvalidParameter(f"gamma must lie in [0, {room}], got {gamma}")
    if mode == "sampled" and count < 1:
        raise InvalidParameter(f"count must be at least 1, got {count}")
    if mode == "exhaustive" and exhaustive_limit < 1:
        raise InvalidParameter(f"exhaustive limit must be at least 1, got {exhaustive_limit}")

    used_seed = None
    if mode == "exhaustive":
        est = math.comb(len(eligible), y) * math.comb(room, gamma)
        if est > exhaustive_limit:
            raise Infeasible(
                f"~{est} patterns exceed the exhaustive limit; use sampled mode"
            )
        patterns = _exhaustive_patterns(col_coords, eligible, y, gamma)
    elif mode == "sampled":
        used_seed = seed
        patterns = _sampled_patterns(plan, eligible, y, gamma, count, seed)
    else:
        raise InvalidParameter("mode must be 'exhaustive' or 'sampled'")

    # a pattern's cells are distinct, as the columns are disjoint and the
    # extra cells lie outside the chosen ones, so they need no set or sort
    test = plan.recoverable
    checked = passed = 0
    failures = []
    for checked, cells in enumerate(patterns, 1):
        if test(cells):
            passed += 1
        elif len(failures) < MAX_WITNESS:
            failures.append(sorted(cells))

    report = {
        "construction": arr.construction,
        "array": {"rows": arr.rows, "cols": arr.cols},
        "columns": columns,
        "y": y,
        "gamma": gamma,
        "mode": mode,
        "checked": checked,
        "recoverable": passed,
        "all_recoverable": passed == checked,
        "failures": sorted(failures),
    }
    if used_seed is not None:
        report["seed"] = used_seed
    if d is not None:
        report["gsd_condition"] = {
            "d": d,
            "s_b_plus_gamma": y * arr.rows + gamma,
            "holds": y * arr.rows + gamma > d - 1,
        }
    return report


# ----------------------------------------------------------------------
# closed-form family parameters


MAX_CLAIMS = 10**4  # most item III claims a report may list


def _claims(rows: int, delta: int, h: int) -> list[dict]:
    """(y, gamma) pairs claimed by the three corollary items for arrays from
    the truncated arrangement, with each item's side conditions evaluated.
    The second condition of every item is the sector-disk qualification
    y*rows + gamma > h + delta - 1.

    Items II and III list y only while gamma >= 0: gamma falls as y grows,
    so every later claim is void.  That leaves min(top - 1, h + delta - 1)
    // 2 claims of item III, top = delta(delta+1)/2, and InvalidParameter
    is raised before any is built when they exceed ``MAX_CLAIMS``."""
    top = delta * (delta + 1) // 2
    last = min(top - 1, h + delta - 1) // 2
    if last > MAX_CLAIMS:
        raise InvalidParameter(
            f"item III would list {last} claims (> {MAX_CLAIMS}); delta = {delta} is too large")
    out = []
    for y in (1, 2):
        gamma = h - 2 * y - 1
        out.append(
            {
                "item": "I",
                "y": y,
                "gamma": gamma,
                "valid": gamma >= 0 and y * (rows - 2) > delta,
            }
        )
    y = 1
    while math.comb(y, 2) <= delta:
        gamma = h - 2 - math.comb(y, 2) - y
        if gamma < 0:
            break
        out.append(
            {
                "item": "II",
                "y": y,
                "gamma": gamma,
                "valid": y * rows - 1 - math.comb(y, 2) - y > delta,
            }
        )
        y += 1
    for y in range(1, last + 1):
        gamma = min(top - 2 * y - 1, h + delta - 1 - 2 * y)
        out.append(
            {
                "item": "III",
                "y": y,
                "gamma": gamma,
                "valid": gamma > 0 and y * rows + gamma > h + delta - 1,
            }
        )
    return out


def _next_prime_power(n: int) -> int:
    """The smallest prime power >= n; raises InvalidParameter when there is
    none below ``PRIME_LIMIT``, beyond which primality is not decided."""
    for q in range(max(n, 2), PRIME_LIMIT):
        try:
            factor_prime_power(q)
            return q
        except InvalidParameter:
            pass
    raise InvalidParameter(f"q_min is beyond {PRIME_LIMIT:.3g}, below which primality is exact")


def family_params(family: str, **kw) -> dict:
    """Closed-form array-code parameters for the four design families, with
    every corollary item's claims and side conditions evaluated.  The design
    parameters are checked as the design constructors check them: q1 and
    every entry of ``prime_powers`` must be prime powers, beta >= 2 and
    e > 1; delta must be at least 2 and leave r >= 1, as ``LrcParams``
    requires.  q1^beta must lie below ``algebra.PRIME_LIMIT``; that is
    checked before the power is taken, so a huge beta is refused at once.
    ``q_min_prime_power``, the smallest prime power >= q_min, is found by
    exact primality tests, so q_min must lie below ``algebra.PRIME_LIMIT``
    (about 3.3e24); beyond it InvalidParameter is raised.

    ``d_per_corollary`` is the distance exactly as printed in the source
    statements (h + delta - 1); ``d_singleton`` is the value the distance
    bound actually pins for these optimal codes (h + delta).  The two
    disagree by one; reports carry both.
    """
    family = family.upper()
    delta = kw["delta"]
    if delta < 2:
        raise InvalidParameter("delta must be >= 2")
    v = kw["v"]
    notes = []
    if family in ("AG", "PG", "SG"):
        q1, beta = kw["q1"], kw["beta"]
        factor_prime_power(q1)
        if beta < 2:
            raise InvalidParameter("beta must be >= 2")
        # checked before q1^beta for a huge beta, as q1 >= 2
        if beta >= PRIME_LIMIT.bit_length() or q1**beta >= PRIME_LIMIT:
            raise InvalidParameter(
                f"q1^beta must lie below {PRIME_LIMIT:.3g}, below which primality is exact")
        if family == "AG":
            r = q1 - delta + 1
            rows = (q1**beta - 1) // (q1 - 1)
            cols = q1**beta
            blocks = q1 ** (beta - 1) * (q1**beta - 1) // (q1 - 1)
            q_min = q1**beta + (r - v)
        elif family == "PG":
            r = q1 + 1 - delta + 1
            rows = (q1**beta - 1) // (q1 - 1)
            cols = (q1 ** (beta + 1) - 1) // (q1 - 1)
            blocks = cols
            q_min = cols + (r - v)
        else:
            r = q1 + 1 - delta + 1
            rows = math.comb(q1**beta, 2) // math.comb(q1, 2)
            cols = q1**beta + 1
            blocks = cols * math.comb(q1**beta, 2) // ((q1 + 1) * math.comb(q1, 2))
            q_min = q1**beta + 1 + (r - v)
    elif family == "REGULARPACKING":
        pps, e = kw["prime_powers"], kw["e"]
        if e <= 1:
            raise InvalidParameter("e must be > 1")
        for q in pps:
            factor_prime_power(q)
        u = len(pps)
        r = e - delta + 1
        n2 = math.prod(pps)
        p_prod = math.prod(x - 1 for x in pps)
        if p_prod % e**u != 0:
            raise InvalidParameter("e^u must divide prod(q_i - 1)")
        rows = p_prod // e**u
        cols = e * n2
        blocks = n2 * p_prod // e**u
        q_min = e * n2 + (r - v)
    else:
        raise InvalidParameter(f"unknown family {family!r}")

    if r < 1:
        raise InvalidParameter(f"delta = {delta} leaves r = {r}; the blocks need r >= 1")
    h = r - v
    k = (blocks - 1) * r + v
    n = rows * cols
    preconds = {
        "v_in_range": 1 <= v <= r - 1,
        "h_le_delta_sq": h <= delta * delta,
    }
    if not preconds["h_le_delta_sq"]:
        notes.append(f"h = {h} > delta^2 = {delta * delta}: corollary inapplicable")
    if not preconds["v_in_range"]:
        notes.append(f"v = {v} outside [1, r-1] with r = {r}")
    d_singleton = h + delta
    notes.append(
        "source statements print d = h+delta-1; the distance matching the "
        "optimality claim and the Singleton-type bound is h+delta"
    )
    return {
        "family": family,
        "r": r,
        "delta": delta,
        "v": v,
        "h": h,
        "n": n,
        "k": k,
        "rows": rows,
        "cols": cols,
        "blocks": blocks,
        "d_per_corollary": h + delta - 1,
        "d_singleton": d_singleton,
        "q_min": q_min,
        "q_min_prime_power": _next_prime_power(q_min),
        "preconditions": preconds,
        "claims": _claims(rows, delta, h),
        "notes": notes,
    }
