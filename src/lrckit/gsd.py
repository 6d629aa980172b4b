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
H by the code's repair sets (``row_split``).  A row of H is local to set
A when its support lies inside A, and global otherwise; g rows are global
(6 on example3, 4 on ag13).  Sets that overlap are not split on: every
coordinate is then free, and every nonzero row global.  An erased set E
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

The test runs on packed words, so that a pattern costs a few big-int
operations and a rank test on at most g short keys.  Each set owns a lane
of bits, one per member and a guard bit above them, and each coordinate
outside the sets a lane of its own; a pattern is the sum of its cells'
words.  A set holding at most its local repair threshold
(``erasure.local_repair_map``) is dropped: a codeword supported on E
restricts on A to a punctured codeword of weight below the punctured
distance, which is zero.  Clearing the lowest bit of every lane t times,
under per-lane masks, leaves just the lanes holding more than their
threshold t, and only those are read back.  A's image G_{E_A} K_A
depends on (A, E_A) alone, so it is cached, and held, as the free
columns are, as the field's search keys (``FiniteField.vec_key``); the
rank test is ``algebra.eliminate_keys`` on them.  A free coordinate's
image is its column on the global rows, so with no set lane the test is
the plain rank test on all of H, as ``erasure.recoverable``, the
reference, runs it.

Each array keeps what its sweeps read, built on first use
(``ArrayLayout.plan``): the column coordinates, the words of its cells and
columns, the row split and the image cache, holding at most
``MAX_IMAGES`` images.  A sweep draws each pattern as its column choice
and its extra cells, and adds their words.  A sampled sweep draws them as
``random.Random(seed).sample`` would, from the same ``getrandbits``
calls, by a selection on positions (``_sample_positions``) that leaves
out ``sample``'s per-call checks and containers.  Every sweep runs in the
calling process.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property

from .algebra import PRIME_LIMIT, Matrix, eliminate_keys, factor_prime_power
from .errors import Infeasible, InvalidParameter, NotRegular
from .lrc import EvaluationLayout, LinearCode
from .erasure import local_repair_map


# The most (repair set, erased cells) images a sweep plan keeps; past it,
# images are computed and not stored.  example3 has at most 73 * 2^9 keys.
MAX_IMAGES = 1 << 16


@dataclass(frozen=True)
class RowSplit:
    """H's rows split by the code's repair sets, as ``SweepPlan`` reads
    them.  A row is local to set A when its support lies inside A, and
    global otherwise; ``g`` global rows.  Sets that overlap own no lane.

    Each lane of a packed word is a run of bits, one per member, then a
    guard bit.  A set with local rows or a local repair threshold owns a
    lane, and every other coordinate (a free one) owns a lane of its own,
    after the sets' lanes.  ``lanes``: per lane, its coordinates by
    position; ``offsets``: its first bit.  ``nlocal`` and ``thresholds``:
    per lane, its local row count and its ``erasure.local_repair_map``
    threshold, 0 for a free lane.  ``keys``: per coordinate, the search key
    (``FiniteField.vec_key``) of its column on its lane's local rows, then
    on the global rows.  ``guards``: every lane's guard bit; ``clears[i]``:
    the lowest bit of each lane whose threshold exceeds i; ``lane_at``: per
    bit, its lane; ``spans``: per lane, the mask of the bits below it, the
    mask of its members and its local row count."""

    g: int
    lanes: list[tuple[int, ...]]
    offsets: list[int]
    nlocal: list[int]
    thresholds: list[int]
    keys: list
    guards: int
    clears: list[int]
    lane_at: list[int]
    spans: list[tuple[int, int, int]]


def row_split(code: LinearCode) -> RowSplit:
    """The ``RowSplit`` of the code's H.  When its repair sets overlap, no
    set owns a lane and every coordinate is free."""
    h, sets = code.check, code.repair_sets
    owner = {c: s for s, cs in enumerate(sets) for c in cs}
    if len(owner) < sum(map(len, sets)):
        sets, owner = [], {}
    local: list[list[int]] = [[] for _ in sets]
    glob = []
    within = [set(cs).issuperset for cs in sets]
    for i, sup in enumerate(h.row_supports()):
        s = owner.get(sup[0]) if sup else None
        if s is not None and within[s](sup):
            local[s].append(i)
        elif sup:
            glob.append(i)
    set_thresholds = [0] * len(sets)
    for s, t in local_repair_map(code).values():
        set_thresholds[s] = t
    cols = list(zip(*(h.rows[i] for i in glob))) if glob else [()] * h.ncols
    vec_key = h.field.vec_key
    keys: list = [None] * h.ncols
    lanes, nlocal, thresholds = [], [], []
    for s, cs in enumerate(sets):
        if local[s] or set_thresholds[s]:
            lanes.append(tuple(cs))
            nlocal.append(len(local[s]))
            thresholds.append(set_thresholds[s])
            lead = [[h.rows[i][c] for c in cs] for i in local[s]]
            for c, col in zip(cs, zip(*lead) if lead else [()] * len(cs)):
                keys[c] = vec_key(col + cols[c])
    for c, key in enumerate(keys):
        if key is None:
            lanes.append((c,))
            nlocal.append(0)
            thresholds.append(0)
            keys[c] = vec_key(cols[c])
    offsets = list(itertools.accumulate((len(cs) + 1 for cs in lanes), initial=0))
    guards = sum(1 << (off + len(cs)) for cs, off in zip(lanes, offsets))
    clears = [sum(1 << off for off, t in zip(offsets, thresholds) if t > i)
              for i in range(max(thresholds))]
    lane_at = [s for s, cs in enumerate(lanes) for _ in range(len(cs) + 1)]
    spans = [((1 << off) - 1, ((1 << len(cs)) - 1) << off, r)
             for cs, off, r in zip(lanes, offsets, nlocal)]
    return RowSplit(len(glob), lanes, offsets[:-1], nlocal, thresholds, keys, guards, clears,
                    lane_at, spans)


@dataclass(frozen=True)
class SweepPlan:
    """What every sweep of one array reads, built once per array
    (``SweepPlan.of``): the coordinates of each column's real cells, those
    of all columns in one list (``flat``) with the position of each
    column's first cell there (``starts``), H, its ``row_split``, the
    packed word of each coordinate (``words``, its lane bit) and of each
    column
    (``col_words``, the sum of its cells' words), and the cache of images
    that ``verdict`` fills, keyed by a lane's bits of the word."""

    col_coords: list[tuple[int, ...]]
    flat: list[int]
    starts: list[int]
    h: Matrix
    split: RowSplit
    words: list[int]
    col_words: list[int]
    images: dict[int, list] = field(default_factory=dict)

    @classmethod
    def of(cls, code: LinearCode, col_coords=()) -> "SweepPlan":
        """The plan of ``code`` on an array with these column coordinates;
        with none, the plan of its rank test alone."""
        split = row_split(code)
        words = [0] * code.n
        for cs, off in zip(split.lanes, split.offsets):
            for k, c in enumerate(cs):
                words[c] = 1 << (off + k)
        col_coords = list(col_coords)
        return cls(
            col_coords=col_coords,
            flat=list(itertools.chain.from_iterable(col_coords)),
            starts=list(itertools.accumulate(map(len, col_coords), initial=0)),
            h=code.check,
            split=split,
            words=words,
            col_words=[sum(map(words.__getitem__, cs)) for cs in col_coords],
        )

    def recoverable(self, cells) -> bool:
        """``erasure.recoverable(H, cells)``: the ``verdict`` on the sum of
        the distinct cells' words.  Raises InvalidParameter unless every
        cell lies in [0, n)."""
        cells, n = set(cells), self.h.ncols
        if cells and not (0 <= min(cells) and max(cells) < n):
            raise InvalidParameter(f"erased coordinates must lie in [0, {n})")
        return self.verdict(sum(map(self.words.__getitem__, cells)))

    def verdict(self, word: int) -> bool:
        """Whether the cells whose words sum to ``word`` are recoverable, by
        the local-then-global test of the module docstring.  Clearing the
        lowest bit of each lane ``thresholds`` times leaves the heavy lanes,
        read back from the top bit down: a set holding more than its
        threshold, or a free cell.  A heavy set A adds |E_A| - (its local
        rows) or more image vectors, so more than g of those are refused
        before any image is looked up.  Otherwise each heavy lane adds its
        image, G K_A on its erased cells (cached per lane bits; a free
        cell's is its global column), and ``eliminate_keys`` on those keys
        decides."""
        split = self.split
        x, guards = word, split.guards
        for low in split.clears:
            x &= (x | guards) - low
        lane_at, spans = split.lane_at, split.spans
        parts, least = [], 0
        while x:
            below, mask, r = spans[lane_at[x.bit_length() - 1]]
            x &= below
            part = word & mask
            parts.append(part)
            if (extra := part.bit_count() - r) > 0:
                least += extra
        if least > split.g:
            return False
        images = self.images
        vecs = []
        for part in parts:
            image = images.get(part)
            if image is None:
                image = self._image(part)
                if len(images) < MAX_IMAGES:
                    images[part] = image
            vecs += image
        return not vecs or not eliminate_keys(self.h.field.sub_key, vecs, split.g)[1]

    def _image(self, part: int) -> list:
        """The image of the lane holding the bits of ``part``: its erased
        cells' keys eliminated with pivots on its local rows only, so the
        dependents' global parts, themselves keys, are G times a basis of
        the local rows' kernel."""
        split = self.split
        s = split.lane_at[part.bit_length() - 1]
        keys, r = split.keys, split.nlocal[s]
        part >>= split.offsets[s]
        cols = [keys[c] for k, c in enumerate(split.lanes[s]) if part >> k & 1]
        return [v[r:] for v in eliminate_keys(self.h.field.sub_key, cols, r, stop=False)[1]]

    def cells(self, choice, extras) -> list[int]:
        """The sorted coordinates of the chosen columns and the extra cells."""
        col_coords = self.col_coords
        return sorted([c for j in choice for c in col_coords[j]] + list(extras))


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
        return SweepPlan.of(self.code, [self.column_coords(j) for j in range(self.cols)])


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
    """Every pattern as (column choice, extra cells): column choices in
    lexicographic order, then the gamma other cells in ``real_cells()``
    order.  All the patterns of one choice share its tuple."""
    for choice in itertools.combinations(eligible, y):
        rest = [c for j, cs in enumerate(col_coords) if j not in choice for c in cs]
        for extras in itertools.combinations(rest, gamma):
            yield choice, extras


def _set_size(k: int) -> int:
    """The population size up to which ``random.Random.sample`` draws k
    items from a pool list, and past which it rejects repeats against a
    set, by its own expression."""
    return 21 + 4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 21


def _sample_positions(getrandbits, n: int, k: int, setsize: int):
    """``random.Random.sample(range(n), k)``, ``setsize`` being
    ``_set_size(k)``, in selection order: the same branch and the same
    ``getrandbits(m.bit_length())`` rejection draws of its ``_randbelow``,
    so the same positions and the same generator state after.  The set
    branch returns the positions as the keys of a dict, which also tests
    the repeats."""
    if n <= setsize:
        pool = list(range(n))
        picked = []
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            picked.append(pool[j])
            pool[j] = pool[m - 1]
        return picked
    picked = {}
    bits = n.bit_length()
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in picked:
            j = getrandbits(bits)
        picked[j] = None
    return picked


def _sampled_patterns(plan: SweepPlan, eligible, y, gamma, count, seed):
    """``count`` patterns drawn from ``seed`` as (column choice, extra
    cells).

    The draws are ``random.Random(seed)``'s: a sorted ``rng.sample`` of
    ``eligible``, then an ``rng.sample`` of the cells outside the chosen
    columns (in ``real_cells()`` order), each made by ``_sample_positions``
    from the same ``getrandbits`` calls, so a seed gives the same patterns.
    ``sample`` reads only the length of its population and the items at the
    positions it draws, so each position is mapped to its column, or to its
    cell by stepping over the chosen columns, without building the list of
    the cells left.  A sample of none draws nothing."""
    getrandbits = random.Random(seed).getrandbits
    flat, starts = plan.flat, plan.starts
    sizes = list(map(len, plan.col_coords))
    ncols, col_setsize, cell_setsize = len(eligible), _set_size(y), _set_size(gamma)
    choice: list[int] | tuple = ()
    for _ in range(count):
        if y:
            choice = sorted(map(eligible.__getitem__,
                                _sample_positions(getrandbits, ncols, y, col_setsize)))
        extras = []
        if gamma:
            left = len(flat) - sum(map(sizes.__getitem__, choice))
            for pos in _sample_positions(getrandbits, left, gamma, cell_setsize):
                # step over the chosen columns at or before the cell
                for j in choice:
                    if starts[j] > pos:
                        break
                    pos += sizes[j]
                extras.append(flat[pos])
        yield choice, extras


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
    seed, with ``random.Random(seed).sample``'s selection and its
    ``getrandbits`` calls, so a seed gives the same report.  Raises
    InvalidParameter unless y, gamma, count, seed, ``exhaustive_limit``
    and a given ``d`` are ints (not bools),
    0 <= y <= the eligible columns and 0 <= gamma <= the real cells left
    outside any y of them.  The report carries the sector-disk
    qualification bit y*rows + gamma > d - 1 when the minimum distance
    ``d`` is supplied, which must then lie in [1, n] (InvalidParameter
    otherwise).

    ``failures`` holds the first ``MAX_WITNESS`` unrecoverable patterns in
    pattern order, sorted.

    Every pattern is drawn from the array's ``plan`` as its column choice
    and its extra cells, and its word, the sum of the choice's column
    words (once per choice in exhaustive mode) and the extra cells' words,
    goes to ``SweepPlan.verdict``, the local-then-global rank test of the
    module docstring that ``SweepPlan.recoverable`` also runs: a few big-int
    operations find the repair sets holding more than their threshold, those
    add their cached images on the g global rows, the cells outside the sets
    add their global columns, and an elimination of at most g search keys
    decides.  The test is exact, so the counts and the failures are those
    of ``erasure.recoverable`` on each pattern; a failure's sorted cells are
    built only when it is kept.  ``workers`` is accepted, for callers that
    still pass it, and ignored: every sweep runs in this process.
    """
    ints = [("y", y), ("gamma", gamma), ("count", count), ("seed", seed),
            ("exhaustive_limit", exhaustive_limit)] + ([("d", d)] if d is not None else [])
    for name, value in ints:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidParameter(f"{name} must be an int, got {value!r}")
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
    if d is not None and not 1 <= d <= arr.code.n:
        raise InvalidParameter(f"d must lie in [1, {arr.code.n}], got {d}")

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
    # extra cells lie outside the chosen ones, so their words add up to the
    # pattern's word; an exhaustive sweep passes one choice to many patterns
    verdict, words, col_words = plan.verdict, plan.words, plan.col_words
    checked = passed = 0
    failures = []
    last = base = None
    for checked, (choice, extras) in enumerate(patterns, 1):
        if choice is not last:
            last, base = choice, sum(map(col_words.__getitem__, choice))
        if verdict(sum(map(words.__getitem__, extras), base)):
            passed += 1
        elif len(failures) < MAX_WITNESS:
            failures.append(plan.cells(choice, extras))

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
