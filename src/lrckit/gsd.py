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

A sweep repairs locally before it tests rank.  A repair set that holds
fewer erasures than its punctured code's distance, and than delta, is
repaired from the set alone: a codeword supported on the erased cells is
zero on that set.  So a pattern is recoverable iff what is left once those
light sets are dropped is (``erasure.local_repair_map`` and
``erasure.peel``), and only the heavy sets and the global parities reach
the rank test, ``erasure.recoverable``.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

from .algebra import PRIME_LIMIT, factor_prime_power
from .errors import Infeasible, InvalidParameter, NotRegular
from .lrc import EvaluationLayout, LinearCode
from .erasure import local_repair_map, peel, recoverable


@dataclass
class ArrayLayout:
    """rows x cols array of code coordinates; None marks a zero-filled cell.

    ``data_cols`` leading columns hold code symbols keyed by evaluation
    point (``column_points``); any remaining columns hold only global
    parities."""

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


def pool_size(workers: int, tasks: int) -> int:
    """Worker processes worth starting: the request clamped to the CPU
    count and to the number of tasks, and at least one."""
    if workers <= 1:
        return 1
    return max(1, min(workers, os.cpu_count() or 1, tasks))


@contextmanager
def chunk_map(workers: int):
    """Yield a ``map`` for running chunks of work: the builtin one for a
    single worker, else the map of one process pool that lives for the
    whole block.  Functions and arguments must pickle when workers > 1."""
    if workers <= 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=workers) as ex:
        yield ex.map


def _sweep_task(h, repair, chunk):
    """Test each (index, coords) pattern of a chunk; returns the counts and
    the chunk's first ``MAX_WITNESS`` failures as (index, coords) pairs.

    Each pattern goes to the rank test with its locally repaired sets
    peeled off (``erasure.peel`` on ``repair``, the code's
    ``erasure.local_repair_map``), which leaves the verdict as it is; a
    failure records the pattern's own coordinates."""
    checked = passed = 0
    failures = []
    for index, coords in chunk:
        checked += 1
        if recoverable(h, peel(repair, coords)):
            passed += 1
        elif len(failures) < MAX_WITNESS:
            failures.append((index, list(coords)))
    return checked, passed, failures


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
    pattern order, sorted; it is the same for every worker count.

    The code's ``erasure.local_repair_map`` is computed once per call, and
    each pattern is tested with its light repair sets peeled off, which is
    exact (see the module docstring): the counts and the failures, which
    hold the patterns' own coordinates, are those of the rank test alone.
    Codes whose repair sets overlap, or have no local distance, get no peel.
    """
    if columns not in ("all", "data"):
        raise InvalidParameter("columns must be 'all' or 'data'")
    eligible = list(range(arr.data_cols if columns == "data" else arr.cols))
    if not 0 <= y <= len(eligible):
        raise InvalidParameter(f"y must lie in [0, {len(eligible)}], got {y}")
    col_coords = [arr.column_coords(j) for j in range(arr.cols)]
    # room: the fewest real cells that any y eligible columns leave outside
    tallest = sorted((len(col_coords[j]) for j in eligible), reverse=True)[:y]
    room = sum(map(len, col_coords)) - sum(tallest)
    if not 0 <= gamma <= room:
        raise InvalidParameter(f"gamma must lie in [0, {room}], got {gamma}")
    if mode == "sampled" and count < 1:
        raise InvalidParameter(f"count must be at least 1, got {count}")
    if mode == "exhaustive" and exhaustive_limit < 1:
        raise InvalidParameter(f"exhaustive limit must be at least 1, got {exhaustive_limit}")

    def rest_coords(chosen):
        # the coordinates of the real cells outside the chosen columns, in
        # real_cells() order: sampled mode draws positions in this list,
        # so this order fixes the cells a seed draws
        return list(itertools.chain.from_iterable(
            cs for j, cs in enumerate(col_coords) if j not in chosen))

    def pattern_coords(col_choice, extra):
        coords = set(extra)
        for j in col_choice:
            coords.update(col_coords[j])
        return tuple(sorted(coords))

    patterns: list[tuple[int, ...]]
    used_seed = None
    if mode == "exhaustive":
        est = math.comb(len(eligible), y) * math.comb(room, gamma)
        if est > exhaustive_limit:
            raise Infeasible(
                f"~{est} patterns exceed the exhaustive limit; use sampled mode"
            )
        patterns = []
        for col_choice in itertools.combinations(eligible, y):
            for extra in itertools.combinations(rest_coords(set(col_choice)), gamma):
                patterns.append(pattern_coords(col_choice, extra))
    elif mode == "sampled":
        used_seed = seed
        rng = random.Random(seed)
        # rng.sample reads only the length of its population and the items
        # at the positions it draws, so drawing positions of the
        # rest_coords() list and mapping each to its cell draws the same
        # cells without building that list
        flat = list(itertools.chain.from_iterable(col_coords))
        starts = list(itertools.accumulate(map(len, col_coords), initial=0))
        patterns = []
        for _ in range(count):
            col_choice = sorted(rng.sample(eligible, y))
            extra = []
            if gamma:
                rest_len = len(flat) - sum(len(col_coords[j]) for j in col_choice)
                for pos in rng.sample(range(rest_len), gamma):
                    # step over the chosen columns at or before the cell
                    for j in col_choice:
                        if starts[j] > pos:
                            break
                        pos += len(col_coords[j])
                    extra.append(flat[pos])
            patterns.append(pattern_coords(col_choice, extra))
    else:
        raise InvalidParameter("mode must be 'exhaustive' or 'sampled'")

    indexed = list(enumerate(patterns))
    w = pool_size(workers, len(indexed))
    checked = passed = 0
    witnesses: list[tuple[int, list[int]]] = []
    with chunk_map(w) as run:
        sweep = partial(_sweep_task, arr.code.check, local_repair_map(arr.code))
        for c, p_, f in run(sweep, [indexed[i::w] for i in range(w)]):
            checked += c
            passed += p_
            witnesses.extend(f)
    failures = [coords for _, coords in sorted(witnesses)[:MAX_WITNESS]]

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
