"""Erasure-pattern streams for the decoder tests: exhaustive heavy-plus-
global patterns on a layout, the first fixture's beyond-distance column
pairs, and every disk-plus-sector pattern of an array or a seeded sample
of them; a full-scan reference for ``ErasurePattern.coords``; and
``peel``, local repair alone, which drops the light repair sets of an
erased set.  Not used by the
library, whose sweeps enumerate their own patterns and test them on their
plan (``gsd.check_array``, ``gsd.SweepPlan``).
"""

import itertools
import random

from lrckit import fixtures
from lrckit.erasure import ErasurePattern


def heavy_global_patterns(layout, max_heavy: int):
    """Every pattern consisting of up to ``max_heavy`` heavy sets (each an
    erased subset of size >= delta within one evaluation set) plus any
    subset of the global points.  Exhaustive and deterministic."""
    p = layout.params
    nblocks = len(layout.sets)
    per_block: list[list[tuple[int, ...]]] = []
    for a in layout.sets:
        subs = []
        for sz in range(p.delta, len(a) + 1):
            subs.extend(itertools.combinations(a, sz))
        per_block.append(subs)
    glob_subsets = []
    for sz in range(p.h + 1):
        glob_subsets.extend(itertools.combinations(layout.s_points, sz))
    for w in range(max_heavy + 1):
        for blocks in itertools.combinations(range(nblocks), w):
            for choice in itertools.product(*[per_block[b] for b in blocks]):
                per_set = [()] * nblocks
                for b, pts in zip(blocks, choice):
                    per_set[b] = pts
                for globs in glob_subsets:
                    yield ErasurePattern.make(layout, per_set, globs)


def beyond_distance_patterns():
    """Patterns on the first fixture's array with at least h+delta erased
    coordinates but at most h+delta-1 distinct erased evaluation points:
    pairs of whole data columns (6 cells, 2 points).  Yields
    (pattern, coordinate count, distinct point count)."""
    layout = fixtures.example1_layout()
    pairs = []
    pts = sorted({x for a in layout.sets for x in a})
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            per_set = []
            for a in layout.sets:
                per_set.append([x for x in a if x in (pts[i], pts[j])])
            pat = ErasurePattern.make(layout, per_set)
            pairs.append(pat)
    for pat in pairs:
        coords = pat.coords(layout)
        distinct = set().union(*pat.sets) if pat.sets else set()
        yield pat, len(coords), len(distinct)


def full_scan_coords(pat, layout) -> tuple[int, ...]:
    """The erased coordinates of a pattern, found by testing every
    coordinate of the layout: block-major evaluation points, then the
    global points."""
    out = []
    for b, a in enumerate(layout.sets):
        for t, x in enumerate(a):
            if x in pat.sets[b]:
                out.append(layout.coord(b, t))
    for i, s in enumerate(layout.s_points):
        if s in pat.globals_:
            out.append(layout.global_coord(i))
    return tuple(sorted(out))


def array_patterns(arr, y: int, gamma: int, columns: str = "all"):
    """Every pattern of y whole eligible columns of an array plus gamma of
    its other real cells, as sorted coordinate tuples, in the order of
    ``gsd.check_array``'s exhaustive mode: column choices in
    lexicographic order, then the other cells in ``real_cells()`` order."""
    eligible = range(arr.data_cols if columns == "data" else arr.cols)
    col_coords = [arr.column_coords(j) for j in range(arr.cols)]
    for chosen in itertools.combinations(eligible, y):
        rest = [c for j, cs in enumerate(col_coords) if j not in chosen for c in cs]
        for extra in itertools.combinations(rest, gamma):
            yield tuple(sorted(set(extra).union(*(col_coords[j] for j in chosen))))


def sampled_array_patterns(arr, y: int, gamma: int, count: int, seed: int,
                           columns: str = "all"):
    """``count`` patterns of y whole eligible columns plus gamma other real
    cells, drawn from ``seed`` as ``gsd.check_array``'s sampled mode draws
    them (sorted ``rng.sample`` of the columns, then ``rng.sample`` of the
    other cells in ``real_cells()`` order), as sorted coordinate tuples."""
    rng = random.Random(seed)
    eligible = list(range(arr.data_cols if columns == "data" else arr.cols))
    col_coords = [arr.column_coords(j) for j in range(arr.cols)]
    for _ in range(count):
        chosen = sorted(rng.sample(eligible, y))
        rest = [c for j, cs in enumerate(col_coords) if j not in chosen for c in cs]
        extra = rng.sample(rest, gamma)
        yield tuple(sorted(set(extra).union(*(col_coords[j] for j in chosen))))


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
