"""Differential tests of the local-then-global rank test that
``gsd.check_array`` runs on each pattern (``gsd.SweepPlan.verdict``):
``gsd.local_repair_map`` against dense punctured checks and the naive
distance, the plan's test, cold, warm and past its cache bound, against
plain ``recoverable``, the peel reference (``patternref.peel``) followed by
``recoverable`` against plain ``recoverable``, and exhaustive and sampled
sweeps, pattern by pattern, against plain ``recoverable`` on the
reference patterns; and the sampled sweeps' selection
(``gsd._sample_positions``) against ``random.Random.sample`` itself.

The erased sets are drawn around codeword supports, which are dependent,
and those supports less a coordinate, so that many sit right at the edge
a wrong threshold, kernel or image would cross.
"""

import dataclasses
import hashlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lrckit import fixtures, gsd, serial
from lrckit.algebra import FiniteField, Matrix
from lrckit.erasure import recoverable
from lrckit.errors import Infeasible, InvalidParameter
from lrckit.gsd import (MAX_WITNESS, SweepPlan, basic_array, check_array, local_repair_map,
                        rearranged_array, row_split, truncated_array)
from lrckit.lrc import LinearCode, build_code, generator_matrix
from linref import dense_punctured_check, naive_min_distance, random_code
from patternref import array_patterns, peel, sampled_array_patterns
from test_codec import layouts
from test_gsd import F17, fano_layout


def reference_thresholds(code: LinearCode) -> list[int]:
    """Per repair set, min(d, delta) - 1, d the distance of the code
    punctured to the set, from ``dense_punctured_check`` and
    ``naive_min_distance``; 0 for a set with no check."""
    out = []
    for coords in code.repair_sets:
        pc = dense_punctured_check(code, coords)
        if pc.nrows == 0:
            out.append(0)
            continue
        try:
            d = naive_min_distance(pc, code.delta - 1)
        except Infeasible:
            d = code.delta
        out.append(min(d, code.delta) - 1)
    return out


def reference_map(code: LinearCode) -> dict[int, tuple[int, int]]:
    coords = [c for rs in code.repair_sets for c in rs]
    if len(set(coords)) < len(coords):
        return {}  # overlapping repair sets: no peel
    return {c: (b, t) for b, (rs, t) in enumerate(zip(code.repair_sets, reference_thresholds(code)))
            if t for c in rs}


def overlapping_code() -> LinearCode:
    """A [8, 4] code over F_7 whose two repair sets {0..4} and {3..7}
    share coordinates 3 and 4; two checks inside each set give both a
    punctured distance of 3.  Peeling {0..2} off {2, 3, 4, 5, 6} as if
    the shared coordinates were the other set's would leave {3, 4, 5, 6}
    and call a dependent set independent."""
    fld = FiniteField(7)
    rows = [[1, 1, 1, 1, 1, 0, 0, 0],
            [0, 1, 2, 3, 4, 0, 0, 0],
            [0, 0, 0, 1, 1, 1, 1, 1],
            [0, 0, 0, 0, 1, 2, 3, 4]]
    return LinearCode(k=4, check=Matrix(fld, rows), repair_sets=[(0, 1, 2, 3, 4), (3, 4, 5, 6, 7)],
                      delta=3)


@st.composite
def codes(draw):
    """A structural code from ``layouts()``, sometimes declared with a delta
    above its sets' punctured distance, or a seeded random code with
    repair sets that may overlap."""
    if draw(st.booleans()):
        code = build_code(draw(layouts()))
        return dataclasses.replace(code, delta=code.delta + draw(st.integers(0, 1)))
    fld = draw(st.sampled_from([FiniteField(2), FiniteField(3), FiniteField(5), FiniteField(2, 2)]))
    n = draw(st.integers(5, 10))
    k = draw(st.integers(1, n - 2))
    code = random_code(fld, n, k, draw(st.integers(0, 10**6)))
    size = draw(st.integers(2, n))
    step = draw(st.integers(1, size))  # a step below size makes the sets overlap
    sets = [tuple(range(i, min(i + size, n))) for i in range(0, n, step)]
    return dataclasses.replace(code, repair_sets=sets, delta=draw(st.integers(2, 4)))


def erased_sets(draw, code: LinearCode) -> list[int]:
    """A codeword's support, perhaps less one coordinate, plus up to two
    other coordinates; or a random subset."""
    n = code.n
    kernel = code.check.nullspace()
    if kernel.nrows and draw(st.integers(0, 3)):
        fld = code.field
        word = [0] * n
        for row in draw(st.lists(st.sampled_from(kernel.rows), min_size=1, max_size=2)):
            word = [fld.add(a, fld.mul(draw(st.integers(1, fld.q - 1)), b))
                    for a, b in zip(word, row)]
        coords = {c for c, x in enumerate(word) if x}
        if coords and draw(st.booleans()):
            coords.discard(draw(st.sampled_from(sorted(coords))))
        coords.update(draw(st.lists(st.integers(0, n - 1), max_size=2)))
        return sorted(coords)
    return sorted(draw(st.sets(st.integers(0, n - 1))))


def plan_of(code: LinearCode) -> SweepPlan:
    """A fresh sweep plan of the code, with no array: its rank test alone."""
    return SweepPlan.of(code)


def assert_plan_is_exact(code: LinearCode, patterns):
    """The plan's test against plain ``recoverable`` on each pattern: on a
    fresh plan (a cold cache), then twice on one plan with every cell given
    twice, which counts once (the second pass reads its cache), then with
    a cache bound of one image."""
    h = code.check
    want = [recoverable(h, coords) for coords in patterns]
    assert [plan_of(code).recoverable(coords) for coords in patterns] == want
    warm = plan_of(code)
    assert [warm.recoverable(coords * 2) for coords in patterns * 2] == want * 2
    with mock.patch.object(gsd, "MAX_IMAGES", 1):
        bounded = plan_of(code)
        assert [bounded.recoverable(coords) for coords in patterns * 2] == want * 2
        assert len(bounded.images) <= 1


def assert_peel_is_exact(code: LinearCode, patterns):
    repair = local_repair_map(code)
    assert repair == reference_map(code)
    h = code.check
    for coords in patterns:
        left = peel(repair, coords)
        assert set(left) <= set(coords)
        assert recoverable(h, left) == recoverable(h, coords), coords
    assert_plan_is_exact(code, patterns)


@settings(max_examples=100, deadline=None)
@given(codes(), st.data())
def test_peel_keeps_every_verdict(code, data):
    assert_peel_is_exact(code, [erased_sets(data.draw, code) for _ in range(8)])


# fields whose search keys are bytes, and F_131 and F_27, whose keys are
# tuples (a prime above 127, an odd extension)
KEY_FIELDS = [FiniteField(2), FiniteField(3), FiniteField(5), FiniteField(2, 2),
              FiniteField(131), FiniteField(3, 3)]


def tiered_code(draw) -> LinearCode:
    """Three repair sets, in a drawn order, whose thresholds are 0, 1 and 2
    (delta = 3): one local row with a zero entry (punctured distance 1),
    one with none (distance 2), and two rows of an MDS code (distance 3).
    The free coordinates hold an identity on the global rows, so no global
    row reaches a set's punctured check: it is the set's own local rows.
    The first two sets may hold up to 18 cells, more than a 16-bit lane."""
    fld = draw(st.sampled_from([FiniteField(7), FiniteField(131), FiniteField(3, 3)]))
    nonzero = st.integers(1, fld.q - 1)
    sizes = [draw(st.integers(2, 18)), draw(st.integers(2, 18)), draw(st.integers(3, 6))]
    local = [[draw(nonzero) for _ in range(sizes[0] - 1)] + [0],
             [draw(nonzero) for _ in range(sizes[1])]]
    points = draw(st.lists(st.integers(0, 6), min_size=sizes[2], max_size=sizes[2], unique=True))
    mds = [[1] * sizes[2], points]
    g = draw(st.integers(1, 3))
    order = draw(st.permutations(range(3)))
    n = sum(sizes) + g
    rows, sets, start = [], [], 0
    for s in order:
        sets.append(tuple(range(start, start + sizes[s])))
        for part in ([local[s]] if s < 2 else mds):
            rows.append([0] * start + part + [0] * (n - start - sizes[s]))
        start += sizes[s]
    for i in range(g):
        rows.append([draw(st.integers(0, fld.q - 1)) for _ in range(start)]
                    + [int(i == j) for j in range(g)])
    return LinearCode(k=n - len(rows), check=Matrix(fld, rows), repair_sets=sets, delta=3)


@st.composite
def split_codes(draw):
    """A code with disjoint repair sets, varied where the row split and its
    packed lanes have edges.  Either a structural code from ``layouts()``,
    with some sets left undeclared (their cells free, their local rows
    global) or with the global coordinates declared as one more set, which
    holds no local row; or a seeded random code, sometimes over a field of
    tuple keys or with sets of 16 or more cells, whose H gains random rows
    inside some of its consecutive sets, some sets none, and whose last
    cells lie in no set; or a ``tiered_code``."""
    kind = draw(st.sampled_from(["structural", "random", "wide", "tiered"]))
    if kind == "structural":
        code = build_code(draw(layouts()))
        sets = list(code.repair_sets)
        kind = draw(st.sampled_from(["declared", "undeclared", "globals"]))
        if kind == "undeclared":
            sets = [cs for cs in sets if draw(st.booleans())]
        elif kind == "globals" and len(set().union(*sets)) < code.n:
            sets.append(tuple(sorted(set(range(code.n)).difference(*sets))))
        return dataclasses.replace(code, repair_sets=sets,
                                   delta=code.delta + draw(st.integers(0, 1)))
    if kind == "tiered":
        return tiered_code(draw)
    fld = draw(st.sampled_from(KEY_FIELDS))
    n = draw(st.integers(17, 20) if kind == "wide" else st.integers(5, 10))
    code = random_code(fld, n, draw(st.integers(1, n - 2)), draw(st.integers(0, 10**6)))
    size = draw(st.integers(16, n) if kind == "wide" else st.integers(2, n))
    covered = n - draw(st.integers(0, 2))
    sets = [tuple(range(i, min(i + size, covered))) for i in range(0, covered, size)]
    rows = code.check.copy_rows()
    for cs in sets:
        for _ in range(draw(st.integers(0, 2))):
            row = [0] * n
            for c in cs:
                row[c] = draw(st.integers(0, fld.q - 1))
            rows.append(row)
    h = Matrix(fld, rows)
    return LinearCode(k=n - h.rank(), check=h, repair_sets=sets, delta=draw(st.integers(2, 4)))


@settings(max_examples=100, deadline=None)
@given(split_codes(), st.data())
def test_plan_matches_recoverable(code, data):
    assert_plan_is_exact(code, [erased_sets(data.draw, code) for _ in range(8)])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_tiered_codes_have_every_threshold(data):
    """The three sets of a ``tiered_code`` own the first three lanes, with
    thresholds 0, 1 and 2, as the dense reference finds them too; the other
    lanes are the free coordinates."""
    code = tiered_code(data.draw)
    split = row_split(code)
    assert sorted(split.thresholds[:3]) == [0, 1, 2] == sorted(reference_thresholds(code))
    assert split.lanes[:3] == code.repair_sets and split.thresholds[3:] == [0] * split.g
    assert_plan_is_exact(code, [erased_sets(data.draw, code) for _ in range(8)])


def test_more_columns_than_global_rows_fail_at_once(monkeypatch):
    """ag13's H has 4 global rows, and each of its repair sets, three
    cells with one local row, erased whole adds two image vectors: three
    such sets are refused before any image is built or any elimination
    runs."""
    code = build_code(fixtures.ag13_layout())
    plan = plan_of(code)
    assert plan.split.g == 4
    sets = len(code.repair_sets)
    assert set(plan.split.nlocal[:sets]) == {1} and {len(cs) for cs in code.repair_sets} == {3}

    def refuse(*args, **kwargs):
        raise AssertionError("an elimination ran")

    monkeypatch.setattr(gsd, "eliminate_keys", refuse)
    assert not plan.recoverable([c for cs in code.repair_sets[:3] for c in cs])
    assert plan.images == {}


@pytest.mark.parametrize("make", [fixtures.ag13_layout, overlapping_code])
def test_plan_refuses_cells_outside_the_code(make):
    """As ``recoverable`` does, with or without set lanes."""
    code = make() if make is overlapping_code else build_code(make())
    plan = plan_of(code)
    assert any(plan.split.nlocal) == (make is not overlapping_code)
    for cells in ([-1], [0, code.n]):
        for test in (plan.recoverable, lambda cs: recoverable(code.check, cs)):
            with pytest.raises(InvalidParameter, match="must lie in"):
                test(cells)


def test_overlapping_sets_are_not_peeled():
    code = overlapping_code()
    assert local_repair_map(code) == {}
    split = row_split(code)  # no set lanes: every coordinate is free
    assert split.lanes == [(c,) for c in range(code.n)] and not any(split.thresholds)
    assert split.g == code.check.nrows
    assert not recoverable(code.check, [2, 3, 4, 5, 6])
    assert recoverable(code.check, [3, 4, 5, 6])
    assert_peel_is_exact(code, [[2, 3, 4, 5, 6], [0, 1, 2, 3, 4], [0, 1, 5, 6], [3, 4, 5, 6]])
    # either set alone has punctured distance 3, so two erasures peel
    alone = dataclasses.replace(code, repair_sets=code.repair_sets[:1])
    assert local_repair_map(alone) == dict.fromkeys(range(5), (0, 2))


@pytest.mark.parametrize("make", [fixtures.example1_layout, fixtures.ag13_layout])
@pytest.mark.parametrize("bump", [0, 1])
def test_peel_on_fixed_codes(make, bump):
    """The fixed codes, with their declared delta and with one above the
    punctured distance delta: every generator row's support (a circuit
    that meets one set in delta coordinates), less each of its
    coordinates in turn."""
    lay = make()
    code = build_code(lay)
    code = dataclasses.replace(code, delta=code.delta + bump)
    assert set(reference_thresholds(code)) == {lay.params.delta - 1}
    supports = [[c for c, x in enumerate(row) if x] for row in generator_matrix(lay).rows]
    patterns = supports + [s[:i] + s[i + 1:] for s in supports[:6] for i in range(len(s))]
    assert not any(recoverable(code.check, s) for s in supports)
    assert_peel_is_exact(code, patterns)


def reference_sweep(arr, y, gamma, columns="all") -> dict:
    """``check_array``'s exhaustive counts and witnesses from a loop over
    plain ``recoverable`` on every pattern, with no peel."""
    h = arr.code.check
    checked = passed = 0
    failures = []
    for coords in array_patterns(arr, y, gamma, columns):
        checked += 1
        if recoverable(h, coords):
            passed += 1
        elif len(failures) < MAX_WITNESS:
            failures.append(list(coords))
    return {"checked": checked, "recoverable": passed, "failures": sorted(failures)}


@pytest.mark.parametrize("make, y, gamma, columns, failing", [
    (fixtures.example1_layout, 1, 3, "all", 385),
    (fixtures.example1_layout, 2, 1, "all", 42),
    (fixtures.ag13_layout, 1, 2, "all", 36),
    (fixtures.ag13_layout, 2, 0, "data", 0),
])
def test_exhaustive_sweep_matches_plain_rank_tests(make, y, gamma, columns, failing):
    lay = make()
    arr = basic_array(lay, build_code(lay))
    report = check_array(arr, y=y, gamma=gamma, columns=columns)
    want = reference_sweep(arr, y, gamma, columns)
    assert {key: report[key] for key in want} == want
    assert report["checked"] - report["recoverable"] == failing


def undeclared(arr):
    """The array with its code's repair sets undeclared: no set lanes, so
    every coordinate is free and every nonzero row global."""
    return dataclasses.replace(arr, code=dataclasses.replace(arr.code, repair_sets=[]))


def assert_sweep_loop_is_exact(arr, y, gamma, columns, mode) -> list[bool]:
    """A sweep draws each pattern as (column choice, extra cells) and tests
    the sum of their words.  Pattern by pattern, those cells are the
    reference's (``array_patterns``, ``sampled_array_patterns``), and
    ``SweepPlan.recoverable`` agrees with plain ``recoverable`` on them; with
    room for every witness, ``check_array`` reports exactly the patterns
    that plain ``recoverable`` refuses.  Returns those verdicts."""
    plan = arr.plan
    eligible = list(range(arr.data_cols if columns == "data" else arr.cols))
    if mode == "exhaustive":
        kw = {}
        want = list(array_patterns(arr, y, gamma, columns))
        drawn = gsd._exhaustive_patterns(plan.col_coords, eligible, y, gamma)
    else:
        kw = dict(count=300, seed=y + 10 * gamma)
        want = list(sampled_array_patterns(arr, y, gamma, columns=columns, **kw))
        drawn = gsd._sampled_patterns(plan, eligible, y, gamma, kw["count"], kw["seed"])
    assert [tuple(plan.cells(choice, extras)) for choice, extras in drawn] == want
    verdicts = [recoverable(arr.code.check, coords) for coords in want]
    assert [plan.recoverable(coords) for coords in want] == verdicts
    with mock.patch.object(gsd, "MAX_WITNESS", len(want)):
        report = check_array(arr, y=y, gamma=gamma, mode=mode, columns=columns, **kw)
    assert (report["checked"], report["recoverable"]) == (len(want), sum(verdicts))
    assert report["failures"] == sorted(list(c) for c, ok in zip(want, verdicts) if not ok)
    return verdicts


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
@pytest.mark.parametrize("arrange, make, y, gamma, columns", [
    (basic_array, lambda: fano_layout(h=4), 3, 1, "all"),  # zero-filled cells
    (basic_array, lambda: fano_layout(h=4), 3, 0, "all"),
    (rearranged_array, lambda: fano_layout(h=7, field=F17), 3, 1, "all"),
    (truncated_array, lambda: fano_layout(h=1, v=1), 0, 3, "all"),
    (truncated_array, lambda: fano_layout(h=1, v=1), 1, 2, "all"),
    (basic_array, fixtures.example1_layout, 2, 1, "all"),
    (basic_array, fixtures.ag13_layout, 3, 0, "data"),
])
@pytest.mark.parametrize("split", [True, False])
def test_sweep_loop_matches_each_pattern(arrange, make, y, gamma, columns, mode, split):
    """``assert_sweep_loop_is_exact`` on patterns of both outcomes.  With
    the repair sets undeclared no lane has local rows, and the test is the
    plain rank test on the free coordinates' columns."""
    lay = make()
    arr = arrange(lay, build_code(lay))
    arr = arr if split else undeclared(arr)
    assert any(arr.plan.split.nlocal) == split
    verdicts = assert_sweep_loop_is_exact(arr, y, gamma, columns, mode)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("y, gamma, failing", [(2, 1, 0), (8, 0, 28)])
def test_sampled_sweep_on_example3_matches_each_pattern(y, gamma, failing):
    """``assert_sweep_loop_is_exact`` on example3's truncated array.  Its 73
    columns lie past ``random.sample``'s pool bound for 2 items (21) and
    within it for 8 (85), so the y = 2 draw rejects repeats against a set
    and the y = 8 draw swaps in a pool; no other sampled case has more
    than 21 eligible columns."""
    lay = fixtures.example3_layout()
    arr = truncated_array(lay, build_code(lay))
    assert gsd._set_size(2) < arr.cols <= gsd._set_size(8)
    verdicts = assert_sweep_loop_is_exact(arr, y, gamma, "all", "sampled")
    assert len(verdicts) - sum(verdicts) == failing


# (n, k) on both sides of every bound of ``random.sample``'s pool branch:
# n <= 21 for k <= 5, 85 for k in [6, 21], 277 for k in [22, 85]
SAMPLE_EDGES = sorted({(n, k) for n in (1, 20, 21, 22, 84, 85, 86, 276, 277, 278, 700)
                       for k in (0, 1, 5, 6, 8, 21, 22, n) if k <= n})


def assert_sample_matches_random(seed: int, n: int, k: int):
    """``_sample_positions`` picks ``random.Random(seed).sample(range(n), k)``
    and leaves the generator where ``sample`` leaves it."""
    mine, theirs = random.Random(seed), random.Random(seed)
    picked = gsd._sample_positions(mine.getrandbits, n, k, gsd._set_size(k))
    assert list(picked) == theirs.sample(range(n), k), (seed, n, k)
    assert mine.getrandbits(32) == theirs.getrandbits(32), (seed, n, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**64))
def test_sample_positions_match_random_sample_at_the_branch_edges(seed):
    for n, k in SAMPLE_EDGES:
        assert_sample_matches_random(seed, n, k)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64), st.integers(1, 3000).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, min(n, 400)))))
def test_sample_positions_match_random_sample(seed, nk):
    assert_sample_matches_random(seed, *nk)


# sha256 of serial.dumps of the exhaustive ag13 sweep: 589,050 patterns of
# one whole column and four more cells, 19,026 of them unrecoverable, as
# the rank test alone reports them
AG13_EXHAUSTIVE = "ce1d86be944cd0b6c6f065f479a56c0f7abc3afa735d574d38876c06803932cc"


@pytest.mark.parametrize("workers", [1, 2])
def test_exhaustive_sweep_report_is_pinned(workers):
    lay = fixtures.ag13_layout()
    report = check_array(basic_array(lay, build_code(lay)), y=1, gamma=4, workers=workers)
    assert (report["checked"], report["recoverable"]) == (589050, 570024)
    assert hashlib.sha256(serial.dumps(report).encode()).hexdigest() == AG13_EXHAUSTIVE
