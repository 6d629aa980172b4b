"""Differential tests of the local-then-global rank test that
``gsd.check_array`` runs on each pattern (``gsd.SweepPlan.recoverable``):
``erasure.local_repair_map`` against dense punctured checks and the naive
distance, the plan's test, cold, warm and past its cache bound, against
plain ``recoverable``, the peel reference (``patternref.peel``) followed by
``recoverable`` against plain ``recoverable``, and exhaustive sweeps
against a per-pattern loop over plain ``recoverable``.

The erased sets are drawn around codeword supports, which are dependent,
and those supports less a coordinate, so that many sit right at the edge
a wrong threshold, kernel or image would cross.
"""

import dataclasses
import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lrckit import fixtures, gsd, serial
from lrckit.algebra import FiniteField, Matrix
from lrckit.erasure import local_repair_map, recoverable
from lrckit.errors import Infeasible
from lrckit.gsd import MAX_WITNESS, SweepPlan, basic_array, check_array, row_split
from lrckit.lrc import LinearCode, build_code, generator_matrix
from linref import dense_punctured_check, naive_min_distance, random_code
from patternref import array_patterns, peel
from test_codec import layouts


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
    return SweepPlan(col_coords=[], flat=[], starts=[0], h=code.check, split=row_split(code))


def assert_plan_is_exact(code: LinearCode, patterns):
    """The plan's test against plain ``recoverable`` on each pattern: on a
    fresh plan (a cold cache), then twice on one plan (the second pass
    reads its cache), then with a cache bound of one image."""
    h = code.check
    want = [recoverable(h, coords) for coords in patterns]
    assert [plan_of(code).recoverable(coords) for coords in patterns] == want
    warm = plan_of(code)
    assert [warm.recoverable(coords) for coords in patterns * 2] == want * 2
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


@st.composite
def split_codes(draw):
    """A code with disjoint repair sets, varied where the row split has
    edges.  Either a structural code from ``layouts()``, with some sets
    left undeclared (their cells free, their local rows global) or with
    the global coordinates declared as one more set, which holds no local
    row; or a seeded random code whose H gains random rows inside some of
    its consecutive sets, some sets none, and whose last cells lie in no
    set."""
    if draw(st.booleans()):
        code = build_code(draw(layouts()))
        sets = list(code.repair_sets)
        kind = draw(st.sampled_from(["declared", "undeclared", "globals"]))
        if kind == "undeclared":
            sets = [cs for cs in sets if draw(st.booleans())]
        elif kind == "globals" and len(set().union(*sets)) < code.n:
            sets.append(tuple(sorted(set(range(code.n)).difference(*sets))))
        return dataclasses.replace(code, repair_sets=sets,
                                   delta=code.delta + draw(st.integers(0, 1)))
    fld = draw(st.sampled_from([FiniteField(2), FiniteField(3), FiniteField(5), FiniteField(2, 2)]))
    n = draw(st.integers(5, 10))
    code = random_code(fld, n, draw(st.integers(1, n - 2)), draw(st.integers(0, 10**6)))
    size = draw(st.integers(2, n))
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


def test_more_columns_than_global_rows_fail_at_once(monkeypatch):
    """ag13's H has 4 global rows, and each of its repair sets, three
    cells with one local row, erased whole adds two image vectors: three
    such sets are refused before any image is built or any elimination
    runs."""
    code = build_code(fixtures.ag13_layout())
    plan = plan_of(code)
    assert plan.split.g == 4
    assert set(plan.split.nlocal) == {1} and {len(cs) for cs in code.repair_sets} == {3}

    def refuse(*args, **kwargs):
        raise AssertionError("an elimination ran")

    monkeypatch.setattr(gsd, "eliminate_vectors", refuse)
    assert not plan.recoverable([c for cs in code.repair_sets[:3] for c in cs])
    assert plan.images == {}


def test_overlapping_sets_are_not_peeled():
    code = overlapping_code()
    assert local_repair_map(code) == {}
    assert row_split(code) is None  # the plan falls back to recoverable
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
