import concurrent.futures
import itertools
import pickle
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lrckit import erasure, fixtures, gsd
from lrckit.algebra import FiniteField, Matrix
from lrckit.erasure import (
    ErasurePattern,
    decode_linear,
    decode_structured,
    min_distance,
    pattern_admissible,
    recoverable,
)
from lrckit.errors import Inconsistent, Infeasible, InvalidParameter, NotAdmissible
from lrckit.lrc import (
    EvaluationLayout,
    LinearCode,
    LrcParams,
    build_code,
    encode,
    parity_check_matrix,
)
from linref import dense_decode, naive_min_distance
from patternref import beyond_distance_patterns, full_scan_coords, heavy_global_patterns
from test_codec import layouts

F2 = FiniteField(2)
F11 = FiniteField(11)


def mask(word, coords):
    cs = set(coords)
    return [None if c in cs else x for c, x in enumerate(word)]


def zero_fill(word, coords):
    cs = set(coords)
    return [0 if c in cs else x for c, x in enumerate(word)]


# ----------------------------------------------------------------------
# admissibility


def test_light_patterns_admissible(example1_layout):
    pat = ErasurePattern.make(example1_layout, [[example1_layout.sets[0][0]]])
    rep = pattern_admissible(example1_layout, pat)
    assert rep.admissible and rep.heavy_sets == []


def test_full_block_plus_global_admissible(example1_layout):
    lay = example1_layout
    pat = ErasurePattern.make(lay, [lay.sets[0]], [lay.s_points[0]])
    rep = pattern_admissible(lay, pat)
    assert rep.admissible
    assert rep.union_size + 1 == rep.budget == 4


def test_overlapping_heavy_sets_inadmissible():
    params = LrcParams(r=2, delta=2, ell=1, v=2, h=2)
    lay = EvaluationLayout(F11, params, [(0, 1, 2), (1, 2, 3)], (9, 10))
    pat = ErasurePattern.make(lay, [(0, 1), (2, 3)])
    rep = pattern_admissible(lay, pat)
    assert not rep.admissible  # the sets share two evaluation points


# ----------------------------------------------------------------------
# structured decoder


def test_decode_zero_word(example1_layout):
    lay = example1_layout
    pat = ErasurePattern.make(lay, {2: lay.sets[2]}, [lay.s_points[1]])
    out = decode_structured(lay, mask([0] * lay.n, pat.coords(lay)), pat)
    assert out == [0] * lay.n


def test_decoder_requires_admissible(example1_layout):
    lay = example1_layout
    per_set = [lay.sets[0], lay.sets[1]]
    pat = ErasurePattern.make(lay, per_set, lay.s_points)  # too many erasures
    with pytest.raises(NotAdmissible):
        decode_structured(lay, [0] * lay.n, pat)


def test_decoder_never_reads_erased(example1_layout):
    # erased coordinates carry None; any read would raise immediately
    lay = example1_layout
    rng = random.Random(0)
    word = encode(lay, [rng.randrange(11) for _ in range(14)])
    pat = ErasurePattern.make(lay, {3: lay.sets[3]}, [lay.s_points[2]])
    out = decode_structured(lay, mask(word, pat.coords(lay)), pat)
    assert out == word


@pytest.mark.parametrize("per_set", [{7: [0]}, {-1: [0]}, {"0": [0]}, [()] * 8])
def test_pattern_names_only_the_layouts_sets(example1_layout, per_set):
    """A set index the layout does not have, or a list longer than its 7
    sets, is refused rather than dropped."""
    with pytest.raises(InvalidParameter, match="set"):
        ErasurePattern.make(example1_layout, per_set)
    assert ErasurePattern.make(example1_layout, {6: [example1_layout.sets[6][0]]}).sets[6]


def _misfit(lay, kind):
    """A pattern that ``ErasurePattern.make`` would refuse, built directly:
    one set too many or too few, a point of another set, a point of S in a
    set, or a set's point among the global points."""
    sets = [frozenset()] * len(lay.sets)
    foreign = next(x for x in lay.sets[1] if x not in lay.sets[0])
    if kind == "a set too many":
        return ErasurePattern(tuple(sets) + (frozenset(),), frozenset())
    if kind == "a set too few":
        return ErasurePattern(tuple(sets[1:]), frozenset())
    if kind == "a point of another set":
        sets[0] = frozenset({lay.sets[0][0], foreign})
    elif kind == "a global point in a set":
        sets[0] = frozenset({lay.s_points[0]})
    else:
        return ErasurePattern(tuple(sets), frozenset({lay.s_points[0], lay.sets[0][0]}))
    return ErasurePattern(tuple(sets), frozenset())


@pytest.mark.parametrize("kind, match", [
    ("a set too many", "pattern has 13 sets, the layout 12"),
    ("a set too few", "pattern has 11 sets, the layout 12"),
    ("a point of another set", "erasures outside evaluation set 0"),
    ("a global point in a set", "erasures outside evaluation set 0"),
    ("a set's point among the global points", "global erasures outside the global point set"),
])
def test_pattern_must_fit_the_layout(ag13_layout, kind, match):
    """A pattern that does not fit the layout is refused by its coordinate
    view, the admissibility test and the structured decoder, rather than
    raising IndexError or dropping the points that do not fit; and
    ``ErasurePattern.make`` builds none of them, but pads a list of too few
    sets."""
    lay = ag13_layout
    pat = _misfit(lay, kind)
    if kind == "a set too few":
        assert ErasurePattern.make(lay, pat.sets, pat.globals_).sets == pat.sets + (frozenset(),)
    else:
        with pytest.raises(InvalidParameter, match=match):
            ErasurePattern.make(lay, pat.sets, pat.globals_)
    word = encode(lay, [u % 13 for u in range(lay.params.k)])
    with pytest.raises(InvalidParameter, match=match):
        pat.coords(lay)
    with pytest.raises(InvalidParameter, match=match):
        pattern_admissible(lay, pat)
    with pytest.raises(InvalidParameter, match=match):
        decode_structured(lay, word, pat)


def test_decoder_reads_one_admissibility_report(ag13_layout, monkeypatch):
    """Each decode calls ``erasure.pattern_admissible`` once, through the
    module attribute (the one per-layer tracing wraps), whatever it then
    returns or raises."""
    lay = ag13_layout
    word = encode(lay, [u % 13 for u in range(lay.params.k)])
    calls = []
    real = erasure.pattern_admissible

    def counted(layout, pat):
        calls.append(pat)
        return real(layout, pat)

    monkeypatch.setattr(erasure, "pattern_admissible", counted)
    cases = [
        ({}, [], None),                                      # nothing erased
        ({0: [0]}, [12], None),                              # light only
        ({0: [0, 1]}, [12], None),                           # one heavy set
        ({0: [0, 1], 10: [3, 4]}, [12], None),               # two heavy sets
        ({0: lay.sets[0], 1: lay.sets[1]}, lay.s_points, NotAdmissible),
        ({0: [0, 1]}, [], Inconsistent),                     # a corrupted survivor
    ]
    for per_set, globs, error in cases:
        pat = ErasurePattern.make(lay, per_set, globs)
        received = mask(word, pat.coords(lay))
        if error is Inconsistent:
            c = lay.global_coord(0)
            received[c] = lay.field.add(received[c], 1)
        calls.clear()
        if error is None:
            assert decode_structured(lay, received, pat) == word
        else:
            with pytest.raises(error):
                decode_structured(lay, received, pat)
        assert calls == [pat]


def test_decoder_missing_survivor_rejected(example1_layout):
    lay = example1_layout
    pat = ErasurePattern.make(lay, [lay.sets[0]])
    received = mask([0] * lay.n, pat.coords(lay))
    received[-1] = None  # not part of the declared pattern
    with pytest.raises(InvalidParameter):
        decode_structured(lay, received, pat)


def test_decoder_detects_corrupt_survivor(example1_layout):
    lay = example1_layout
    word = encode(lay, [i % 11 for i in range(14)])
    pat = ErasurePattern.make(lay, [lay.sets[0]])
    received = mask(word, pat.coords(lay))
    received[lay.coord(1, 2)] = (received[lay.coord(1, 2)] + 1) % 11
    with pytest.raises(Inconsistent):
        decode_structured(lay, received, pat)


@pytest.mark.parametrize("make, per_set, globs, corrupt", [
    # a survivor of a light set without erasures
    (fixtures.example1_layout, {0: [4]}, [], (1, 0)),
    # a global parity beyond the values that pin the combined polynomial
    (fixtures.example1_layout, {0: [4, 2]}, [], (7, 2)),
    # a spare exclusive point of one of two disjoint heavy sets
    (fixtures.ag13_layout, {0: [0, 1], 10: [3, 4]}, [12], (0, 2)),
])
def test_every_survivor_is_checked(make, per_set, globs, corrupt):
    """A corrupted survivor that the recovery steps do not read is caught
    by the closing comparison with the re-encoded word."""
    lay = make()
    rng = random.Random(7)
    word = encode(lay, [rng.randrange(lay.field.q) for _ in range(lay.params.k)])
    pat = ErasurePattern.make(lay, per_set, globs)
    assert pattern_admissible(lay, pat).admissible
    received = mask(word, pat.coords(lay))
    block, t = corrupt
    c = lay.global_coord(t) if block == len(lay.sets) else lay.coord(block, t)
    received[c] = lay.field.add(received[c], 1)
    with pytest.raises(Inconsistent, match="disagrees with a survivor"):
        decode_structured(lay, received, pat)


@pytest.mark.parametrize("make, per_set, globs", [
    (fixtures.example1_layout, {0: [4, 2]}, [9]),
    (fixtures.example1_layout, {1: [1]}, []),
    (fixtures.ag13_layout, {0: [0, 1], 10: [3, 4]}, [12]),
    (fixtures.ag13_layout, {3: [0, 5]}, []),
])
def test_corrupted_survivor_in_an_untouched_block(make, per_set, globs):
    """The decoder visits only the blocks with erasures; a corrupted
    survivor in any block without erasures is still caught, at every
    position of every such block."""
    lay = make()
    rng = random.Random(5)
    word = encode(lay, [rng.randrange(lay.field.q) for _ in range(lay.params.k)])
    pat = ErasurePattern.make(lay, per_set, globs)
    assert pattern_admissible(lay, pat).admissible
    received = mask(word, pat.coords(lay))
    assert decode_structured(lay, received, pat) == word
    untouched = [b for b in range(len(lay.sets)) if not pat.sets[b]]
    assert untouched
    for b in untouched:
        for c in lay.block_coords(b):
            bad = list(received)
            bad[c] = lay.field.add(bad[c], 1 + c % (lay.field.q - 1))
            with pytest.raises(Inconsistent, match="disagrees with a survivor"):
                decode_structured(lay, bad, pat)


def test_oracle_equivalence_exhaustive(example1_layout, example1_code):
    lay, code = example1_layout, example1_code
    rng = random.Random(99)
    checked = 0
    for pat in heavy_global_patterns(lay, 2):
        if not pattern_admissible(lay, pat).admissible:
            continue
        word = encode(lay, [rng.randrange(11) for _ in range(14)])
        coords = pat.coords(lay)
        a = decode_structured(lay, mask(word, coords), pat)
        b = decode_linear(code, coords, zero_fill(word, coords))
        assert a == b == word
        checked += 1
    assert checked > 500


def test_shared_point_beyond_distance(example1_layout, example1_code):
    # more erased coordinates than d-1 but few distinct evaluation points
    lay, code = example1_layout, example1_code
    rng = random.Random(5)
    word = encode(lay, [rng.randrange(11) for _ in range(14)])
    count = 0
    for pat, ncoords, npoints in beyond_distance_patterns():
        assert ncoords >= 5 and npoints <= 4
        assert pattern_admissible(lay, pat).admissible
        coords = pat.coords(lay)
        assert decode_structured(lay, mask(word, coords), pat) == word
        assert decode_linear(code, coords, zero_fill(word, coords)) == word
        count += 1
    assert count == 21


# ----------------------------------------------------------------------
# linear oracle


def test_decode_linear_no_erasures(example1_layout, example1_code):
    word = encode(example1_layout, [i % 11 for i in range(14)])
    assert decode_linear(example1_code, (), word) == word
    bad = list(word)
    bad[0] = (bad[0] + 1) % 11
    with pytest.raises(Inconsistent):
        decode_linear(example1_code, (), bad)


@pytest.mark.parametrize("coord", [0, 2, 23])  # information, local parity, global
@pytest.mark.parametrize("bad", [11, -1, None])
def test_decoders_reject_bad_survivors(example1_layout, example1_code, coord, bad):
    """A survivor outside [0, q), or missing, is refused by both decoders
    with a message about the received word, wherever it sits."""
    lay = example1_layout
    received = [0] * lay.n  # the zero codeword
    received[coord] = bad
    match = "survivor coordinate is missing" if bad is None else r"received word .*\[0, 11\)"
    with pytest.raises(InvalidParameter, match=match):
        decode_linear(example1_code, (), received)
    with pytest.raises(InvalidParameter, match=match):
        decode_structured(lay, received, ErasurePattern.make(lay, []))
    # an erased coordinate is not read, so any value may sit there
    pat = ErasurePattern.make(lay, {0: lay.sets[0]}) if coord < 3 else ErasurePattern.make(
        lay, [], [lay.s_points[-1]])
    assert decode_linear(example1_code, pat.coords(lay), received) == [0] * lay.n
    assert decode_structured(lay, received, pat) == [0] * lay.n


def test_decoders_reject_a_word_of_the_wrong_length(example1_layout, example1_code):
    lay = example1_layout
    for received in ([0] * (lay.n - 1), [0] * (lay.n + 1)):
        with pytest.raises(InvalidParameter, match="length 24"):
            decode_linear(example1_code, (), received)
        with pytest.raises(InvalidParameter, match="length 24"):
            decode_structured(lay, received, ErasurePattern.make(lay, []))


def test_decode_linear_fails_on_codeword_support(example1_layout, example1_code):
    # erasing the support of a minimum-weight codeword cannot be unique
    lay, code = example1_layout, example1_code
    ns = code.check.columns(range(code.n)).nullspace()
    word = min(ns.rows, key=lambda r: sum(1 for x in r if x))
    support = [i for i, x in enumerate(word) if x]
    assert decode_linear(code, support, zero_fill([0] * 24, support)) is None


def test_recoverable_edges(example1_code):
    h = example1_code.check
    assert recoverable(h, ())
    assert not recoverable(h, range(24))
    assert recoverable(h, range(4))  # within distance


@pytest.mark.parametrize("coords", [[-1], [-1, 23], [0, -24], [24], [3, 24], [-1, 24]])
def test_coordinates_outside_the_code_are_rejected(example1_layout, example1_code, coords):
    # a negative coordinate must not wrap round to the end of the word
    word = encode(example1_layout, [i % 11 for i in range(14)])
    with pytest.raises(InvalidParameter, match="erased coordinates"):
        recoverable(example1_code.check, coords)
    with pytest.raises(InvalidParameter, match="erased coordinates"):
        decode_linear(example1_code, coords, word)


def independent(h, coords):
    """The dense reference: the erased columns of H have full rank."""
    cols = sorted(set(coords))
    return h.columns(cols).rank() == len(cols)


@given(layouts(), st.data())
@settings(max_examples=150, deadline=None)
def test_recoverable_matches_rank_on_structural_checks(lay, data):
    # whole blocks exceed their local rows, so the global rows fill in
    h = parity_check_matrix(lay)
    blocks = data.draw(st.lists(st.integers(0, len(lay.sets) - 1), unique=True, max_size=3))
    coords = [c for b in blocks for c in lay.block_coords(b)]
    coords += data.draw(st.lists(st.integers(0, lay.n - 1), max_size=6))
    coords += [lay.global_coord(i) for i in data.draw(
        st.lists(st.integers(0, lay.params.h - 1), unique=True) if lay.params.h else st.just([]))]
    assert recoverable(h, coords) == independent(h, coords)


def test_decode_linear_reports_dependence_before_inconsistency():
    # erased columns 0 and 1 are equal, and the survivors break row 2
    h = Matrix(F11, [[1, 1, 0, 0], [0, 0, 1, 1]])
    code = LinearCode(k=2, check=h)
    assert decode_linear(code, [0, 1], [None, None, 1, 0]) is None
    with pytest.raises(Inconsistent):
        decode_linear(code, [0], [None, 5, 1, 0])


ORACLE_FIELDS = [FiniteField(2, 2), FiniteField(5), FiniteField(7), FiniteField(3, 2)]


def kernel_by_enumeration(m: Matrix) -> list[tuple[int, ...]]:
    """Every nonzero x with m x = 0, from scalar arithmetic alone (no
    elimination, no vector kernels)."""
    f = m.field

    def row_times(row, x):
        acc = 0
        for a, b in zip(row, x):
            acc = f.add(acc, f.mul(a, b))
        return acc

    return [x for x in itertools.product(range(f.q), repeat=m.ncols)
            if any(x) and all(row_times(row, x) == 0 for row in m.rows)]


@given(st.sampled_from(ORACLE_FIELDS), st.data())
@settings(max_examples=60, deadline=None)
def test_linear_oracle_matches_enumeration(fld, data):
    nrows, ncols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.integers(0, fld.q - 1))
    h = Matrix(fld, data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                                       min_size=nrows, max_size=nrows)), ncols)
    kernel = kernel_by_enumeration(h)
    assert fld.q ** (ncols - h.rank()) == len(kernel) + 1

    erased = data.draw(st.lists(st.integers(0, ncols - 1), unique=True))
    dependent = any(all(j in erased for j, x in enumerate(v) if x) for v in kernel)
    assert recoverable(h, erased) == (not dependent)

    # a codeword, possibly corrupted at one survivor
    word = list(data.draw(st.sampled_from(kernel + [(0,) * ncols])))
    survivors = [j for j in range(ncols) if j not in erased]
    if survivors and data.draw(st.booleans()):
        j = data.draw(st.sampled_from(survivors))
        word[j] = fld.add(word[j], data.draw(st.integers(1, fld.q - 1)))
    received = [None if j in erased else x for j, x in enumerate(word)]
    code = LinearCode(k=ncols - h.rank(), check=h)
    completions = [list(v) for v in kernel + [(0,) * ncols]
                   if all(v[j] == word[j] for j in survivors)]
    if dependent:
        assert decode_linear(code, erased, received) is None
    elif not completions:
        with pytest.raises(Inconsistent):
            decode_linear(code, erased, received)
    else:
        assert [decode_linear(code, erased, received)] == completions


# ----------------------------------------------------------------------
# minimum distance


def test_min_distance_parity_code():
    h = Matrix(F2, [[1, 1, 1]])
    assert min_distance(h) == 2


def distance_or_none(search, m):
    try:
        return search(m)
    except Infeasible:
        return None


# the search holds its columns as bytes keys on prime fields up to p = 127
# and characteristic-2 fields up to q = 256, and as tuples on the others:
# F_131 past the lane bound and the odd extension F_9
DISTANCE_FIELDS = [FiniteField(5), FiniteField(7), F11, FiniteField(2, 2), FiniteField(2, 3),
                   FiniteField(3, 2), FiniteField(2, 4), FiniteField(131)]


@st.composite
def small_matrices(draw):
    """A matrix up to 5x9 in which up to three columns are then overwritten
    by planted dependencies: a zero column, a copy of another column scaled
    by a factor other than 1, or a combination of two or three others."""
    fld = draw(st.sampled_from(DISTANCE_FIELDS))
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    entry = st.one_of(st.just(0), st.integers(0, fld.q - 1))  # zeros make sparse columns
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.integers(0, ncols - 1))
        kind = draw(st.sampled_from(["zero", "scaled", "sum"]))
        nsrc = {"zero": 0, "scaled": 1, "sum": draw(st.integers(2, 3))}[kind]
        srcs = draw(st.lists(st.integers(0, ncols - 1), min_size=nsrc, max_size=nsrc))
        factor = st.integers(2, fld.q - 1) if kind == "scaled" else st.integers(1, fld.q - 1)
        factors = draw(st.lists(factor, min_size=nsrc, max_size=nsrc))
        for r in rows:
            acc = 0
            for j, c in zip(srcs, factors):
                acc = fld.add(acc, fld.mul(c, r[j]))
            r[target] = acc
    return Matrix(fld, rows, ncols)


def vandermonde(fld, nrows):
    """Check matrix of the doubly extended Reed-Solomon code of length
    q + 1 and distance nrows + 1: the columns (1, x, ..., x^(nrows-1)) and
    the column at infinity.  For nrows >= 4 the last passes build prefixes
    of three or more pivots, and every candidate must stay reduced against
    all of them."""
    cols = [[fld.pow(x, i) for i in range(nrows)] for x in fld.elements()]
    cols.append([0] * (nrows - 1) + [1])
    return Matrix(fld, cols).transpose()


MDS_CHECKS = [vandermonde(FiniteField(7), 4), vandermonde(FiniteField(2, 3), 5)]


@given(small_matrices())
@example(MDS_CHECKS[0])
@example(MDS_CHECKS[1])
@settings(max_examples=80, deadline=None)
def test_min_distance_matches_naive(m):
    d = distance_or_none(min_distance, m)
    assert d == distance_or_none(naive_min_distance, m)
    # only a matrix of full column rank has no dependent columns at all
    assert (d is None) == (m.rank() == m.ncols)


@st.composite
def wide_matrices(draw):
    """A matrix of 0-4 rows and 2-5 more columns than rows, with zero
    entries common; with two or more rows, the last is sometimes a
    combination of the others, so the rank falls below the row count."""
    fld = draw(st.sampled_from(DISTANCE_FIELDS))
    nrows = draw(st.integers(0, 4))
    ncols = draw(st.integers(nrows + 2, nrows + 5))
    entry = st.one_of(st.just(0), st.integers(0, fld.q - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if nrows >= 2 and draw(st.booleans()):
        a, b = (draw(st.integers(0, fld.q - 1)) for _ in range(2))
        rows[-1] = [fld.add(fld.mul(a, x), fld.mul(b, y)) for x, y in zip(rows[0], rows[1])]
    return Matrix(fld, rows, ncols)


@given(st.one_of(wide_matrices(), small_matrices()), st.integers(1, 14))
@settings(max_examples=150, deadline=None)
def test_smallest_dependent_matches_naive(m, d_max):
    """``_smallest_dependent``, which answers a pass of size s with
    nrows < s <= n at once, against the naive search, on wide matrices
    (whose passes reach past the row count) and with ``d_max`` below,
    at and above n."""
    try:
        want = naive_min_distance(m, d_max)
    except Infeasible:
        want = None
    assert erasure._smallest_dependent(m, d_max) == want


def test_passes_beyond_the_row_count_take_no_search(monkeypatch):
    """Every 3 columns of a 2-row matrix are dependent, so a distance-3
    search answers pass 3 without the DFS."""
    sizes = []
    search = erasure._dependent_subset

    def recorded(cols, nrows, fld, size, masks=None):
        sizes.append(size)
        return search(cols, nrows, fld, size, masks)

    monkeypatch.setattr(erasure, "_dependent_subset", recorded)
    h = Matrix(FiniteField(7), [[1, 1, 1, 1, 1, 1], [0, 1, 2, 3, 4, 5]])
    assert min_distance(h) == 3
    assert sizes == [1, 2]


def equivalent_check(m, rng):
    """m with its rows and columns permuted and each column scaled by a
    nonzero factor, all drawn from ``rng``: a check of an equivalent code,
    with the same distance."""
    fld = m.field
    rows = rng.sample(m.rows, m.nrows)
    cols = [(j, rng.randrange(1, fld.q)) for j in rng.sample(range(m.ncols), m.ncols)]
    return Matrix(fld, [[fld.mul(c, r[j]) for j, c in cols] for r in rows], m.ncols)


@given(st.one_of(wide_matrices(), small_matrices()), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_min_distance_ignores_row_and_column_order(m, rng):
    """The search orders rows and columns itself, so an equivalent check in
    any order has the distance the naive search finds on the original."""
    want = distance_or_none(naive_min_distance, m)
    assert distance_or_none(min_distance, equivalent_check(m, rng)) == want


@given(st.one_of(st.sampled_from([fixtures.example1_check(), fixtures.example2_check()]),
                 layouts().map(parity_check_matrix)),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_min_distance_ignores_order_on_lrc_checks(h, rng):
    """The published checks (distance 5) and the structural ones, in a
    random equivalent order."""
    assert min_distance(equivalent_check(h, rng)) == min_distance(h)


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_masked_passes_take_rows_sparsest_first_and_columns_by_leading_row(monkeypatch, seed):
    """From pass 4 on, where the circuit rule runs, the keys' rows are
    sparsest first and the leading rows of the keys do not decrease, so
    the columns of each local row sit together: on the published example1
    check, whose columns are not grouped so, and on shuffled copies."""
    calls = []
    search = erasure._dependent_subset

    def recorded(cols, nrows, fld, size, masks=None):
        calls.append((size, cols[:], masks))
        return search(cols, nrows, fld, size, masks)

    monkeypatch.setattr(erasure, "_dependent_subset", recorded)
    h = fixtures.example1_check()
    if seed is not None:
        h = equivalent_check(h, random.Random(seed))
    assert min_distance(h) == 5
    assert [size for size, _, _ in calls] == [1, 2, 3, 4, 5]
    for _, cols, masks in calls[3:]:
        leads = [key.index(1) for key in cols]
        assert leads == sorted(leads)
        weights = [bin(row).count("1") for row in masks[1]]
        assert weights == sorted(weights)


@pytest.mark.parametrize("p, m", [(11, 1), (79, 1), (2, 8), (131, 1)])
def test_first_later_and_unpickled_searches_agree(p, m):
    """A field builds its search keys' tables on its first search: that
    search, a later one and one on the field rebuilt by unpickling (the
    shared instance of ``algebra._shared_field``) find the same distance
    on seeded sparse matrices, and the published example1 check, taken
    into a fresh F_11, still has distance 5."""
    fld = FiniteField(p, m)
    assert "sub_key" not in vars(fld)
    rng = random.Random(p * m)
    for nrows, ncols in [(3, 7), (4, 9), (5, 10)]:
        h = Matrix(fld, [[rng.randrange(fld.q) if rng.random() < 0.6 else 0
                          for _ in range(ncols)] for _ in range(nrows)])
        first = min_distance(h)
        rebuilt = pickle.loads(pickle.dumps(h))
        assert rebuilt.field is not fld and rebuilt.field == fld
        assert min_distance(h) == min_distance(rebuilt) == first == naive_min_distance(h)
    if (p, m) == (11, 1):
        assert min_distance(Matrix(FiniteField(11), fixtures.example1_check().rows)) == 5


@given(layouts())
@settings(max_examples=40, deadline=None)
def test_min_distance_matches_naive_on_structural_checks(lay):
    """The structural parity checks are sparse: one local row per block
    plus h global rows, so most candidates are zero at a pivot's row and
    pass the search's reduction unchanged."""
    assume(lay.n <= 13)  # the naive search ranks every subset up to d
    h = parity_check_matrix(lay)
    assert min_distance(h) == naive_min_distance(h)


def brute_force_passes(m):
    """(s, some s columns of m are dependent) for s = 1, 2, ... up to the
    first dependent size, by the rank of every s-subset."""
    for s in range(1, m.ncols + 1):
        dependent = any(m.columns(sub).rank() < s
                        for sub in itertools.combinations(range(m.ncols), s))
        yield s, dependent
        if dependent:  # later passes would break the search's premise
            return


def search_passes(m, with_masks):
    """``_dependent_subset`` on each pass that ``brute_force_passes`` runs,
    with or without the support masks."""
    cols = [m.field.vec_key(m.column(j)) for j in range(m.ncols)]
    masks = erasure._support_masks(cols) if with_masks else None
    return [erasure._dependent_subset(cols, m.nrows, m.field, s, masks)
            for s, _ in brute_force_passes(m)]


@given(small_matrices(), st.booleans())
@example(MDS_CHECKS[0], False)
@example(MDS_CHECKS[0], True)
@settings(max_examples=60, deadline=None)
def test_dependent_subset_matches_brute_force(m, with_masks):
    """Every pass up to the distance, run on its own, with the circuit
    rule's support masks and without: the search kernel against "some
    s-subset has rank < s"."""
    assert search_passes(m, with_masks) == [dep for _, dep in brute_force_passes(m)]


@st.composite
def block_checks(draw):
    """A sparse check in the shape of an LRC's: blocks of 2 to 5 columns,
    each with one or two local rows supported on it, plus up to three
    denser rows, n <= 14, with rows and columns then shuffled.  A prefix
    that takes part of a block meets its local rows once, so the circuit
    rule has prefixes to skip."""
    fld = draw(st.sampled_from(DISTANCE_FIELDS))
    sizes = draw(st.lists(st.integers(2, 5), min_size=2, max_size=5)
                 .filter(lambda sizes: sum(sizes) <= 14))
    n = sum(sizes)
    nonzero = st.integers(1, fld.q - 1)
    rows, start = [], 0
    for size in sizes:
        for _ in range(draw(st.integers(1, 2))):
            vals = draw(st.lists(nonzero, min_size=size, max_size=size))
            rows.append([0] * start + vals + [0] * (n - start - size))
        start += size
    dense = st.one_of(st.just(0), nonzero, nonzero)  # a third of the entries zero
    for _ in range(draw(st.integers(0, 3))):
        rows.append(draw(st.lists(dense, min_size=n, max_size=n)))
    rows = draw(st.permutations(rows))
    order = draw(st.permutations(range(n)))
    return Matrix(fld, [[r[j] for j in order] for r in rows], n)


# circuits the circuit rule must keep: a 4-cycle, each row met twice,
# which a rule that still counts rows met twice would drop; and the
# 4-circuit {0, 2, 3, 6}, whose prefix {0, 2} meets rows 0..2 once, met
# then only by columns 3 and 6 together, which a rule short of one column
# would drop
CIRCUIT_CHECKS = [
    Matrix(FiniteField(5), [[1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]]),
    Matrix(FiniteField(5), [[1, 1, 0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 1, 1, 1, 1],
                            [0, 0, 1, 0, 2, 1, 1, 2], [0, 1, 0, 0, 0, 0, 0, 0],
                            [0, 0, 0, 0, 0, 1, 0, 1], [0, 0, 0, 1, 0, 0, 1, 1]]),
]


@given(block_checks())
@example(CIRCUIT_CHECKS[0])
@example(CIRCUIT_CHECKS[1])
@settings(max_examples=150, deadline=None)
def test_circuit_rule_keeps_every_circuit(m):
    """On block-structured sparse checks, where the circuit rule skips
    prefixes: ``min_distance`` against ``naive_min_distance``, and each
    pass with the support masks against brute force."""
    assert search_passes(m, True) == [dep for _, dep in brute_force_passes(m)]
    assert distance_or_none(min_distance, m) == distance_or_none(naive_min_distance, m)


# the linear decoder's keys of all five kinds: bytes on prime fields (F_127
# at the lanes' 2p - 2 = 252 edge) and in characteristic 2, tuples on F_131,
# on the odd extension F_9 and in characteristic 2 past q = 256 (F_512)
SOLVE_FIELDS = DISTANCE_FIELDS + [FiniteField(127), FiniteField(2, 9)]


@st.composite
def sparse_erasures(draw):
    """A mostly-zero matrix up to 6x11 over one of ``SOLVE_FIELDS`` with a
    zero column and a last column that combines two others, so that
    dependent erasures are not all caught by counting the rows they touch;
    and erased coordinates, repeats allowed."""
    fld = draw(st.sampled_from(SOLVE_FIELDS))
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(2, 10))
    entry = st.one_of(st.just(0), st.just(0), st.integers(1, fld.q - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    zeroed = draw(st.integers(0, ncols - 1))
    a, b = draw(st.integers(0, ncols - 1)), draw(st.integers(0, ncols - 1))
    s, t = draw(st.integers(1, fld.q - 1)), draw(st.integers(1, fld.q - 1))
    for row in rows:
        row[zeroed] = 0
        row.append(fld.sub(fld.mul(s, row[a]), fld.mul(t, row[b])))
    coords = draw(st.lists(st.integers(0, ncols), max_size=ncols + 3))
    return Matrix(fld, rows, ncols + 1), coords


# column 2 is column 0 minus column 1; reducing it against the pivot of
# column 0 fills in row 1, the pivot row of column 1, which column 2 does
# not touch
FILL_IN = Matrix(FiniteField(5), [[1, 0, 1], [1, 1, 0], [0, 1, 4]])


def outcome(decode, *args):
    """A decoder's word or None, or Inconsistent when it raises that."""
    try:
        return decode(*args)
    except Inconsistent:
        return Inconsistent


@given(sparse_erasures(), st.randoms(use_true_random=False))
@example((FILL_IN, [0, 1, 2]), random.Random(0))
@settings(max_examples=200, deadline=None)
def test_recoverable_matches_rank_on_sparse_matrices(case, rng):
    h, coords = case
    assert recoverable(h, coords) == independent(h, coords)
    # decode_linear against the dense solve, on a random codeword that may
    # be corrupted at one survivor
    fld = h.field
    word = [0] * h.ncols
    for v in h.nullspace().rows:
        c = rng.randrange(fld.q)
        word = [fld.add(x, fld.mul(c, y)) for x, y in zip(word, v)]
    survivors = [j for j in range(h.ncols) if j not in coords]
    if survivors and rng.random() < 0.5:
        j = rng.choice(survivors)
        word[j] = fld.add(word[j], rng.randrange(1, fld.q))
    received = [None if j in coords else x for j, x in enumerate(word)]
    code = LinearCode(k=h.ncols - h.rank(), check=h)
    assert (outcome(decode_linear, code, coords, received)
            == outcome(dense_decode, h, coords, received))


@st.composite
def grouped_checks(draw):
    """A parity check whose rows share supports, as the structural H's
    do: over shared columns 0..m-1 plus one private column per row (column
    m + i, nonzero in row i alone, if at all), each row is zero, repeats
    the shared support of the row before with new values, or is random
    there.  So
    there are zero rows, repeated supports and rows that differ only in
    their private columns.  With erased coordinates, repeats allowed."""
    fld = draw(st.sampled_from([FiniteField(2), FiniteField(7), FiniteField(79),
                                FiniteField(2, 2), FiniteField(3, 2)]))
    nrows, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    nonzero = st.integers(1, fld.q - 1)
    rows, shared = [], []
    for i in range(nrows):
        kind = draw(st.sampled_from(["zero", "repeat", "random"] if i else ["zero", "random"]))
        if kind == "random":
            shared = [j for j in range(m) if draw(st.booleans())]
        elif kind == "zero":
            shared = []
        row = [0] * (m + nrows)
        for j in shared:
            row[j] = draw(nonzero)
        if kind != "zero" and draw(st.booleans()):
            row[m + i] = draw(nonzero)
        rows.append(row)
    coords = draw(st.lists(st.integers(0, m + nrows - 1), max_size=m + nrows))
    return Matrix(fld, rows, m + nrows), coords


@given(grouped_checks(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_decode_linear_matches_dense_solve_on_grouped_rows(case, rng):
    """The row plan's syndrome gives the dense solve's word, None or
    Inconsistent, on codewords and on codewords with one corrupted
    survivor."""
    h, coords = case
    fld = h.field
    word = [0] * h.ncols
    for v in h.nullspace().rows:
        c = rng.randrange(fld.q)
        word = [fld.add(x, fld.mul(c, y)) for x, y in zip(word, v)]
    survivors = [j for j in range(h.ncols) if j not in coords]
    if survivors and rng.random() < 0.5:
        j = rng.choice(survivors)
        word[j] = fld.add(word[j], rng.randrange(1, fld.q))
    received = [None if j in coords else x for j, x in enumerate(word)]
    code = LinearCode(k=h.ncols - h.rank(), check=h)
    assert (outcome(decode_linear, code, coords, received)
            == outcome(dense_decode, h, coords, received))


def test_worker_runs_pickle_a_matrix_with_its_caches_filled():
    """decode_linear fills the parity check's cached supports and row
    plan; a sweep on the same H must give the same report for any
    worker count."""
    lay = fixtures.example1_layout()
    code = build_code(lay)
    word = encode(lay, [i % 11 for i in range(lay.params.k)])
    assert decode_linear(code, [0, 5], zero_fill(word, [0, 5])) == word
    h = code.check
    assert h._supports is not None
    arr = gsd.basic_array(lay, code)
    shape = dict(y=1, gamma=3, mode="sampled", count=80, seed=9)
    assert gsd.check_array(arr, workers=2, **shape) == gsd.check_array(arr, workers=1, **shape)


def test_min_distance_starts_no_pool(monkeypatch, example1_check):
    """The search runs in one process whatever ``workers`` says."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", no_pool)
    for workers in (2, 1, 0):
        assert min_distance(example1_check, workers=workers) == 5


def test_default_bound_matches_the_rank_bound():
    """The default d_max, min(n, nrows) + 1, against the rank(H) + 1 it
    replaces: the same distance, or the same Infeasible message."""
    rng = random.Random(14)
    fields = [F2, FiniteField(3), FiniteField(7), FiniteField(2, 2), FiniteField(3, 2)]

    def outcome(m, **kw):
        try:
            return min_distance(m, **kw)
        except Infeasible as exc:
            return str(exc)

    for _ in range(3000):
        fld = rng.choice(fields)
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 8)
        rows = [[rng.choice((0, rng.randrange(fld.q))) for _ in range(ncols)]
                for _ in range(nrows)]
        m = Matrix(fld, rows, ncols)
        assert outcome(m) == outcome(m, d_max=m.rank() + 1), m.rows


def test_default_bound_takes_no_rank(monkeypatch, example1_check):
    def no_rref(self):
        raise AssertionError("Matrix.rref was called")

    monkeypatch.setattr(Matrix, "rref", no_rref)
    assert min_distance(example1_check) == 5
    with pytest.raises(Infeasible, match="size <= 3"):
        min_distance(Matrix(F2, [[1, 0], [0, 1], [1, 1]]))  # independent columns


def test_min_distance_guard(monkeypatch):
    rng = random.Random(2)
    m = Matrix(F11, [[rng.randrange(11) for _ in range(30)] for _ in range(10)])
    monkeypatch.setattr(erasure, "NODE_GUARD", 10)
    with pytest.raises(Infeasible):
        min_distance(m)


def test_min_distance_rejects_bound_below_one():
    h = Matrix(F2, [[1, 1, 1]])
    for d_max in (0, -3):
        with pytest.raises(InvalidParameter):
            min_distance(h, d_max=d_max)


@pytest.mark.parametrize("d_max", [4.5, 3.0, True, "3"])
def test_min_distance_rejects_a_bound_that_is_not_an_int(d_max):
    with pytest.raises(InvalidParameter, match="d_max must be an int"):
        min_distance(Matrix(F2, [[1, 0, 1], [0, 1, 1]]), d_max=d_max)


def test_min_distance_dmax_sentinel():
    h = Matrix(F2, [[1, 0, 1], [0, 1, 1]])
    # true distance 3; a too-small bound raises instead of lying
    with pytest.raises(Infeasible):
        min_distance(h, d_max=2)
    assert min_distance(h, d_max=3) == 3


# ----------------------------------------------------------------------
# patterns


@given(layouts(), st.data())
@settings(max_examples=150, deadline=None)
def test_pattern_coords_match_a_full_scan(lay, data):
    # any subset of any set, so empty, partial and full sets all occur
    per_set = [data.draw(st.lists(st.sampled_from(a), unique=True, max_size=len(a)))
               for a in lay.sets]
    globs = data.draw(st.lists(st.sampled_from(lay.s_points), unique=True)
                      if lay.s_points else st.just([]))
    pat = ErasurePattern.make(lay, per_set, globs)
    assert pat.coords(lay) == full_scan_coords(pat, lay)


def test_pattern_coord_round_trip(example1_layout):
    lay = example1_layout
    # all of block 0, position 2 of block 1 and the first global point
    pat = ErasurePattern.make(lay, {0: lay.sets[0], 1: [lay.sets[1][2]]}, [lay.s_points[0]])
    assert pat.coords(lay) == (0, 1, 2, 5, 21)
