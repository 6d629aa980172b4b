"""Differential tests of the codec that runs from the cached structural
parity check: the systematic encoder against the two-step polynomial
reference (``polyref``), and the structured decoder against the linear
oracle, the two-pass reference (``decoderef``) and the original word, on
fixed codes and on small random layouts.
"""

import bisect
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lrckit import algebra, fixtures
from lrckit.algebra import FiniteField
from lrckit.designs import ag_steiner
from lrckit.erasure import (
    ErasurePattern,
    decode_linear,
    decode_structured,
    pattern_admissible,
    recoverable,
)
from lrckit.errors import Inconsistent, InvalidParameter, NotAdmissible
from lrckit.lrc import (
    EvaluationLayout,
    LrcParams,
    build_code,
    build_layout,
    encode,
    generator_matrix,
    parity_check_matrix,
)
from decoderef import erased_coords, heavy_exclusive, two_pass_decode
from polyref import poly_encode
from rowref import check_rows, row_encode

FIELDS = (
    FiniteField(5),
    FiniteField(7),
    FiniteField(2, 3),
    FiniteField(3, 2),
    FiniteField(11),
    FiniteField(2, 4),
    FiniteField(2, 8),
)


@st.composite
def layouts(draw):
    """A layout over F_5..F_256 with ell <= 4 and h <= 3.  Its evaluation
    sets are windows of one shuffled point list, ``step`` apart, so they
    share points as design blocks do, or none when the list is long."""
    fld = draw(st.sampled_from(FIELDS))
    h = draw(st.integers(0, 3))
    room = fld.q - h
    delta = draw(st.integers(2, min(3, room)))
    r = draw(st.integers(1, min(3, room - delta + 1)))
    ell = draw(st.integers(1, 4))
    v = draw(st.integers(1, r))
    order = draw(st.permutations(range(fld.q)))
    s_points, pool = order[:h], order[h:]
    step = draw(st.integers(1, r + delta - 1))
    sets = []
    for i in range(ell + 1):
        size = r + delta - 1 if i < ell else v + delta - 1
        sets.append(tuple(pool[(i * step + j) % len(pool)] for j in range(size)))
    return EvaluationLayout(fld, LrcParams(r=r, delta=delta, ell=ell, v=v, h=h), sets, s_points)


@st.composite
def concurrent_layouts(draw):
    """A layout over F_7..F_256 whose first three sets meet in one common
    point and are otherwise disjoint, as three lines of a plane through a
    point do, with ell <= 3 and h >= 2*delta - 1: three heavy sets, each
    erasing the common point and delta - 1 points of its own, then fit the
    h+delta-1 budget.  A fourth set, if any, is a window of the points
    outside S.  ``layouts()`` cannot yield such a pattern."""
    fld = draw(st.sampled_from([f for f in FIELDS if f.q >= 7]))
    delta = draw(st.integers(2, 3 if fld.q >= 12 else 2))
    h = draw(st.integers(2 * delta - 1, min(2 * delta + 1, fld.q - 3 * delta + 2)))
    room = fld.q - h - 1  # for the three sets past their common point
    r = draw(st.integers(1, min(3, (room - delta + 1) // 2 - delta + 2)))
    ell = draw(st.integers(2, 3 if 3 * (r + delta - 2) <= room else 2))
    v = draw(st.integers(1, r if ell == 3 else min(r, room - 2 * (r + delta - 2) - delta + 2)))
    sizes = [r + delta - 1] * ell + [v + delta - 1]
    order = draw(st.permutations(range(fld.q)))
    s_points, common, rest = order[:h], order[h], order[h + 1:]
    sets = []
    for size in sizes[:3]:
        own, rest = rest[:size - 1], rest[size - 1:]
        sets.append(draw(st.permutations([common, *own])))
    sets += [draw(st.permutations(order[h:]))[:size] for size in sizes[3:]]
    return EvaluationLayout(fld, LrcParams(r=r, delta=delta, ell=ell, v=v, h=h), sets, s_points)


@st.composite
def codewords(draw):
    """(layout, information, codeword, erasure pattern): up to three heavy
    sets, light erasures elsewhere, and erased global points, mostly within
    the h+delta-1 budget of an admissible pattern.  With three, a point can
    lie in all of them, and a set's exclusive points depend on both of the
    others.  One layout in four is ag13's, whose sets are the lines of
    AG(2,3), and one in four from ``concurrent_layouts()``, whose three
    sets that meet are then the heavy ones: on those three heavy sets can
    be admissible, which they never are on ``layouts()``."""
    kind = draw(st.integers(0, 3))
    lay = (fixtures.ag13_layout() if kind == 0 else draw(concurrent_layouts()) if kind == 1
           else draw(layouts()))
    p = lay.params
    info = draw(st.lists(st.integers(0, lay.field.q - 1), min_size=p.k, max_size=p.k))
    budget = p.h + p.delta - 1
    # on concurrent layouts the heavy sets are the three that meet
    heavy = (draw(st.permutations(range(3))) if kind == 1
             else draw(st.permutations(range(p.ell + 1)))[: draw(st.integers(0, 3))])
    shared = {x for t, u in itertools.combinations(heavy, 2)
              for x in set(lay.sets[t]) & set(lay.sets[u])}
    per_set, union = [], set()
    for b, a in enumerate(lay.sets):
        if b in heavy:
            # points already erased elsewhere first, then those of other
            # heavy sets, so that heavy sets can share erasures and fit the
            # budget together
            order = sorted(draw(st.permutations(a)), key=lambda x: (x not in union,
                                                                    x not in shared))
            pts = order[: draw(st.integers(p.delta, max(p.delta, min(len(a), budget))))]
            union.update(pts)
        else:
            pts = draw(st.permutations(a))[: draw(st.integers(0, p.delta - 1))]
        per_set.append(pts)
    spare = min(p.h, max(0, budget - len(union)))
    globs = draw(st.permutations(lay.s_points))[: draw(st.integers(0, spare))]
    return lay, info, encode(lay, info), ErasurePattern.make(lay, per_set, globs)


def mask(word, coords, fill=None):
    cs = set(coords)
    return [fill if c in cs else x for c, x in enumerate(word)]


@settings(max_examples=120, deadline=None)
@given(layouts(), st.data())
def test_encode_matches_polynomial_reference(lay, data):
    q, k = lay.field.q, lay.params.k
    info = data.draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k))
    word = encode(lay, info)
    assert word == poly_encode(lay, info)
    assert not any(parity_check_matrix(lay).mul_vec(word))


@settings(max_examples=40, deadline=None)
@given(layouts())
def test_generator_rows_are_reference_encodings(lay):
    k = lay.params.k
    units = [[int(i == u) for i in range(k)] for u in range(k)]
    assert generator_matrix(lay).rows == [poly_encode(lay, e) for e in units]


@settings(max_examples=200, deadline=None)
@given(codewords())
def test_structured_equals_linear_equals_original(case):
    lay, _, word, pat = case
    coords = pat.coords(lay)
    if not pattern_admissible(lay, pat).admissible:
        with pytest.raises(NotAdmissible):
            decode_structured(lay, mask(word, coords), pat)
        return
    structured = decode_structured(lay, mask(word, coords), pat)
    linear = decode_linear(build_code(lay), coords, mask(word, coords, 0))
    assert structured == linear == word


@settings(max_examples=200, deadline=None)
@given(codewords(), st.data())
def test_corrupted_survivor(case, data):
    """One corrupted survivor is detected whenever the survivors no longer
    extend to any codeword (the linear oracle raises); when they still do,
    both decoders return that codeword."""
    lay, _, word, pat = case
    coords = pat.coords(lay)
    survivors = [c for c in range(lay.n) if c not in set(coords)]
    if not pattern_admissible(lay, pat).admissible or not survivors:
        return
    c = data.draw(st.sampled_from(survivors))
    bad = list(word)
    bad[c] = lay.field.add(bad[c], data.draw(st.integers(1, lay.field.q - 1)))
    try:
        linear = decode_linear(build_code(lay), coords, mask(bad, coords, 0))
    except Inconsistent:
        with pytest.raises(Inconsistent):
            decode_structured(lay, mask(bad, coords), pat)
        return
    assert decode_structured(lay, mask(bad, coords), pat) == linear


@settings(max_examples=200, deadline=None)
@given(codewords())
def test_admissibility_matches_the_definitions(case):
    """The admissibility verdict and the exclusive points it reports are
    those of the reference, which reads them off the definitions; with
    three heavy sets a point can lie in all of them.  So are the union
    size (the erased points of the heavy sets), the budget h + delta - 1,
    and the erased coordinates per touched set, in set order, that the
    decoder reads: the reference's, grouped by set."""
    lay, _, _, pat = case
    p = lay.params
    rep = pattern_admissible(lay, pat)
    assert (rep.admissible, rep.exclusive_points) == heavy_exclusive(lay, pat)
    assert rep.heavy_sets == list(rep.exclusive_points)
    heavy = [t for t, lost in enumerate(pat.sets) if len(lost) >= p.delta]
    assert rep.union_size == len(set().union(*(pat.sets[t] for t in heavy)))
    assert rep.budget == p.h + p.delta - 1
    coords = [c for c in erased_coords(lay, pat) if c < lay.global_offset]
    by_set = {b: list(cs) for b, cs in
              itertools.groupby(coords, lambda c: bisect.bisect_right(lay.block_offsets, c) - 1)}
    assert list(rep.erased) == list(by_set)
    assert {b: sorted(cs) for b, cs in rep.erased.items()} == by_set


def test_three_heavy_sets_through_one_point(ag13_layout, ag13_code):
    """Three lines of AG(2,3) through a point P, each erasing P and one
    point of its own, with no or one erased global point: admissible, with
    every point but P exclusive.  The structured decoder, the two-pass
    reference and the linear oracle return the word, and with a survivor
    corrupted both structured decoders give the same word or error."""
    lay, fld = ag13_layout, ag13_layout.field
    rng = random.Random(3)
    word = encode(lay, [rng.randrange(fld.q) for _ in range(lay.params.k)])
    checked = 0
    for x in range(9):  # the points of the plane
        lines = [b for b, a in enumerate(lay.sets) if x in a]
        assert len(lines) == 4
        for heavy in itertools.combinations(lines, 3):
            per_set = {t: [x, rng.choice([y for y in lay.sets[t] if y != x])] for t in heavy}
            for globs in ([], [rng.choice(lay.s_points)]):
                pat = ErasurePattern.make(lay, per_set, globs)
                rep = pattern_admissible(lay, pat)
                assert rep.admissible
                assert rep.exclusive_points == {t: [y for y in lay.sets[t] if y != x]
                                                for t in heavy}
                coords = pat.coords(lay)
                received = mask(word, coords)
                assert decode_structured(lay, received, pat) == word
                assert two_pass_decode(lay, received, pat) == word
                assert decode_linear(ag13_code, coords, mask(word, coords, 0)) == word
                c = rng.choice([c for c in range(lay.n) if c not in set(coords)])
                received[c] = fld.add(received[c], 1)
                assert (outcome(decode_structured, lay, received, pat)
                        == outcome(two_pass_decode, lay, received, pat))
                checked += 1
    assert checked == 72


@pytest.mark.parametrize("fld, r, delta", [(FiniteField(2, 3), 1, 2), (FiniteField(2, 4), 2, 3),
                                           (FiniteField(2, 8), 3, 2)], ids=repr)
def test_three_heavy_sets_through_one_point_in_characteristic_2(fld, r, delta):
    """Three sets through the point 0, otherwise disjoint, with 0 at
    position t of set t, h = 2*delta - 1, and each heavy set erasing 0
    and delta - 1 points of its own, which fills the budget: the
    structured decoder, the two-pass reference and the linear oracle
    return the word, and with a survivor corrupted both structured
    decoders give the same word or error."""
    h = 2 * delta - 1
    own = iter(range(1, fld.q))
    sets = []
    for t in range(3):
        a = [next(own) for _ in range(r + delta - 2)]
        sets.append(a[:t] + [0] + a[t:])
    lay = EvaluationLayout(fld, LrcParams(r=r, delta=delta, ell=2, v=r, h=h), sets,
                           range(fld.q - 1, fld.q - 1 - h, -1))
    code = build_code(lay)
    rng = random.Random(fld.q)
    word = encode(lay, [rng.randrange(fld.q) for _ in range(lay.params.k)])
    for _ in range(10):
        per_set = {t: [0, *rng.sample([x for x in a if x], delta - 1)] for t, a in enumerate(sets)}
        pat = ErasurePattern.make(lay, per_set)
        assert pattern_admissible(lay, pat).admissible
        coords = pat.coords(lay)
        received = mask(word, coords)
        assert decode_structured(lay, received, pat) == word
        assert two_pass_decode(lay, received, pat) == word
        assert decode_linear(code, coords, mask(word, coords, 0)) == word
        c = rng.choice([c for c in range(lay.n) if c not in set(coords)])
        received[c] = fld.add(received[c], 1)
        assert (outcome(decode_structured, lay, received, pat)
                == outcome(two_pass_decode, lay, received, pat))


def _f16_layout():
    return build_layout(LrcParams(r=2, delta=2, ell=11, v=2, h=4), FiniteField(2, 4),
                        ag_steiner(3, 2))


@pytest.mark.parametrize("make, words", [
    (fixtures.example1_layout, 20),
    (fixtures.ag13_layout, 20),
    (_f16_layout, 20),
    (fixtures.example3_layout, 1),
])
def test_codewords_match_reference_on_fixed_codes(make, words):
    lay = make()
    rng = random.Random(lay.n)
    for _ in range(words):
        info = [rng.randrange(lay.field.q) for _ in range(lay.params.k)]
        assert encode(lay, info) == poly_encode(lay, info)


@pytest.mark.parametrize("make", [fixtures.example1_layout, fixtures.ag13_layout, _f16_layout])
def test_codec_builds_no_polynomial(make, monkeypatch):
    """Encoding, the parity check synthesis and structured decoding with one
    or two heavy sets run on scalars only."""
    lay = make()
    assert "check_groups" not in vars(lay)  # synthesised below, under the patch

    def no_poly(self, *args, **kwargs):
        raise AssertionError("a Poly was built")

    monkeypatch.setattr(algebra.Poly, "__init__", no_poly)
    p = lay.params
    rng = random.Random(lay.n)
    decoded = 0
    while decoded < 20:
        word = encode(lay, [rng.randrange(lay.field.q) for _ in range(p.k)])
        heavy = rng.sample(range(p.ell + 1), rng.randint(1, 2))
        per_set = [rng.sample(a, rng.randint(p.delta, len(a)) if b in heavy
                              else rng.randint(0, p.delta - 1))
                   for b, a in enumerate(lay.sets)]
        pat = ErasurePattern.make(lay, per_set, rng.sample(lay.s_points, rng.randint(0, p.h)))
        if pattern_admissible(lay, pat).admissible:
            assert decode_structured(lay, mask(word, pat.coords(lay)), pat) == word
            decoded += 1


def global_row_patterns(lay, rng):
    """Admissible patterns that make the structured decoder read the known
    part of every number of global rows, 0 through h, each with the number
    it reads: light erasures only, then one or two heavy sets with 0, 1 or
    2 erased global points and every total of erased points that fits.  A
    pattern reads one row per erased heavy point beyond delta - 1."""
    p = lay.params
    nsets = len(lay.sets)
    light = {b: rng.sample(lay.sets[b], p.delta - 1) for b in rng.sample(range(nsets), 3)}
    yield ErasurePattern.make(lay, light, lay.s_points[:1]), 0
    for heavy in (1, 2):
        for g in (0, 1, 2):
            for total in range(heavy * p.delta, p.h + p.delta - g):
                sizes = [total - p.delta * (heavy - 1)] + [p.delta] * (heavy - 1)
                if sizes[0] > len(lay.sets[0]):
                    continue
                while True:
                    blocks = rng.sample(range(nsets - 1), heavy)  # not the truncated set
                    per_set = {b: rng.sample(lay.sets[b], size) for b, size in zip(blocks, sizes)}
                    pat = ErasurePattern.make(lay, per_set, rng.sample(lay.s_points, g))
                    points = set().union(*per_set.values())
                    if pattern_admissible(lay, pat).admissible and len(points) == total:
                        yield pat, total - p.delta + 1
                        break


@pytest.mark.parametrize("make", [fixtures.example3_layout, _f16_layout])
def test_structured_decoder_reads_every_number_of_global_rows(make):
    """Each pattern of ``global_row_patterns`` decodes to the per-row
    reference word, as the linear oracle and the two-pass reference do,
    and with one survivor corrupted all three raise Inconsistent."""
    lay = make()
    rng = random.Random(lay.n)
    info = [rng.randrange(lay.field.q) for _ in range(lay.params.k)]
    word = row_encode(lay, info)
    code = build_code(lay)
    read = set()
    for pat, rows in global_row_patterns(lay, rng):
        coords = pat.coords(lay)
        assert decode_structured(lay, mask(word, coords), pat) == word
        assert two_pass_decode(lay, mask(word, coords), pat) == word
        assert decode_linear(code, coords, mask(word, coords, 0)) == word
        bad = list(word)
        c = rng.choice([c for c in range(lay.n) if c not in set(coords)])
        bad[c] = lay.field.add(bad[c], 1)
        with pytest.raises(Inconsistent):
            decode_structured(lay, mask(bad, coords), pat)
        with pytest.raises(Inconsistent):
            two_pass_decode(lay, mask(bad, coords), pat)
        with pytest.raises(Inconsistent):
            decode_linear(code, coords, mask(bad, coords, 0))
        read.add(rows)
    assert read == set(range(lay.params.h + 1))


@st.composite
def heavy_patterns(draw):
    """(layout, codeword, erasure pattern) on a layout with h >= 1: 0, 1
    or 2 heavy sets whose erased points number delta - 1 more than a
    drawn count of global rows, 1 through h, that the structured decoder
    then reads; light erasures elsewhere, and erased global points within
    what is left of the h+delta-1 budget.  A second heavy set is one that
    meets the first in the most points short of delta, as admissibility
    asks, and erases the shared ones first; where delta from each still
    overshoots the count, the decoder reads more rows, or the pattern is
    not admissible."""
    lay = draw(layouts().filter(lambda lay: lay.params.h))
    p = lay.params
    info = draw(st.lists(st.integers(0, lay.field.q - 1), min_size=p.k, max_size=p.k))
    order = draw(st.permutations(range(p.ell + 1)))
    shared = [len(set(lay.sets[order[0]]) & set(a)) for a in lay.sets]
    second = max((t for t in order[1:] if shared[t] < p.delta), key=shared.__getitem__,
                 default=None)
    heavy = [order[0], second][: draw(st.sampled_from([0, 1, 2, 2])) if second is not None
                               else draw(st.integers(0, 1))]
    total = draw(st.integers(1, p.h)) + p.delta - 1 if heavy else 0
    per_set, union = {}, []
    for t in heavy:
        pts = sorted(draw(st.permutations(lay.sets[t])), key=lambda x: x not in union)
        per_set[t] = pts[: p.delta]
        union += [x for x in per_set[t] if x not in union]
    for t in heavy:
        more = [x for x in lay.sets[t] if x not in per_set[t]][: max(0, total - len(union))]
        per_set[t] += more
        union += [x for x in more if x not in union]
    for b, a in enumerate(lay.sets):
        if b not in per_set:
            per_set[b] = draw(st.permutations(a))[: draw(st.integers(0, p.delta - 1))]
    spare = max(0, p.h + p.delta - 1 - len(union))
    globs = draw(st.permutations(lay.s_points))[: draw(st.integers(0, min(p.h, spare)))]
    return lay, encode(lay, info), ErasurePattern.make(lay, per_set, globs)


def outcome(decoder, lay, received, pat):
    """The decoded word, or the class of the error the decoder raised."""
    try:
        return decoder(lay, received, pat)
    except (Inconsistent, NotAdmissible, InvalidParameter) as err:
        return type(err)


@settings(max_examples=300, deadline=None)
@given(heavy_patterns(), st.data())
def test_structured_decoder_matches_two_pass_reference(case, data):
    """The decoder's one encoder pass gives the two-pass reference's word,
    or its error, on the survivors and on the survivors with one of them
    perturbed.  The perturbed ones raise Inconsistent in both whenever the
    erased coordinates and the perturbed one are independent columns of
    H, so that no codeword agrees with them."""
    lay, word, pat = case
    coords = pat.coords(lay)
    received = mask(word, coords)
    want = outcome(two_pass_decode, lay, received, pat)
    assert outcome(decode_structured, lay, received, pat) == want
    assert want in (word, NotAdmissible)
    kept = [c for c in range(lay.n) if c not in set(coords)]
    if not kept:
        return
    c = data.draw(st.sampled_from(kept))
    received[c] = lay.field.add(received[c], data.draw(st.integers(1, lay.field.q - 1)))
    want = outcome(two_pass_decode, lay, received, pat)
    assert outcome(decode_structured, lay, received, pat) == want
    if want is not NotAdmissible and recoverable(build_code(lay).check, coords + (c,)):
        assert want is Inconsistent


def _truncated_layout():
    """AG(2,3) blocks of 3 points over F_11 with v = 1 < r = 2: the last
    block is cut to v+delta-1 = 2 points."""
    return build_layout(LrcParams(r=2, delta=2, ell=3, v=1, h=2), FiniteField(11),
                        ag_steiner(3, 2))


def assert_groups_are_the_rows(lay):
    """The check groups hold the per-row reference rows, in order."""
    rows = [(pivot, tuple(g.coords), coeffs)
            for g in lay.check_groups for pivot, coeffs in zip(g.pivots, g.coeffs)]
    assert rows == [(pivot, tuple(coords), coeffs) for pivot, coords, coeffs in check_rows(lay)]


@settings(max_examples=120, deadline=None)
@given(layouts(), st.data())
def test_encode_matches_per_row_reference(lay, data):
    q, k = lay.field.q, lay.params.k
    assert_groups_are_the_rows(lay)
    info = data.draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k))
    assert encode(lay, info) == row_encode(lay, info)
    assert encode(lay, tuple(info)) == row_encode(lay, info)


@pytest.mark.parametrize("make", [fixtures.example3_layout, _truncated_layout])
def test_encode_matches_per_row_reference_on_truncated_layouts(make):
    lay = make()
    assert len(lay.sets[-1]) < len(lay.sets[0])
    assert_groups_are_the_rows(lay)
    rows = check_rows(lay)
    rng = random.Random(lay.n)
    q, k = lay.field.q, lay.params.k
    for info in ([q - 1] * k, [0] * k, *([rng.randrange(q) for _ in range(k)] for _ in range(5))):
        assert encode(lay, info) == row_encode(lay, info, rows)


def test_example3_check_packs_into_block_and_global_groups():
    """On example3's H ([657,505]/F_79, delta = 3, h = 6) the plan cuts
    the columns at block ends, eight blocks of two local rows to a chunk,
    and the six global rows span the chunks in lanes of their own.  The
    encoder's plan over the information has the same shape."""
    lay = fixtures.example3_layout()
    h = build_code(lay).check
    ends = set(lay.block_offsets) | {lay.n}
    for plan, ncols in ((h.row_plan(), lay.n), (lay.encoder[0], lay.params.k)):
        _, chunks, _, _, spans, _ = plan
        assert [i for i, _ in spans] == list(range(146, 152))  # the global rows
        assert [len(lanes) for *_, lanes in chunks] == [16] * 9 + [2]
        assert chunks[-1][1] == ncols
    assert {lo for lo, *_ in h.row_plan()[1]} <= ends
    assert [len(g.pivots) for g in lay.check_groups] == [2] * 73 + [6]


@pytest.mark.parametrize("bad", ["3", 1.5, 5.0, None, -1, 13])
def test_encode_refuses_symbols_that_are_not_field_elements(ag13_layout, bad):
    info = [0] * ag13_layout.params.k
    info[1] = bad
    with pytest.raises(InvalidParameter, match=r"information symbols must be ints in \[0, 13\)"):
        encode(ag13_layout, info)


@pytest.mark.parametrize("bad", ["3", 1.5, 5.0, 0.0])
def test_decoders_refuse_survivors_that_are_not_ints(ag13_layout, ag13_code, bad):
    """A float or str survivor is refused, not carried into the word: the
    linear decoder once returned a word holding 0.0."""
    lay = ag13_layout
    word = encode(lay, [u % 13 for u in range(lay.params.k)])
    pat = ErasurePattern.make(lay, {0: lay.sets[0][:1]})
    coords = pat.coords(lay)
    received = mask(word, coords)
    received[coords[0] + 1] = bad
    with pytest.raises(InvalidParameter, match=r"received word symbols must be ints in \[0, 13\)"):
        decode_structured(lay, received, pat)
    with pytest.raises(InvalidParameter, match=r"received word symbols must be ints in \[0, 13\)"):
        decode_linear(ag13_code, coords, received)


@pytest.mark.parametrize("make", [fixtures.example1_layout, fixtures.ag13_layout, _f16_layout,
                                  fixtures.example3_layout, _truncated_layout])
def test_block_tables_hold_each_sets_weights_and_rows(make):
    """Block b's table holds, at each point x of A_b, 1 / prod (x - y)
    over the other points y of A_b and S: the barycentric weights of
    ``algebra._distinct_nodes`` on A_b then S, and the root products of
    ``fld.root_product``; and a plan that gives the block's local rows and
    the global rows' coefficients on it.  The last set of example3 and
    of the AG(2,3) layout over F_11 is truncated.  The tables are built on
    first use, one block at a time, and S's weights with them."""
    lay = make()
    fld, glob = lay.field, lay.check_groups[-1]
    assert "block_tables" not in vars(lay) and "s_weights" not in vars(lay)
    rng = random.Random(lay.n)
    for b, a in enumerate(lay.sets):
        weights, plan = lay.block_table(b)
        products = algebra._distinct_nodes(fld, (*a, *lay.s_points))[2][:len(a)]
        assert [*map(fld.inv, weights)] == products
        assert products == [fld.mul(fld.root_product([y for y in a if y != x], x),
                                    fld.root_product(lay.s_points, x)) for x in a]
        group = lay.check_groups[b]
        x_b = [rng.randrange(fld.q) for _ in range(lay.interp_count(b))]
        assert fld.run_plan(plan, x_b) == ([fld.dot(row, x_b) for row in group.coeffs]
                                           + [fld.dot(row[group.info], x_b) for row in glob.coeffs])
        assert lay.block_table(b) is lay.block_table(b)
        assert list(lay.block_tables) == list(range(b + 1))
    assert [*map(fld.inv, lay.s_weights)] == [
        fld.mul(d, fld.root_product([z for z in lay.s_points if z != s], s))
        for s, d in zip(lay.s_points, lay.delta_at_s)]


def test_decoding_builds_the_tables_of_its_heavy_blocks_only():
    """The tables are not part of a layout until a decode reads them, and
    then only those of its heavy sets are built."""
    lay = fixtures.example3_layout()
    rng = random.Random(9)
    word = encode(lay, [rng.randrange(lay.field.q) for _ in range(lay.params.k)])
    assert "block_tables" not in vars(lay)
    pat = ErasurePattern.make(lay, {5: lay.sets[5][:3], 40: lay.sets[40][-3:], 7: lay.sets[7][:1]})
    assert decode_structured(lay, mask(word, pat.coords(lay)), pat) == word
    assert sorted(lay.block_tables) == [5, 40]


def example3_shared_pairs(rng, count):
    """``count`` pairs of example3's sets, lines of PG(2,8) that meet in
    one point, each with its shared point, the point's positions in both,
    and eight points of each of its own."""
    lay = fixtures.example3_layout()
    out = []
    while len(out) < count:
        t, u = sorted(rng.sample(range(len(lay.sets) - 1), 2))  # not the truncated set
        (x,) = set(lay.sets[t]) & set(lay.sets[u])
        out.append((t, u, x, [y for y in lay.sets[t] if y != x], [y for y in lay.sets[u] if y != x]))
    return lay, out


@pytest.mark.parametrize("case", ["erased in one block", "erased in both", "surviving in both"])
def test_shared_points_match_the_two_pass_reference(case):
    """Two heavy sets of example3 that share a point P: P erased in one of
    them, in both, or in neither, with the other erasures on the sets' own
    points, and P, when erased, an information point of the block or not.
    The structured decoder gives the two-pass reference's word, which is
    the codeword, and with one survivor corrupted, its error or word."""
    rng = random.Random(case)
    lay, pairs = example3_shared_pairs(rng, 10)
    fld, cnt = lay.field, lay.interp_count(0)
    word = encode(lay, [rng.randrange(fld.q) for _ in range(lay.params.k)])
    restored = 0
    for t, u, x, own_t, own_u in pairs:
        if case == "erased in one block":
            per_set = {t: [x, *rng.sample(own_t, 2)], u: rng.sample(own_u, 3)}
        elif case == "erased in both":
            per_set = {t: [x, *rng.sample(own_t, 2)], u: [x, *rng.sample(own_u, 2)]}
        else:
            per_set = {t: rng.sample(own_t, 3), u: rng.sample(own_u, 3)}
        pat = ErasurePattern.make(lay, per_set, rng.sample(lay.s_points, 2))
        assert pattern_admissible(lay, pat).admissible
        restored += x in per_set[t] and lay.sets[t].index(x) < cnt
        coords = pat.coords(lay)
        received = mask(word, coords)
        assert decode_structured(lay, received, pat) == two_pass_decode(lay, received, pat) == word
        c = rng.choice([c for c in range(lay.n) if c not in set(coords)])
        received[c] = fld.add(received[c], rng.randrange(1, fld.q))
        assert (outcome(decode_structured, lay, received, pat)
                == outcome(two_pass_decode, lay, received, pat))
    assert restored or case == "surviving in both"


def test_three_heavy_sets_with_their_common_point_erased_in_two(ag13_layout):
    """Three lines of AG(2,3) through P, P erased in two of them and one
    own point in each of those, two own points in the third, which holds P
    as a survivor: the structured decoder and the two-pass reference give
    the word, and with a survivor corrupted, the same word or error; the
    third line's P among the survivors corrupted, at an information point
    or not, as well."""
    lay, fld = ag13_layout, ag13_layout.field
    rng = random.Random(4)
    word = encode(lay, [rng.randrange(fld.q) for _ in range(lay.params.k)])
    for x in range(9):
        lines = [b for b, a in enumerate(lay.sets) if x in a]
        for keep in itertools.combinations(lines, 3):
            own = {t: [y for y in lay.sets[t] if y != x] for t in keep}
            per_set = {keep[0]: [x, own[keep[0]][0]], keep[1]: [x, own[keep[1]][1]],
                       keep[2]: own[keep[2]]}
            pat = ErasurePattern.make(lay, per_set)
            assert pattern_admissible(lay, pat).admissible
            coords = pat.coords(lay)
            received = mask(word, coords)
            assert decode_structured(lay, received, pat) == two_pass_decode(lay, received, pat) == word
            for c in (rng.choice([c for c in range(lay.n) if c not in set(coords)]),
                      lay.point_coords[keep[2]][x]):
                bad = list(received)
                bad[c] = fld.add(bad[c], 1)
                assert (outcome(decode_structured, lay, bad, pat)
                        == outcome(two_pass_decode, lay, bad, pat))


def test_heavy_sets_take_no_quadratic_weights(monkeypatch):
    """One example3 decode with two heavy sets of three erased points and
    two erased global points multiplies at most (|E| + g) (nodes + lost)
    root factors, |E| = 6 erased points, g = 4 global nodes, nodes =
    |U| - delta + 1 = 15 and lost = 6, and evaluates one barycentric sum
    per erased information point: weights taken as products over the
    nodes, O(nodes^2), would pass the bound."""
    lay = fixtures.example3_layout()
    fld, p = lay.field, lay.params
    rng = random.Random(6)
    word = encode(lay, [rng.randrange(fld.q) for _ in range(p.k)])
    t, u, x, own_t, own_u = example3_shared_pairs(rng, 1)[1][0]
    pat = ErasurePattern.make(lay, {t: own_t[:3], u: own_u[-3:]}, lay.s_points[:2])
    received = mask(word, pat.coords(lay))
    assert decode_structured(lay, received, pat) == word  # the layout's caches, built
    factors, sums = [], []
    real_product, real_dot = fld.root_product, fld.inv_dot

    def root_product(roots, y):
        roots = list(roots)
        factors.append(len(roots))
        return real_product(roots, y)

    def inv_dot(ws, nodes, y):
        sums.append(len(nodes))
        return real_dot(ws, nodes, y)

    monkeypatch.setattr(fld, "root_product", root_product)
    monkeypatch.setattr(fld, "inv_dot", inv_dot)
    assert decode_structured(lay, received, pat) == word
    erased, g = 6, 6 - p.delta + 1
    nodes = len(set(lay.sets[t]) | set(lay.sets[u])) - p.delta + 1
    assert nodes == 15
    assert sum(factors) <= (erased + g) * (nodes + erased)
    lost_info = sum(lay.sets[b].index(y) < lay.interp_count(b) for b, pts in
                    ((t, own_t[:3]), (u, own_u[-3:])) for y in pts)
    assert len(sums) == lost_info and max(sums) <= nodes + 1
