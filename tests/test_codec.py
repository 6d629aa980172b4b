"""Differential tests of the codec that runs from the cached structural
parity check: the systematic encoder against the two-step polynomial
reference (``polyref``), and the structured decoder against the linear
oracle and the original word, on fixed codes and on small random layouts.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from lrckit import algebra, fixtures
from lrckit.algebra import FiniteField
from lrckit.designs import ag_steiner
from lrckit.erasure import ErasurePattern, decode_linear, decode_structured, pattern_admissible
from lrckit.errors import Inconsistent, NotAdmissible
from lrckit.lrc import (
    EvaluationLayout,
    LrcParams,
    build_code,
    build_layout,
    encode,
    generator_matrix,
    parity_check_matrix,
)
from polyref import poly_encode

FIELDS = (
    FiniteField(5),
    FiniteField(7),
    FiniteField(2, 3),
    FiniteField(3, 2),
    FiniteField(11),
    FiniteField(2, 4),
)


@st.composite
def layouts(draw):
    """A layout over F_5..F_16 with ell <= 4 and h <= 3.  Its evaluation
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
def codewords(draw):
    """(layout, information, codeword, erasure pattern): up to two heavy
    sets, light erasures elsewhere, and erased global points, mostly within
    the h+delta-1 budget of an admissible pattern."""
    lay = draw(layouts())
    p = lay.params
    info = draw(st.lists(st.integers(0, lay.field.q - 1), min_size=p.k, max_size=p.k))
    budget = p.h + p.delta - 1
    heavy = draw(st.permutations(range(p.ell + 1)))[: draw(st.integers(0, 2))]
    per_set, union = [], set()
    for b, a in enumerate(lay.sets):
        if b in heavy:
            # points already erased elsewhere first, so that two heavy
            # sets can share erasures and fit the budget together
            order = sorted(draw(st.permutations(a)), key=lambda x: x not in union)
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
    assert "check_rows" not in vars(lay)  # synthesised below, under the patch

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
