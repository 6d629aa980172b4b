import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from lrckit import fixtures, goppa, serial
from lrckit.algebra import FiniteField, Matrix, interpolate
from lrckit.designs import ag_steiner, pg_steiner
from lrckit.erasure import min_distance
from lrckit.errors import FieldTooSmall, Infeasible, InvalidParameter
from lrckit.fixtures import example1_check, example1_permutation
from lrckit.lrc import (
    EvaluationLayout,
    LinearCode,
    LrcParams,
    build_code,
    build_layout,
    encode,
    generator_matrix,
    parity_check_matrix,
    projection_dimension,
    punctured_checks,
    verify_locality,
)
from linref import dense_projection_dimension, dense_punctured_check, random_code, same_row_space
from polyref import block_polys, g_poly
from test_algebra import matrices_with_columns
from test_codec import layouts

F11 = FiniteField(11)
F13 = FiniteField(13)


def max_intersection(layout):
    """The most points two evaluation sets of the layout share."""
    return max(len(set(a) & set(b)) for a, b in itertools.combinations(layout.sets, 2))


def two_block_layout(h=0):
    # two disjoint full blocks over F_11, r=2 delta=2
    params = LrcParams(r=2, delta=2, ell=1, v=2, h=h)
    return EvaluationLayout(F11, params, [(0, 1, 2), (3, 4, 5)], tuple(range(10, 10 - h, -1)))


def test_params_bookkeeping():
    p = LrcParams(r=2, delta=2, ell=6, v=2, h=3)
    assert p.k == 14 and p.n == 24
    with pytest.raises(InvalidParameter):
        LrcParams(r=2, delta=2, ell=6, v=3, h=3)
    with pytest.raises(InvalidParameter):
        LrcParams(r=2, delta=1, ell=6, v=2, h=3)


def test_example1_layout_shape(example1_layout):
    assert len(example1_layout.sets) == 7
    assert all(len(a) == 3 for a in example1_layout.sets)
    assert max_intersection(example1_layout) == 1
    assert example1_layout.n == 24


def test_layout_validation():
    params = LrcParams(r=2, delta=2, ell=1, v=2, h=1)
    with pytest.raises(InvalidParameter):
        EvaluationLayout(F11, params, [(0, 1, 2), (3, 4, 10)], (10,))  # S overlaps
    with pytest.raises(InvalidParameter):
        EvaluationLayout(F11, params, [(0, 1), (3, 4, 5)], (10,))  # size


def test_build_layout_embedding_and_default_s(ag13_layout):
    # design points 0..8 embed to field elements 0..8; S defaults to the
    # last h elements in canonical order
    assert ag13_layout.s_points == (12, 11, 10, 9)
    used = {x for a in ag13_layout.sets for x in a}
    assert used == set(range(9))
    assert max_intersection(ag13_layout) == 1


def test_build_layout_field_too_small():
    params = LrcParams(r=2, delta=2, ell=11, v=2, h=4)
    with pytest.raises(FieldTooSmall):
        build_layout(params, F11, ag_steiner(3, 2))


def test_encode_zero_and_linearity(example1_layout):
    lay = example1_layout
    k = lay.params.k
    assert encode(lay, [0] * k) == [0] * lay.n
    rng = random.Random(7)
    u = [rng.randrange(11) for _ in range(k)]
    w = [rng.randrange(11) for _ in range(k)]
    a, b = rng.randrange(1, 11), rng.randrange(1, 11)
    combo = [F11.add(F11.mul(a, x), F11.mul(b, y)) for x, y in zip(u, w)]
    eu, ew = encode(lay, u), encode(lay, w)
    expect = [F11.add(F11.mul(a, x), F11.mul(b, y)) for x, y in zip(eu, ew)]
    assert encode(lay, combo) == expect


@pytest.mark.parametrize("bad", [11, 13, -1])
def test_encode_rejects_symbols_outside_the_field(example1_layout, bad):
    info = [0] * example1_layout.params.k
    info[5] = bad
    with pytest.raises(InvalidParameter):
        encode(example1_layout, info)


def test_encode_constant_block():
    lay = two_block_layout(h=0)
    word = encode(lay, [5, 5, 0, 0])
    assert word[:3] == [5, 5, 5]
    assert word[3:] == [0, 0, 0]


def test_block_polynomial_consistency(example1_layout):
    # every codeword restricted to a block lies on a polynomial of degree
    # below the information count of the block
    lay = example1_layout
    rng = random.Random(3)
    word = encode(lay, [rng.randrange(11) for _ in range(lay.params.k)])
    for b, a in enumerate(lay.sets):
        cnt = lay.interp_count(b)
        vals = [word[lay.coord(b, t)] for t in range(len(a))]
        f = interpolate(F11, list(zip(a[:cnt], vals[:cnt])))
        assert f.degree < cnt
        assert [f(x) for x in a] == vals


def test_global_parity_scalar_cross_check(example1_layout):
    # recompute each global parity through plain scalar arithmetic
    lay = example1_layout
    rng = random.Random(4)
    info = [rng.randrange(11) for _ in range(lay.params.k)]
    word = encode(lay, info)
    polys = block_polys(lay, info)
    for i, s in enumerate(lay.s_points):
        g_at = [g_poly(lay, b)(s) for b in range(len(lay.sets))]
        delta = 1
        for v in g_at:
            delta = F11.mul(delta, v)
        acc = 0
        for b, f in enumerate(polys):
            acc = F11.add(acc, F11.mul(f(s), F11.div(delta, g_at[b])))
        assert word[lay.global_coord(i)] == acc


def test_generator_and_check_matrices(example1_layout):
    g = generator_matrix(example1_layout)
    h = parity_check_matrix(example1_layout)
    assert (g.nrows, g.ncols) == (14, 24) and g.rank() == 14
    assert (h.nrows, h.ncols) == (10, 24) and h.rank() == 10
    prod = g.matmul(h.transpose())
    assert all(v == 0 for row in prod.rows for v in row)
    assert same_row_space(h, g.nullspace())


def test_generator_dimensions_ag13(ag13_layout):
    g = generator_matrix(ag13_layout)
    assert (g.nrows, g.ncols) == (24, 40)
    assert g.rank() == 24


def test_block_diagonal_degenerate_case():
    lay = two_block_layout(h=0)
    g = generator_matrix(lay)
    # information of block 1 never touches block 2's coordinates
    for u in range(2):
        assert all(g.rows[u][j] == 0 for j in range(3, 6))
    for u in range(2, 4):
        assert all(g.rows[u][j] == 0 for j in range(0, 3))


def test_constructed_code_matches_published(example1_layout, example1_check):
    perm = example1_permutation(example1_layout)
    rng = random.Random(11)
    for _ in range(14):
        word = encode(example1_layout, [rng.randrange(11) for _ in range(14)])
        published_order = [0] * 24
        for mine, pub in enumerate(perm):
            published_order[pub] = word[mine]
        assert all(v == 0 for v in example1_check.mul_vec(published_order))


def test_verify_locality(example1_code):
    rep = verify_locality(example1_code)
    assert rep.ok
    assert rep.punctured_distances == [2] * 7
    assert rep.info_rank == 14


def test_locality_degenerate_blocks():
    code = build_code(two_block_layout(h=0))
    rep = verify_locality(code)
    assert rep.ok and rep.punctured_distances == [2, 2]


def test_random_code_fails_locality():
    code = random_code(F11, 24, 14, seed=123)
    code.repair_sets = [tuple(range(3 * b, 3 * b + 3)) for b in range(7)]
    code.delta = 2
    assert not verify_locality(code).ok


def distance_or_infeasible(m):
    try:
        return min_distance(m)
    except Infeasible:
        return "infeasible"


def assert_punctured_checks_match_dense(code):
    """Per repair set: the same row space as the dense shortening, so the
    same punctured distance."""
    checks = punctured_checks(code)
    assert len(checks) == len(code.repair_sets)
    for coords, pc in zip(code.repair_sets, checks):
        ref = dense_punctured_check(code, coords)
        assert pc.ncols == len(coords) and all(map(any, pc.rows))
        assert same_row_space(pc, ref)
        if ref.nrows:
            assert distance_or_infeasible(pc) == distance_or_infeasible(ref)


def mixed_rows(code, rng):
    """The code with H left-multiplied by a random invertible matrix: the
    same code, whose check rows no longer have columns to themselves."""
    fld, m = code.field, code.check.nrows
    while True:
        a = Matrix(fld, [[rng.randrange(fld.q) for _ in range(m)] for _ in range(m)], m)
        if a.rank() == m:
            return dataclasses.replace(code, check=a.matmul(code.check))


def reversed_rows(code):
    h = code.check
    return dataclasses.replace(code, check=Matrix(h.field, h.rows[::-1], h.ncols))


@settings(max_examples=60, deadline=None)
@given(layouts(), st.integers(0, 2**32 - 1))
def test_punctured_checks_match_dense_on_mixed_rows(lay, seed):
    code = build_code(lay)
    assert_punctured_checks_match_dense(code)
    mixed = mixed_rows(code, random.Random(seed))
    assert_punctured_checks_match_dense(mixed)
    assert verify_locality(mixed) == verify_locality(code)


@pytest.mark.parametrize("make", [
    lambda: LinearCode(k=14, check=example1_check(),
                       repair_sets=fixtures.example1_repair_sets(), delta=2),
    lambda: goppa.build_code(fixtures.goppa_small_params()),
    lambda: goppa.build_code(fixtures.goppa_optimal_params()),
    lambda: dataclasses.replace(random_code(F11, 24, 14, seed=123),
                                repair_sets=[tuple(range(3 * b, 3 * b + 3)) for b in range(7)]),
    lambda: dataclasses.replace(random_code(F13, 12, 4, seed=5),
                                repair_sets=[(0, 1, 2, 3, 4, 5, 6, 7, 8), (8, 9, 10, 11)]),
], ids=["example1_published", "goppa_small", "goppa_optimal", "random", "random_wide"])
def test_punctured_checks_match_dense(make):
    assert_punctured_checks_match_dense(make())


@given(matrices_with_columns(), st.data())
@settings(max_examples=200, deadline=None)
def test_projection_dimension_matches_dense(mc, data):
    h, _ = mc
    code = LinearCode(k=h.ncols - h.rank(), check=h)
    coords = data.draw(st.lists(st.integers(0, h.ncols - 1), unique=True))
    assert projection_dimension(code, coords) == dense_projection_dimension(code, coords)


@pytest.mark.parametrize("make", [
    lambda: LinearCode(k=14, check=example1_check(),
                       repair_sets=fixtures.example1_repair_sets(), delta=2),
    lambda: build_code(fixtures.ag13_layout()),
    lambda: goppa.build_code(fixtures.goppa_optimal_params()),
], ids=["example1_published", "ag13", "goppa_optimal"])
def test_projection_dimension_matches_dense_on_fixtures(make):
    code = make()
    rng = random.Random(3)
    subsets = [sorted({c for rs in code.repair_sets for c in rs}), list(code.repair_sets[0])]
    subsets += [rng.sample(range(code.n), rng.randrange(code.n + 1)) for _ in range(20)]
    for coords in subsets:
        assert projection_dimension(code, coords) == dense_projection_dimension(code, coords)


def test_run_example1_checks_that_g_spans_the_published_code(monkeypatch):
    assert fixtures.run_example1()["construction_matches_published"]
    real = fixtures.generator_matrix

    def short_of_rank(layout):
        # G with its last row replaced by its first: rank 13, and it still
        # annihilates the published H
        g = real(layout)
        return Matrix(g.field, g.rows[:-1] + [g.rows[0]], g.ncols)

    monkeypatch.setattr(fixtures, "generator_matrix", short_of_rank)
    rep = fixtures.run_example1()
    assert rep["construction_matches_published"] is False and rep["pass"] is False


def test_example3_locality_does_not_depend_on_row_order():
    code = build_code(fixtures.example3_layout())
    rep = verify_locality(code)
    assert rep.ok and rep.punctured_distances == [3] * 73
    assert verify_locality(reversed_rows(code)) == rep


def test_linear_code_reads_field_and_length_off_its_check(example1_code):
    assert [f.name for f in dataclasses.fields(LinearCode)] == [
        "k", "check", "repair_sets", "delta"]
    assert example1_code.field is example1_code.check.field
    assert example1_code.n == example1_code.check.ncols == 24
    with pytest.raises(AttributeError):
        example1_code.n = 25


def test_layout_json_round_trip(ag13_layout):
    blob = serial.dumps(serial.layout_to_dict(ag13_layout))
    again = serial.layout_from_dict(json.loads(blob))
    assert again.sets == ag13_layout.sets
    assert again.s_points == ag13_layout.s_points
    assert again.params == ag13_layout.params
    assert again.field == ag13_layout.field


def test_truncated_tail_recorded():
    params = LrcParams(r=2, delta=2, ell=6, v=1, h=1)
    lay = build_layout(params, F11, pg_steiner(2, 2))
    assert len(lay.sets[6]) == 2
    assert len(lay.truncated_tail) == 1
