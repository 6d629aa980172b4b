import itertools
import random

import pytest

from lrckit.algebra import FiniteField, Matrix, Poly, poly_from_roots, subfield_embedding
from lrckit.erasure import min_distance
from lrckit.errors import InvalidParameter, NotSeparable
from lrckit.fixtures import goppa_optimal_params, goppa_small_params
from lrckit.goppa import (
    GoppaParams,
    build_code,
    check_hypotheses,
    distance_report,
    parity_check,
    splitting_field_data,
    splitting_parity_check,
)
from lrckit.lrc import verify_locality
from gopparef import congruences_hold, embed_matrix
from linref import same_row_space, stack

F16 = FiniteField(2, 4)


def all_codewords(code):
    basis = code.check.nullspace().rows
    fld = code.field
    for coeffs in itertools.product(range(fld.q), repeat=len(basis)):
        word = [0] * code.n
        for c, vec in zip(coeffs, basis):
            if c:
                for j, x in enumerate(vec):
                    word[j] = fld.add(word[j], fld.mul(c, x))
        yield word


def test_params_validation():
    g1 = Poly(F16, [1, 1])  # x - 1
    g2 = poly_from_roots(F16, [8, 9])
    with pytest.raises(InvalidParameter):
        GoppaParams(F16, g1, g2, [(1, 2, 3), (4, 5, 6)])  # g1 vanishes at 1
    with pytest.raises(InvalidParameter):
        GoppaParams(F16, Poly(F16, [7, 1]), g2, [(1, 1, 3)])  # repeated point
    for g1, sets in ((Poly(F16, [20, 1]), [(1, 2, 3)]), (Poly(F16, [7, 1]), [(1, 2, 16)])):
        with pytest.raises(InvalidParameter, match=r"must lie in \[0, 16\)"):
            GoppaParams(F16, g1, g2, sets)  # outside the field


def test_parity_check_shape_and_rank():
    gp = goppa_small_params()
    p = parity_check(gp)
    assert (p.nrows, p.ncols) == (4, 6)
    assert p.rank() == 4
    code = build_code(gp)
    assert code.k == gp.n - gp.ell * (gp.delta - 1) - gp.h == 2


def test_single_row_local_blocks():
    # delta = 2 gives one weighted row per local set
    gp = goppa_small_params()
    p = parity_check(gp)
    assert all(p.rows[0][j] != 0 for j in range(3))
    assert all(p.rows[0][j] == 0 for j in range(3, 6))
    for j, x in enumerate(gp.local_sets[0]):
        assert p.rows[0][j] == F16.inv(gp.g1(x))


def test_h_zero_direct_sum():
    fld = F16
    gp = GoppaParams(fld, Poly(fld, [7, 1]), Poly(fld, [1]), [(1, 2, 3), (4, 5, 6)])
    assert gp.h == 0
    code = build_code(gp)
    assert code.k == gp.ell * gp.r == 4
    assert parity_check(gp).nrows == 2
    assert verify_locality(code).ok
    assert min_distance(code.check) == 2


def test_locality_and_tail_exclusion():
    gp = goppa_optimal_params()
    code = build_code(gp)
    # the tail set's coordinates lie in no repair set
    assert set(range(code.n)) - set().union(*code.repair_sets) == {6, 7}
    rep = verify_locality(code)
    assert rep.ok
    assert rep.punctured_distances == [2, 2]


def test_codewords_satisfy_congruences():
    gp = goppa_small_params()
    code = build_code(gp)
    words = list(all_codewords(code))
    assert len(words) == 16**2
    rng = random.Random(8)
    for word in rng.sample(words, 40):
        assert congruences_hold(gp, word)
    # a non-codeword fails
    bad = [1, 0, 0, 0, 0, 0]
    assert not congruences_hold(gp, bad)


def test_splitting_same_field():
    gp = goppa_small_params()
    big, emb, roots1, roots2 = splitting_field_data(gp)
    assert big.q == 16 and roots1 == [7] and roots2 == [8, 9]
    p = parity_check(gp)
    p_star, info = splitting_parity_check(gp)
    assert info["splitting_order"] == 16
    assert same_row_space(p, p_star)
    # Cauchy entries
    for j, x in enumerate(gp.local_sets[0]):
        assert p_star.rows[0][j] == F16.inv(F16.sub(7, x))


def test_splitting_not_separable():
    g2 = poly_from_roots(F16, [8]) * poly_from_roots(F16, [8])
    gp = GoppaParams(F16, Poly(F16, [7, 1]), g2, [(1, 2, 3), (4, 5, 6)])
    with pytest.raises(NotSeparable):
        splitting_parity_check(gp)


def irreducible_quadratic(fld):
    for c0 in range(fld.q):
        for c1 in range(fld.q):
            f = Poly(fld, [c0, c1, 1])
            if all(f(x) != 0 for x in fld.elements()):
                return f
    raise AssertionError


def test_splitting_extension_field():
    g2 = irreducible_quadratic(F16)
    gp = GoppaParams(F16, Poly(F16, [7, 1]), g2, [(1, 2, 3), (4, 5, 6)])
    p = parity_check(gp)
    p_star, info = splitting_parity_check(gp)
    assert info["splitting_order"] == 256
    big = p_star.field
    emb = subfield_embedding(F16, big)
    p_emb = embed_matrix(p, big, emb)
    # base-field rows lie in the Cauchy row space (same code over the
    # extension), so stacking does not grow the rank
    assert stack(p_star, p_emb).rank() == p_star.rank()
    # every base-field codeword embeds to a splitting-field codeword
    code = build_code(gp)
    for word in itertools.islice(all_codewords(code), 64):
        lifted = [emb[x] for x in word]
        assert all(v == 0 for v in p_star.mul_vec(lifted))


def test_hypothesis_checker():
    gp = goppa_small_params()
    rep = check_hypotheses(gp, t=1)
    assert rep["hold"] and rep["overlap_ok"] and rep["tail_disjoint"]
    overlapping = GoppaParams(
        F16, Poly(F16, [7, 1]), poly_from_roots(F16, [8, 9]), [(1, 2, 3), (2, 3, 4)]
    )
    assert not check_hypotheses(overlapping, t=1)["overlap_ok"]


def test_distance_report_small_instance():
    gp = goppa_small_params()
    rep = distance_report(gp, t=1)
    assert rep["k_measured"] == rep["k_formula"] == 2
    assert rep["hypotheses"]["hold"]
    assert rep["distance_bound"] == 4
    assert rep["distance_measured"] >= 4
    assert rep["bound_holds"]


def test_distance_report_optimal_instance():
    gp = goppa_optimal_params()
    rep = distance_report(gp, t=1)
    assert rep["tail_size"] == 2
    assert rep["distance_measured"] == 4
    opt = rep["optimality"]
    assert opt["d_equals"] and opt["k_equals_formula"] and opt["optimal"]


def test_distance_bound_counterexample_is_reported():
    # hypotheses hold yet the measured distance falls below the bound:
    # with a nonempty tail the stated guarantee is instance-dependent,
    # so the report exposes the measurement instead of asserting it
    gp = GoppaParams(
        F16,
        Poly(F16, [7, 1]),
        poly_from_roots(F16, [8, 9]),
        [(1, 2, 3), (4, 5, 6)],
        (10, 11),
    )
    rep = distance_report(gp, t=1)
    assert rep["hypotheses"]["hold"]
    assert rep["distance_measured"] == 3 < rep["distance_bound"]
    assert rep["bound_holds"] is False
