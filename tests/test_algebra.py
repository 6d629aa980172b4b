import itertools
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from lrckit import algebra
from lrckit.algebra import (
    FiniteField,
    Matrix,
    Poly,
    dump_matrix,
    interpolant,
    interpolate,
    lagrange_basis,
    load_matrix,
    poly_from_roots,
    subfield_embedding,
)
from lrckit.errors import DuplicateNode, InternalInvariantViolation, InvalidParameter
from linref import identity, same_row_space, solve
from polyref import square_and_multiply_generator
from rowref import value_from_roots
from test_codec import FIELDS as CODEC_FIELDS

F11 = FiniteField(11)
F13 = FiniteField(13)
F4 = FiniteField(2, 2)
F16 = FiniteField(2, 4)
F9 = FiniteField(3, 2)

FIELDS = [F11, F4, F16, F9]


def test_prime_inverse():
    assert F11.inv(7) == 8
    assert F11.mul(7, 8) == 1


def test_f4_multiplication():
    # x * x = x + 1 under the canonical modulus
    assert F4.modulus == (1, 1, 1)
    assert F4.mul(2, 2) == 3


def test_canonical_moduli():
    assert FiniteField(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert F16.modulus == (1, 1, 0, 0, 1)             # x^4 + x + 1
    assert F9.modulus == (1, 0, 1)                    # x^2 + 1


def monic(p, d):
    """Every monic polynomial of degree d over F_p, low degree first."""
    return [tail + (1,) for tail in itertools.product(range(p), repeat=d)]


def schoolbook(a, b, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    return tuple(prod)


@pytest.mark.parametrize("p, m", [(p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(2, 9)
                                  if p**m <= 256])
def test_modulus_is_the_first_irreducible_in_scan_order(p, m):
    # _smallest_irreducible scans x^m + g(x) by the integer encoding of g
    reducible = {schoolbook(a, b, p) for d in range(1, m // 2 + 1)
                 for a in monic(p, d) for b in monic(p, m - d)}
    scan = (tuple(j // p**i % p for i in range(m)) + (1,) for j in range(p**m))
    assert FiniteField(p, m).modulus == next(c for c in scan if c not in reducible)


def test_bad_field_parameters():
    with pytest.raises(InvalidParameter):
        FiniteField(6)
    with pytest.raises(InvalidParameter):
        FiniteField(2, 2, modulus=[0, 0, 1])  # x^2 is reducible
    with pytest.raises(ZeroDivisionError):
        F11.inv(0)


@pytest.mark.parametrize("p, m", [(2, 17), (3, 11), (65537, 1), (2, 10**9), (10**30, 1),
                                  (2**89 - 1, 2)])
def test_fields_beyond_the_size_guard_are_refused(p, m):
    # refused before any table, or any power p^m of a huge m, is built
    with pytest.raises(InvalidParameter, match="MAX_FIELD"):
        FiniteField(p, m)


def test_the_size_guard_admits_its_bound():
    assert FiniteField(2, 16).q == algebra.MAX_FIELD
    assert FiniteField(65521).q == 65521  # the largest prime below the bound


def trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def trial_division_prime_power(q):
    """(p, m) with q = p^m from q's smallest divisor above 1, or None."""
    if q < 2:
        return None
    p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
    m, rest = 0, q
    while rest % p == 0:
        rest //= p
        m += 1
    return (p, m) if rest == 1 else None


def test_primality_matches_trial_division():
    for n in range(-2, 10**5):
        assert algebra.is_prime(n) == trial_division_is_prime(n), n


def test_prime_powers_match_trial_division():
    for q in range(-2, 10**5):
        try:
            got = algebra.factor_prime_power(q)
        except InvalidParameter:
            got = None
        assert got == trial_division_prime_power(q), q


@pytest.mark.parametrize("n, prime", [
    (2**61 - 1, True),
    (10**24 + 7, True),
    (2**67 - 1, False),  # 193707721 * 761838257287
    (3825123056546413051, False),  # a strong pseudoprime to the bases 2..31
    (318665857834031151167461, False),  # a strong pseudoprime to the bases 2..37
])
def test_primality_is_exact_up_to_its_limit(n, prime):
    assert algebra.is_prime(n) == prime
    assert n < algebra.PRIME_LIMIT


def test_primality_refuses_to_guess_beyond_its_limit():
    # the limit is itself a strong pseudoprime to the bases 2..41
    for n in (algebra.PRIME_LIMIT, 2**89 - 1):
        with pytest.raises(InvalidParameter):
            algebra.is_prime(n)
    # a perfect power of a small prime is settled by its root
    assert algebra.factor_prime_power(2**100) == (2, 100)
    assert algebra.factor_prime_power((2**61 - 1) ** 2) == (2**61 - 1, 2)
    with pytest.raises(InvalidParameter):
        algebra.factor_prime_power(2**100 + 1)


@pytest.mark.parametrize("fld", [FiniteField(7), F16, F9])  # one field of each kind
def test_zero_to_a_negative_power_raises(fld):
    for invert_zero in (fld.inv, lambda b: fld.div(1, b), lambda b: fld.div(0, b),
                        lambda b: fld.pow(b, -1)):
        with pytest.raises(ZeroDivisionError):
            invert_zero(0)
    assert fld.pow(0, 0) == 1 and fld.pow(0, 3) == 0
    assert fld.pow(3, -1) == fld.inv(3)


def test_missing_irreducible_is_an_invariant_violation(monkeypatch):
    monkeypatch.setattr(algebra, "_is_irreducible", lambda coeffs, p: False)
    with pytest.raises(InternalInvariantViolation):
        algebra._smallest_irreducible(2, 3)


def test_default_modulus_is_found_once_per_field(monkeypatch):
    first = FiniteField(3, 3)
    # a second scan would now find nothing and raise
    monkeypatch.setattr(algebra, "_is_irreducible", lambda coeffs, p: False)
    again = FiniteField(3, 3)
    assert again.modulus == first.modulus
    assert [again.mul(a, b) for a in range(27) for b in range(27)] == [
        first.mul(a, b) for a in range(27) for b in range(27)]
    assert isinstance(algebra._default_modulus(3, 3), tuple)  # callers cannot change it


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=60, deadline=None)
def test_field_axioms(fld, data):
    a = data.draw(st.integers(0, fld.q - 1))
    b = data.draw(st.integers(0, fld.q - 1))
    assert fld.add(a, 0) == a
    assert fld.mul(a, b) == fld.mul(b, a)
    assert fld.add(a, fld.neg(a)) == 0
    assert fld.pow(a, fld.q) == a  # Frobenius fixed point
    if a:
        assert fld.mul(a, fld.inv(a)) == 1


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (2, 4), (2, 9), (3, 2), (3, 3), (5, 2),
                                  (3, 5), (7, 3), (3, 7)])
def test_addition_is_coordinatewise(p, m):
    fld = FiniteField(p, m)
    assert not hasattr(fld, "_add")  # XOR or Zech logarithms, no q x q table
    rng = random.Random(fld.q)

    def via_coords(op, a, b):
        return fld.from_coords(op(x, y) % p for x, y in zip(fld.coords(a), fld.coords(b)))

    for _ in range(300):
        a, b = rng.randrange(fld.q), rng.randrange(fld.q)
        assert fld.add(a, b) == via_coords(lambda x, y: x + y, a, b)
        assert fld.sub(a, b) == via_coords(lambda x, y: x - y, a, b)
        assert fld.neg(a) == via_coords(lambda x, y: -x, a, 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 79])
def test_prime_generator_is_the_smallest_primitive_root(p):
    roots = [g for g in range(2, p) if len({pow(g, e, p) for e in range(1, p)}) == p - 1]
    assert FiniteField(p).generator == (roots[0] if roots else 1)


def coord_mul(fld, a, b):
    """a * b taken on coordinates modulo the field's modulus, apart from
    its tables."""
    p, m, mod = fld.p, fld.m, fld.modulus
    if m == 1:
        return a * b % p
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(fld.coords(a)):
        for j, y in enumerate(fld.coords(b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(2 * m - 2, m - 1, -1):
        for i in range(m):
            prod[d - m + i] = (prod[d - m + i] - prod[d] * mod[i]) % p
    return fld.from_coords(prod[:m])


def walk_generator(fld):
    """The smallest element whose powers, walked one multiplication at a
    time, first return to 1 after q - 1 steps (1 for F_2)."""
    for g in range(2, fld.q):
        x, order = g, 1
        while x != 1:
            x, order = coord_mul(fld, x, g), order + 1
        if order == fld.q - 1:
            return g
    return 1


def power_walk_tables(fld):
    """The exp, log and Zech tables of an extension field, from its
    generator's powers walked one ``coord_mul`` at a time."""
    p, q = fld.p, fld.q
    powers = [1]
    for _ in range(q - 2):
        powers.append(coord_mul(fld, powers[-1], fld.generator))
    log = [0] * q
    for i, x in enumerate(powers):
        log[x] = i
    # 1 + x raises x's coordinate c_0 by one
    ones = [fld.from_coords([fld.coords(x)[0] + 1] + fld.coords(x)[1:]) for x in powers]
    zech = [log[y] if y else None for y in ones] if p > 2 else None
    return powers + powers, log, zech


def fields_up_to_3_7():
    """Every field of order up to 3^7, the largest the tests build."""
    for q in range(2, 3**7 + 1):
        try:
            p, m = algebra.factor_prime_power(q)
        except InvalidParameter:
            continue
        yield FiniteField(p, m)


def test_generator_is_the_smallest_primitive_element():
    for fld in fields_up_to_3_7():
        assert fld.generator == walk_generator(fld), fld


def test_generator_matches_the_square_and_multiply_search():
    for fld in fields_up_to_3_7():
        assert fld.generator == square_and_multiply_generator(fld), fld


def test_log_tables_match_a_power_walk():
    for fld in fields_up_to_3_7():
        if fld.m == 1:
            continue
        exp, log, zech = power_walk_tables(fld)
        assert fld._exp == exp and fld._log == log, fld
        assert getattr(fld, "_zech", None) == zech, fld


@pytest.mark.parametrize("fld", [FiniteField(2), FiniteField(7), FiniteField(2, 3), F9,
                                 FiniteField(5, 2)], ids=repr)
def test_scalar_ops_match_coordinates(fld):
    """Every pair, against ``coord_mul`` and coordinate-wise subtraction;
    inverses by search, powers by repeated products in both directions."""
    p, q = fld.p, fld.q
    inverse = {b: next(x for x in range(q) if coord_mul(fld, b, x) == 1) for b in range(1, q)}

    def minus(a, b):
        return fld.from_coords((x - y) % p for x, y in zip(fld.coords(a), fld.coords(b)))

    for a in range(q):
        assert fld.neg(a) == minus(0, a)
        for b in range(q):
            assert fld.mul(a, b) == coord_mul(fld, a, b)
            assert fld.sub(a, b) == minus(a, b)
            if b:
                assert fld.div(a, b) == coord_mul(fld, a, inverse[b])
        if a:
            assert fld.inv(a) == inverse[a]
        for base, sign in ((a, 1), (inverse.get(a), -1)):
            acc = 1
            for e in range(q + 1) if base is not None else ():
                assert fld.pow(a, sign * e) == acc
                acc = coord_mul(fld, acc, base)


KERNEL_FIELDS = [FiniteField(2), FiniteField(3), FiniteField(5), FiniteField(7),
                 F4, FiniteField(2, 3), F9, F16]


@given(st.sampled_from(KERNEL_FIELDS), st.data())
@settings(max_examples=200, deadline=None)
def test_vector_kernels_match_scalar_loops(fld, data):
    elem = st.one_of(st.just(0), st.integers(0, fld.q - 1))
    n = data.draw(st.integers(0, 8))
    v = data.draw(st.lists(elem, min_size=n, max_size=n))
    u = data.draw(st.lists(elem, min_size=n, max_size=n))
    c = data.draw(elem)
    assert fld.vec_sub(v, c, u) == [fld.sub(a, fld.mul(c, b)) for a, b in zip(v, u)]
    assert fld.vec_scale(v, c) == [fld.mul(c, a) for a in v]
    acc = 0
    for a, b in zip(v, u):
        acc = fld.add(acc, fld.mul(a, b))
    assert fld.dot(v, u) == fld.dot(iter(v), tuple(u)) == acc
    idx = data.draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
    w = list(v)
    assert fld.vec_sub_at(w, c, u, idx) is None
    assert w == [fld.sub(a, fld.mul(c, b)) if j in idx else a
                 for j, (a, b) in enumerate(zip(v, u))]


@given(st.sampled_from(KERNEL_FIELDS), st.data())
@settings(max_examples=100, deadline=None)
def test_normalize_keys_parallel_classes(fld, data):
    elem = st.one_of(st.just(0), st.integers(0, fld.q - 1))
    n = data.draw(st.integers(0, 6))
    u = data.draw(st.lists(elem, min_size=n, max_size=n))
    c = data.draw(st.integers(1, fld.q - 1))
    key = fld.normalize(u)
    assert key == fld.normalize(fld.vec_scale(u, c)) == fld.normalize(tuple(u))
    if any(u):
        lead = next(j for j, a in enumerate(u) if a)
        assert key[:lead + 1] == (0,) * lead + (1,)
        assert key == tuple(fld.vec_scale(u, fld.inv(u[lead])))
    else:
        assert key == tuple(u)  # the zero vector is unchanged


# the distance search's keys are bytes on prime fields up to p = 127 and
# characteristic-2 fields up to q = 256, tuples on the rest: a field of each
# kind on each side of both bounds, and the odd extension F_9
LANE_FIELDS = [FiniteField(2), F11, FiniteField(127), F4, FiniteField(2, 8)]
TUPLE_KEY_FIELDS = [FiniteField(131), FiniteField(2, 9), F9]


@given(st.sampled_from(LANE_FIELDS + TUPLE_KEY_FIELDS), st.data())
@settings(max_examples=150, deadline=None)
def test_search_keys_match_normalize(fld, data):
    """``vec_key`` and ``sub_key`` against ``normalize`` and
    ``normalize(vec_sub(...))``, compared as tuples, for every c."""
    elem = st.one_of(st.just(0), st.integers(0, fld.q - 1))
    n = data.draw(st.integers(0, 6))
    w = data.draw(st.lists(elem, min_size=n, max_size=n))
    u = data.draw(st.lists(elem, min_size=n, max_size=n))
    kw, ku = fld.vec_key(w), fld.vec_key(u)
    assert tuple(kw) == fld.normalize(w) and kw == fld.vec_key(tuple(w))
    wn, un = fld.normalize(w), fld.normalize(u)
    for c in range(fld.q):
        assert tuple(fld.sub_key(kw, c, ku)) == fld.normalize(fld.vec_sub(wn, c, un))
    assert fld.sub_key(kw, 1, kw) == fld.vec_key([0] * n)  # a zero result


@pytest.mark.parametrize("fld", LANE_FIELDS + TUPLE_KEY_FIELDS, ids=repr)
def test_search_keys_on_short_vectors(fld):
    """Length 0 and every vector of length 1, with every c; the key type
    marks the kind."""
    key = fld.vec_key
    assert isinstance(key(()), bytes if fld in LANE_FIELDS else tuple)
    assert tuple(key(())) == () and tuple(fld.sub_key(key(()), 1, key(()))) == ()
    for a in range(fld.q):
        assert tuple(key((a,))) == fld.normalize((a,)) == (int(a > 0),)
    one = key((1,))
    for c in range(fld.q):
        assert tuple(fld.sub_key(one, c, one)) == (int(c != 1),)
        assert tuple(fld.sub_key(key((0, 1)), c, key((1, 0)))) == fld.normalize((fld.neg(c), 1))


def test_search_key_tables_wait_for_first_use():
    fld = FiniteField(2, 8)
    assert "vec_key" not in vars(fld) and "sub_key" not in vars(fld)
    key = fld.vec_key((0, 3, 5))
    assert vars(fld)["vec_key"] is fld.vec_key and "sub_key" in vars(fld)
    assert tuple(key) == fld.normalize((0, 3, 5))


def closure_value(fn, name):
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


def test_byte_plan_shares_the_key_tables():
    """On a characteristic-2 field of at most 256 elements the first pass
    of a plan binds the search keys too, on the one set of tables, and the
    plan holds none of them: its columns are ``bytes``."""
    fld = FiniteField(2, 8)
    plan = fld.row_plan([((0, 2), [3, 255]), ((), [])], 3)
    assert plan == (2, (b"\x03\x00", b"\x00\x00", b"\xff\x00"))
    assert not {"run_plan", "vec_key", "sub_key"} & set(vars(fld))
    assert fld.run_plan(plan, [1, 7, 1]) == [3 ^ 255, 0]
    assert {"run_plan", "vec_key", "sub_key"} <= set(vars(fld))
    assert closure_value(fld.run_plan, "tables") is closure_value(fld.sub_key, "tables")
    # the other fields bind their passes with their other ops
    for other in (FiniteField(2), FiniteField(2, 9), FiniteField(3, 2)):
        assert "run_plan" in vars(other) and "sub_key" not in vars(other)


def test_interpolate_line():
    f = interpolate(F11, [(0, 1), (1, 2)])
    assert f.coeffs == [1, 1]


def test_interpolate_constant():
    f = interpolate(F11, [(3, 6), (6, 6), (5, 6)])
    assert f.coeffs == [6]


def test_interpolate_squares():
    pts = [(1, 1), (2, 4), (3, 9)]
    f = interpolate(F13, pts)
    for x, y in pts:
        assert f(x) == y
    assert f.coeffs == [0, 0, 1]


def test_interpolate_duplicate_node():
    with pytest.raises(DuplicateNode):
        interpolate(F11, [(1, 2), (1, 3)])


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=40, deadline=None)
def test_interpolate_round_trip(fld, data):
    deg = data.draw(st.integers(0, min(5, fld.q - 1) - 1))
    coeffs = [data.draw(st.integers(0, fld.q - 1)) for _ in range(deg + 1)]
    f = Poly(fld, coeffs)
    xs = list(range(deg + 1))
    g = interpolate(fld, [(x, f(x)) for x in xs])
    assert (f - g).is_zero()


@given(st.sampled_from([F11, FiniteField(7), F4, F16, F9]), st.data())
@settings(max_examples=60, deadline=None)
def test_lagrange_basis_matches_interpolate(fld, data):
    """At every field element, nodes and non-nodes alike, basis value u is
    the value of the interpolant of the u-th unit vector."""
    order = data.draw(st.permutations(range(fld.q)))
    nodes = order[: data.draw(st.integers(1, min(6, fld.q)))]
    basis = lagrange_basis(fld, nodes)
    units = [interpolate(fld, [(x, int(i == u)) for i, x in enumerate(nodes)])
             for u in range(len(nodes))]
    for x in fld.elements():
        assert basis(x) == [f(x) for f in units]
    repeat = data.draw(st.sampled_from(nodes))
    with pytest.raises(DuplicateNode):
        lagrange_basis(fld, nodes + [repeat])


def test_from_roots_empty_and_single():
    assert poly_from_roots(F11, []).coeffs == [1]
    assert poly_from_roots(FiniteField(7), [0]).coeffs == [0, 1]


def test_from_roots_pair():
    # (x-1)(x-2) has coefficients (r1*r2, -(r1+r2), 1) = (2, -3, 1)
    f = poly_from_roots(F11, [1, 2])
    assert f.coeffs == [2, 8, 1]
    assert f(1) == 0 and f(2) == 0 and f(3) != 0


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=40, deadline=None)
def test_from_roots_multiplicative(fld, data):
    elems = data.draw(
        st.lists(st.integers(0, fld.q - 1), max_size=min(6, fld.q), unique=True)
    )
    cut = data.draw(st.integers(0, len(elems)))
    a, b = elems[:cut], elems[cut:]
    assert (
        poly_from_roots(fld, a) * poly_from_roots(fld, b)
    ).coeffs == poly_from_roots(fld, elems).coeffs


def test_poly_divmod():
    f = poly_from_roots(F11, [1, 2, 3])
    g = poly_from_roots(F11, [2])
    q, r = divmod(f, g)
    assert r.is_zero()
    assert q.coeffs == poly_from_roots(F11, [1, 3]).coeffs
    q2, r2 = divmod(f + Poly(F11, [5]), g)
    assert r2.coeffs == [5]


def test_matrix_rank_basics():
    eye = identity(F11, 3)
    assert eye.rank() == 3
    assert eye.nullspace().nrows == 0
    z = Matrix(F11, [[0] * 4] * 2)
    assert z.rank() == 0
    assert z.nullspace().nrows == 4


def test_rank_nullity_and_shuffle():
    rng = random.Random(5)
    m = Matrix(F13, [[rng.randrange(13) for _ in range(7)] for _ in range(4)])
    assert m.rank() + m.nullspace().nrows == m.ncols
    rows = m.copy_rows()
    rng.shuffle(rows)
    assert Matrix(F13, rows).rank() == m.rank()
    for v in m.nullspace().rows:
        assert all(x == 0 for x in m.mul_vec(v))


def test_row_and_column_supports_are_the_nonzero_positions():
    rng = random.Random(7)
    m = Matrix(F13, [[rng.choice([0, 0, rng.randrange(13)]) for _ in range(9)] for _ in range(5)])
    assert m.row_supports() == [tuple(j for j, v in enumerate(r) if v) for r in m.rows]
    assert m.column_supports() == m.transpose().row_supports()
    assert m.row_supports() is m.row_supports()  # cached
    assert Matrix(F13, [], 3).column_supports() == [(), (), ()]


@pytest.mark.parametrize("fld", [F13, F16, FiniteField(2, 8), FiniteField(2, 9)])
def test_row_plan_gives_the_rows_times_a_vector(fld):
    # rows with no, one and several nonzeros, and rows that share the
    # support of row 5 but for a private column (column 6 for row 6,
    # column 7 for row 7); a pass of the plan gives H times v, as the
    # dense mul_vec does, also after a pickle round trip
    rng = random.Random(11)
    rows = [[0] * 8, [0] * 8, [0, 0, 5, 0, 0, 0, 0, 0], [0] * 5 + [1, 0, 0],
            [rng.choice([0, rng.randrange(1, fld.q)]) for _ in range(6)] + [0, 0],
            [0, 3, 1, 4, 1, 0, 0, 0], [0, 5, 9, 2, 6, 0, 5, 0], [0, 2, 6, 5, 3, 0, 0, 7],
            [3, 1, 4, 1, 5, 9, 0, 0]]
    m = Matrix(fld, rows)
    assert m.private_columns().get(6) == [6] and m.private_columns().get(7) == [7]
    v = [rng.randrange(fld.q) for _ in range(8)]
    plan = m.row_plan()
    copy = pickle.loads(pickle.dumps(m))
    assert copy._plan is not None  # the plan pickles with the matrix
    for mat in (m, copy):
        assert fld.run_plan(mat.row_plan(), v) == m.mul_vec(v)
    assert m.row_plan() is plan  # cached
    for nrows in (0, 1):
        one = Matrix(fld, rows[2:2 + nrows], 8)
        assert fld.run_plan(one.row_plan(), v) == m.mul_vec(v)[2:2 + nrows]


# the fields of the row plan's differential tests: prime fields from the
# smallest to the largest order, where lanes are widest, and extension
# fields of characteristic 2 and 3; in characteristic 2 up to F_256, the
# largest of byte columns, and F_512, one dot per row
ROW_GROUP_FIELDS = [FiniteField(2), FiniteField(7), FiniteField(79), FiniteField(65521),
                    F4, F9, F16, FiniteField(2, 8), FiniteField(2, 9)]


@st.composite
def banded_rows(draw):
    """A field of ROW_GROUP_FIELDS and sparse rows over up to ~500 columns:
    0-40 bands of 1-12 columns, with 0-3 rows inside each band, then 0-4
    rows anywhere (spanning bands when the plan cuts chunks) and 0-2 empty
    rows, in a shuffled order; entries biased to 0 and q - 1.  Also a
    vector of field elements as long, biased to q - 1.  The shape is drawn
    first, then every value at once, from one drawn seed."""
    fld = draw(st.sampled_from(ROW_GROUP_FIELDS))
    widths = draw(st.lists(st.integers(1, 12), min_size=draw(st.sampled_from([0, 6])),
                           max_size=40))
    ncols = sum(widths) + draw(st.integers(0, 3))  # trailing columns no row reads
    supports, lo = [], 0
    for w in widths:
        supports += [range(lo, lo + w)] * draw(st.sampled_from([0, 1, 1, 2, 3]))
        lo += w
    cols = st.lists(st.integers(0, max(ncols - 1, 0)), min_size=min(ncols, 2),
                    unique=True).map(sorted)
    supports += [draw(cols) for _ in range(draw(st.sampled_from([0, 1, 2, 4]) if ncols
                                                else st.just(0)))]
    supports += [()] * draw(st.integers(0, 2))
    rng, q = random.Random(draw(st.integers(0, 2**64 - 1))), fld.q
    rows = [(sup, [rng.choice((0, q - 1, rng.randrange(q))) for _ in sup])
            for sup in draw(st.permutations(supports))]
    v = [rng.choice((q - 1, q - 1, q - 1, 0, rng.randrange(q))) for _ in range(ncols)]
    return fld, rows, ncols, v


def dense(rows, ncols):
    """The sparse rows as lists of ``ncols`` entries."""
    out = []
    for sup, vals in rows:
        row = [0] * ncols
        for j, x in zip(sup, vals):
            row[j] = x
        out.append(row)
    return out


@settings(max_examples=300, deadline=None)
@given(banded_rows(), st.sampled_from([1, 16, 64, algebra.CHUNK_BITS]))
def test_dots_match_one_dot_per_row(case, chunk_bits):
    """A pass of the plan gives every row's dot, and a matrix's plan gives
    ``mul_vec``.  Smaller chunks than the library's cut these rows into
    many, so that rows span them."""
    fld, rows, ncols, v = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "CHUNK_BITS", chunk_bits)
        plan = fld.row_plan(rows, ncols)
        m = Matrix(fld, dense(rows, ncols), ncols)
        m.row_plan()
    want = [fld.dot(vals, [v[j] for j in sup]) for sup, vals in rows]
    assert fld.run_plan(plan, v) == want
    assert fld.run_plan(m.row_plan(), v) == m.mul_vec(v) == want


@pytest.mark.parametrize("fld", ROW_GROUP_FIELDS, ids=repr)
def test_dots_of_no_rows(fld):
    assert fld.run_plan(fld.row_plan([], 2), [1, 2]) == []
    assert fld.run_plan(fld.row_plan([], 0), []) == []
    assert fld.run_plan(Matrix(fld, [], 2).row_plan(), [1, 2]) == []
    # a row of no nonzeros, alone, among others and over no columns
    assert fld.run_plan(fld.row_plan([((), [])], 0), []) == [0]
    plan = fld.row_plan([((), []), ((1,), [1]), ((), [])], 2)
    assert fld.run_plan(plan, [0, 1]) == [0, 1, 0]


def test_lanes_hold_the_largest_sums():
    """Every entry p - 1 on F_65521 over 2000 terms: each row spanning the
    plan's chunks gets a lane that holds its largest possible sum,
    (p-1)^2 * 2000, without a carry into the next, summed over every
    chunk, also beside spanning lanes that sum to 0 and to 1 and the
    chunks' own lanes."""
    fld = FiniteField(65521)
    top = fld.q - 1
    full = (range(2000), [top] * 2000)
    zero, one = (range(0, 2000, 7), [0] * 286), ((0, 1999), [top, 1])
    bands = [(range(j, j + 10), [top] * 10) for j in range(0, 2000, 10)]
    rows = [full, zero, full, full, one, full] + bands
    plan = fld.row_plan(rows, 2000)
    _, chunks, _, _, spans, _ = plan
    assert len(chunks) > 10 and len(spans) == 6
    for v in ([top] * 2000, [1] + [0] * 1998 + [1], [top] + [0] * 1999):
        assert fld.run_plan(plan, v) == [fld.dot(vals, [v[j] for j in sup])
                                         for sup, vals in rows]
    full_rows = fld.run_plan(plan, [top] * 2000)
    assert [full_rows[i] for i in (0, 2, 3, 5)] == [top * top * 2000 % fld.q] * 4


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ROW_GROUP_FIELDS), st.data())
def test_interpolant_matches_the_basis(fld, data):
    """The barycentric interpolant gives ``dot(lagrange_basis(x), ys)`` at
    targets on and off the nodes."""
    elem = st.integers(0, fld.q - 1)
    nodes = data.draw(st.lists(elem, min_size=1, max_size=min(fld.q, 16), unique=True))
    ys = data.draw(st.lists(st.one_of(st.just(0), st.just(fld.q - 1), elem),
                            min_size=len(nodes), max_size=len(nodes)))
    targets = data.draw(st.lists(st.one_of(st.sampled_from(nodes), elem), max_size=20))
    basis, value = lagrange_basis(fld, nodes), interpolant(fld, nodes, ys)
    assert [value(x) for x in targets + nodes] == [fld.dot(basis(x), ys)
                                                    for x in targets + nodes]
    assert [value(x) for x in nodes] == ys
    with pytest.raises(DuplicateNode):
        interpolant(fld, nodes + nodes[:1], ys + ys[:1])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ROW_GROUP_FIELDS), st.data())
def test_root_product_matches_the_loop(fld, data):
    elem = st.integers(0, fld.q - 1)
    roots, x = data.draw(st.lists(elem, max_size=40)), data.draw(elem)
    assert fld.root_product(roots, x) == value_from_roots(fld, roots, x)
    assert fld.root_product(roots + [x], x) == 0  # x among the roots
    assert fld.root_product([], x) == 1
    assert fld.root_product(iter(roots), x) == value_from_roots(fld, roots, x)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([f for f in CODEC_FIELDS if f.p == 2]), st.data())
def test_characteristic_2_inv_dot_matches_the_field_sum(fld, data):
    """The log-domain ``inv_dot`` of characteristic 2 gives sum w / (x - u)
    by the field's own div, sub and add, with zero weights among the w and
    x off the nodes."""
    elem = st.integers(0, fld.q - 1)
    x = data.draw(elem)
    nodes = data.draw(st.lists(elem.filter(lambda u: u != x), max_size=20))
    ws = data.draw(st.lists(st.one_of(st.just(0), elem), min_size=len(nodes), max_size=len(nodes)))
    terms = map(fld.div, ws, map(fld.sub, itertools.repeat(x), nodes))
    assert fld.inv_dot(ws, nodes, x) == reduce(fld.add, terms, 0)


class Symbol(int):
    """An int subclass: its instances are ints, and field elements in range."""


@pytest.mark.parametrize("fld", ROW_GROUP_FIELDS, ids=repr)
def test_are_elements_admits_ints_in_range_only(fld):
    assert fld.are_elements([]) and fld.are_elements([0, fld.q - 1]) and fld.are_elements([True])
    for bad in (-1, fld.q, 1.0, 0.5, -0.5, "1", None, 1j, Fraction(1), Decimal(1)):
        assert not fld.are_elements([0, bad]) and not fld.are_elements([bad, 0])
    assert not fld.are_elements([0.5, -0.5, 1])  # floats that sum to an integer
    # either side of q and of a byte's range, which the small fields' check reads
    for x in (fld.q - 1, fld.q, 255, 256):
        for values in ([0, x], (x, 0), [Symbol(x)], (Symbol(0), Symbol(x))):
            assert fld.are_elements(values) == (x < fld.q)
    assert fld.are_elements(b"") and fld.are_elements(bytes([0, min(fld.q, 256) - 1]))
    if fld.q < 256:
        assert not fld.are_elements(bytes([fld.q])) and not fld.are_elements(b"\x00\xff")


@pytest.mark.parametrize("fld", ROW_GROUP_FIELDS, ids=repr)
def test_are_elements_refuses_numpy_ints(fld):
    np = pytest.importorskip("numpy")
    assert not fld.are_elements([np.int64(1)]) and not fld.are_elements([0, np.uint8(1)])
    assert not fld.are_elements(np.array([0, 1]))


ELIMINATION_FIELDS = [FiniteField(2), FiniteField(7), F4, F9]


@st.composite
def matrices_with_columns(draw):
    """A small matrix over one of ELIMINATION_FIELDS, mostly zeros, whose
    columns include zero columns and repeats (up to scale), and a list of
    its columns, possibly empty, in any order and with repeats."""
    fld = draw(st.sampled_from(ELIMINATION_FIELDS))
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(1, 7))
    elem = st.one_of(st.just(0), st.integers(0, fld.q - 1))
    cols = []
    for j in range(ncols):
        kind = draw(st.sampled_from(["random", "zero", "repeat"] if j else ["random", "zero"]))
        if kind == "random":
            cols.append(draw(st.lists(elem, min_size=nrows, max_size=nrows)))
        elif kind == "zero":
            cols.append([0] * nrows)
        else:
            scale = draw(st.integers(1, fld.q - 1))
            cols.append(fld.vec_scale(draw(st.sampled_from(cols)), scale))
    m = Matrix(fld, [[c[i] for c in cols] for i in range(nrows)], ncols)
    return m, draw(st.lists(st.integers(0, ncols - 1), max_size=ncols + 1))


@given(matrices_with_columns(), st.data())
@settings(max_examples=300, deadline=None)
def test_eliminate_counts_the_dense_rank(mc, data):
    m, cols = mc
    fld = m.field
    bound = data.draw(st.one_of(st.none(), st.integers(0, m.nrows)))
    pivots, dependents = m.eliminate(cols, stop=False, bound=bound)
    top = m.nrows if bound is None else bound
    assert len(pivots) == Matrix(fld, m.rows[:top], m.ncols).columns(cols).rank()
    assert len(pivots) + len(dependents) == len(cols)
    rows = [pr for pr, _ in pivots]
    for k, (pr, u) in enumerate(pivots):
        assert pr < top and u[pr] == 1 and len(u) == m.nrows
        assert not any(u[r] for r in rows[:k])  # zero on the earlier pivot rows
    for v in dependents:
        assert len(v) == m.nrows and not any(v[:top])
    # each key is a combination of the columns, and together they span
    # what the columns span
    span = [m.column(c) for c in cols]
    rank = Matrix(fld, span, m.nrows).rank()
    keys = [list(u) for _, u in pivots] + [list(v) for v in dependents]
    for key in keys:
        assert Matrix(fld, span + [key], m.nrows).rank() == rank
    assert Matrix(fld, keys, m.nrows).rank() == rank


@given(matrices_with_columns())
@settings(max_examples=300, deadline=None)
def test_eliminate_stops_at_a_dependent_column(mc):
    m, cols = mc
    pivots, dependents = m.eliminate(cols)
    assert bool(dependents) == (m.columns(cols).rank() < len(cols))
    assert len(dependents) <= 1
    if not dependents:
        assert len(pivots) == len(cols)


def test_eliminate_on_no_columns_and_no_rows():
    m = Matrix(F9, [[1, 0, 2], [0, 0, 4]])
    assert m.eliminate([]) == ([], [])
    assert m.eliminate([], stop=False) == ([], [])
    assert m.eliminate([1]) == ([], [None])  # a zero column touches no row
    assert m.eliminate([1], stop=False) == ([], [F9.vec_key([0, 0])])
    empty = Matrix(F9, [], 3)
    assert empty.eliminate([0, 2], stop=False) == ([], [F9.vec_key([])] * 2)


def test_private_columns_are_the_columns_with_one_nonzero():
    m = Matrix(F11, [[1, 0, 3, 0, 2], [0, 0, 5, 7, 0], [0, 0, 0, 0, 4]])
    assert m.private_columns() == {0: [0], 1: [3]}
    assert m.private_columns() is m.private_columns()  # cached
    assert Matrix(F11, [], 2).private_columns() == {}


def test_matrix_solve():
    rng = random.Random(9)
    m = Matrix(F11, [[rng.randrange(11) for _ in range(5)] for _ in range(3)])
    x = [rng.randrange(11) for _ in range(5)]
    rhs = m.mul_vec(x)
    sol = solve(m, rhs)
    assert sol is not None
    assert m.mul_vec(sol) == rhs
    inconsistent = Matrix(F11, [[1, 0], [1, 0]])
    assert solve(inconsistent, [1, 2]) is None


def test_matrix_text_round_trip():
    m = Matrix(F11, [[1, 2, 3], [4, 5, 6]])
    again = load_matrix(dump_matrix(m))
    assert again == m and again.field == F11
    me = Matrix(F16, [[0, 15], [7, 9]])
    again = load_matrix(dump_matrix(me))
    assert again.rows == me.rows and again.field.modulus == F16.modulus


def test_matrix_text_rejects_composite_prime_header():
    with pytest.raises(InvalidParameter):
        load_matrix("4 1 1\n2\n")


def test_same_row_space():
    a = Matrix(F11, [[1, 0, 1], [0, 1, 1]])
    b = Matrix(F11, [[1, 1, 2], [2, 1, 3]])
    assert same_row_space(a, b)
    c = Matrix(F11, [[1, 0, 0], [0, 1, 1]])
    assert not same_row_space(a, c)


def test_subfield_embedding_is_homomorphism():
    for small, big in [(F4, F16), (FiniteField(2), FiniteField(2, 3)), (FiniteField(3), F9),
                       (FiniteField(2), F16)]:
        emb = subfield_embedding(small, big)
        assert emb[0] == 0 and emb[1] == 1 and len(set(emb)) == small.q
        for a in range(small.q):
            for b in range(small.q):
                assert emb[small.add(a, b)] == big.add(emb[a], emb[b])
                assert emb[small.mul(a, b)] == big.mul(emb[a], emb[b])
    with pytest.raises(InvalidParameter):
        subfield_embedding(F9, F16)


def test_field_pickles_as_its_spec():
    blob = pickle.dumps(F16)
    assert len(blob) < 200  # the spec, not the log/exp/addition tables
    again = pickle.loads(blob)
    assert again == F16 and again is not F16
    for a in range(16):
        for b in range(16):
            assert again.add(a, b) == F16.add(a, b)
            assert again.mul(a, b) == F16.mul(a, b)
    assert [again.inv(a) for a in range(1, 16)] == [F16.inv(a) for a in range(1, 16)]
    m = pickle.loads(pickle.dumps(Matrix(F11, [[1, 2], [3, 4]])))
    assert m.field == F11 and m.rank() == 2


def test_unpickled_fields_are_shared():
    # a worker unpickles the field of every task; it is rebuilt only once
    blob = pickle.dumps(FiniteField(2, 5))
    first = pickle.loads(blob)
    assert pickle.loads(blob) is first
    assert pickle.loads(pickle.dumps(FiniteField(2, 5))) is first
    assert pickle.loads(pickle.dumps(FiniteField(3, 2))) is not first
