"""The length bound's floor is exact for every exponent.

The reference here is written from the paper's formula, independently of
``bounds.py``: value = R * (L * q^(u/v) + c) - S with R, L > 0, so for a
rational x, value >= x iff x' = ((x + S) / R - c) / L <= 0 or x'^v <= q^u.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lrckit.algebra import iroot
from lrckit.bounds import classify, length_bound
from rootref import iroot_from_above


def is_prime_power(q: int) -> bool:
    p = next(f for f in range(2, q + 1) if q % f == 0)
    while q % p == 0:
        q //= p
    return q == 1


PRIME_POWERS = [q for q in range(2, 257) if is_prime_power(q)]


def reference_terms(q, delta, h, a):
    """L, u/v and c of the bound at offset a."""
    t = (h + delta - a - 1) // delta
    if t % 2:  # odd T
        return Fraction(t - 1, 2 * (q - 1)), Fraction(2 * (h - a - 1), t - 1), a + 1
    return Fraction(t, 2 * (q - 1)), Fraction(2 * (h - a), t), a


def reference_at_least(q, r, delta, h, a, x: Fraction) -> bool:
    """value >= x for the report's (q, r, delta, h, a), in exact arithmetic."""
    lead, power, c = reference_terms(q, delta, h, a)
    gap = ((x + Fraction(h * (delta - 1), r)) / Fraction(r + delta - 1, r) - c) / lead
    u, v = power.numerator, power.denominator
    return gap <= 0 or gap**v <= q**u


def assert_floor_exact(q, r, delta, h, a, rep):
    m = rep["floor"]
    assert type(m) is int and rep["floor_certified"] is True
    assert Fraction(rep["exponent"]) == reference_terms(q, delta, h, a)[1]
    assert reference_at_least(q, r, delta, h, a, Fraction(m))
    assert not reference_at_least(q, r, delta, h, a, Fraction(m + 1))
    if rep["exact"]:
        assert Fraction(rep["exponent"]).denominator == 1
        assert math.floor(Fraction(rep["value"])) == m
        assert reference_at_least(q, r, delta, h, a, Fraction(rep["value"]))
        assert not reference_at_least(q, r, delta, h, a, Fraction(rep["value"]) + Fraction(1, 10**40))
    else:
        assert Fraction(rep["exponent"]).denominator > 1
        lo, hi = (Fraction(s) for s in rep["interval"])
        assert reference_at_least(q, r, delta, h, a, lo)
        assert not reference_at_least(q, r, delta, h, a, hi)
        assert 0 < float(rep["width_rel"]) < 1e-25


@st.composite
def grid_rows(draw):
    h = draw(st.integers(0, 11))
    return (draw(st.sampled_from(PRIME_POWERS)), draw(st.integers(1, 7)),
            draw(st.integers(2, 4)), h, draw(st.integers(0, h)))


@settings(max_examples=400, deadline=None)
@given(grid_rows())
def test_floor_is_exact_on_the_grid(row):
    rep = length_bound(*row)
    if rep["applicable"]:
        assert_floor_exact(*row, rep)
    else:
        assert rep["T"] < 2 and "floor" not in rep


# rows whose value (or its interval) was an integer, which a floating
# enclosure cannot certify
RATIONAL_ROWS = [
    ((4, 5, 2, 7, 0), 101),
    ((4, 5, 2, 8, 1), 102),
    ((4, 5, 2, 9, 2), 103),
    ((4, 5, 2, 10, 3), 104),
    ((4, 5, 2, 11, 4), 105),
    ((9, 3, 2, 10, 0), 6559),
    ((9, 3, 2, 11, 1), 6560),
    ((4, 1, 3, 11, 0), 4074),
]


@pytest.mark.parametrize("row, floor", RATIONAL_ROWS, ids=lambda x: str(x))
def test_rational_fractional_powers_have_exact_floors(row, floor):
    rep = length_bound(*row)
    assert not rep["exact"] and rep["floor"] == floor
    assert_floor_exact(*row, rep)
    q, r, delta, h, a = row
    per_a = classify(100, 5, h + delta, r, delta, q)["length_bound"]
    assert per_a["per_a"][a]["floor"] == floor
    assert per_a["best_n_max"] == min(b["floor"] for b in per_a["per_a"] if b["applicable"])


def test_classify_reports_the_exponent_of_the_best_offset():
    for q, r, delta, h in [(11, 2, 2, 7), (4, 5, 2, 7), (79, 7, 3, 6), (9, 3, 2, 11)]:
        lb = classify(100, 5, h + delta, r, delta, q)["length_bound"]
        best = next(b for b in lb["per_a"] if b["applicable"] and b["floor"] == lb["best_n_max"])
        power = reference_terms(q, delta, h, best["a"])[1]
        assert Fraction(lb["order_optimal_exponent"]) == power - 1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**80), st.integers(1, 9))
def test_integer_root_is_the_floor_root(x, v):
    y = iroot(x, v)
    assert y**v <= x < (y + 1) ** v


def test_integer_root_matches_the_start_from_above():
    """The root from the float estimate is the one Newton's method gives
    from 2^ceil(bits/v): on random x of up to 30,000 bits with v up to the
    bit length, log-uniform, and on both sides of exact powers y^v with
    large y and v, where a start below the root would stop at once."""
    rng = random.Random(30)
    cases = []
    for _ in range(150):
        bits = rng.randint(1, 30000)
        v = int(math.exp(rng.uniform(0, math.log(bits + 1))))
        cases.append((rng.getrandbits(bits) | 1 << (bits - 1), max(v, 1)))
    for _ in range(20):
        y, v = rng.getrandbits(rng.randint(2, 3000)) | 2, rng.randint(2, 40)
        cases += [(y**v - 1, v), (y**v, v), (y**v + 1, v)]
    for x, v in cases:
        y = iroot(x, v)
        assert y == iroot_from_above(x, v)
        assert y**v <= x < (y + 1) ** v


def test_agrees_with_mpmath():
    mpmath = pytest.importorskip("mpmath")
    qs = (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 49, 64, 81, 121, 125, 243, 256)
    eps = mpmath.mpf(10) ** -60
    with mpmath.workdps(80):
        for q, r, delta, h in itertools.product(qs, (1, 2, 5, 7), (2, 3, 4), range(12)):
            for a in range(h + 1):
                rep = length_bound(q, r, delta, h, a)
                if not rep["applicable"]:
                    continue
                t, odd = rep["T"], rep["T"] % 2
                power = mpmath.power(q, mpmath.mpf(2 * (h - a - odd)) / (t - odd))
                value = (mpmath.mpf(r + delta - 1) / r
                         * (mpmath.mpf(t - odd) / (2 * (q - 1)) * power + a + odd)
                         - mpmath.mpf(h * (delta - 1)) / r)
                # an integral value may come out a hair below itself
                assert rep["floor"] == int(mpmath.floor(value + eps))
                if not rep["exact"]:
                    lo, hi = (mpmath.mpf(s) for s in rep["interval"])
                    assert lo - eps <= value <= hi
