from fractions import Fraction

import pytest

from lrckit.bounds import classify, length_bound, singleton_bound
from lrckit.errors import InvalidParameter


def test_singleton_examples():
    assert singleton_bound(24, 14, 2, 2) == 5
    assert singleton_bound(657, 505, 7, 3) == 9
    # r >= k collapses to the classical bound
    assert singleton_bound(10, 4, 6, 3) == 7
    with pytest.raises(InvalidParameter):
        singleton_bound(10, 0, 2, 2)


@pytest.mark.parametrize("q", [0, 1, 6, 12, 100])
def test_bounds_reject_non_prime_power_q(q):
    with pytest.raises(InvalidParameter):
        length_bound(q, 2, 2, 3, 0)
    with pytest.raises(InvalidParameter):
        classify(24, 14, 5, 2, 2, q)


@pytest.mark.parametrize("k, d", [(0, 5), (25, 5), (14, 0), (14, 25), (14, 1600)])
def test_classify_rejects_k_and_d_outside_the_length(k, d):
    """k and d must lie in [1, n], n = 24; the per-offset bounds of a d past
    n, whose count and cost grow with d, are never computed."""
    with pytest.raises(InvalidParameter, match=r"must lie in \[1, 24\]"):
        classify(24, k, d, 2, 2, 11)


def test_length_bound_example1_parameters():
    rep = length_bound(11, 2, 2, 3, 0)
    assert rep["applicable"] and rep["branch"] == "even"
    assert rep["exact"]
    assert Fraction(rep["value"]) == Fraction(3963, 20)
    assert rep["floor"] == 198


def test_length_bound_inapplicable():
    rep = length_bound(11, 2, 2, 3, 2)  # T(2) = floor(2/2) = 1
    assert not rep["applicable"]
    with pytest.raises(InvalidParameter):
        length_bound(11, 2, 2, 3, 9)


def test_length_bound_example3_parameters():
    rep = length_bound(79, 7, 3, 6, 2)
    assert rep["applicable"] and rep["T"] == 2
    assert rep["exact"]
    assert 657 <= rep["floor"]


def test_length_bound_fractional_exponent():
    rep = length_bound(11, 2, 2, 7, 0)  # T = 4, exponent 7/2
    assert rep["applicable"] and not rep["exact"]
    assert rep["floor_certified"]
    assert float(rep["width_rel"]) < 1e-6
    assert rep["floor"] == 1320


def test_length_bound_monotone_in_q():
    floors = [length_bound(q, 2, 2, 3, 0)["floor"] for q in (11, 13, 16, 17, 19, 23)]
    assert floors == sorted(floors)


def test_classify_example1():
    rep = classify(24, 14, 5, 2, 2, 11)
    assert rep["optimal"]
    assert rep["r_divides_k"]
    lb = rep["length_bound"]
    assert lb["best_n_max"] == 198
    assert lb["length_ok"] and not lb["advisory"]


def test_classify_flags_violation():
    # fabricated: n far beyond the best bound must be flagged
    rep = classify(10**6, 10**6 - 10, 5, 2, 2, 11)
    assert not rep["length_bound"]["length_ok"]


def test_classify_example3():
    rep = classify(657, 505, 9, 7, 3, 79)
    assert rep["optimal"]
    assert not rep["r_divides_k"]  # v < r, bound advisory
    assert rep["length_bound"]["advisory"]
    assert rep["length_bound"]["length_ok"]


def test_classify_wrong_h_inapplicable():
    rep = classify(24, 14, 5, 2, 2, 11, h=2)  # d != h + delta
    assert rep["length_bound"]["applicable"] is False
