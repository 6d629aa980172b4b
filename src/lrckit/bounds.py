"""Closed-form bound calculators: the Singleton-type distance bound for
codes with information locality, the length bound on optimal codes, and an
optimality classifier.

The length bound is A * q^(u/v) + B with A > 0, B rational and exponent
u/v = 2(h-a)/T(a) (2(h-a-1)/(T(a)-1) for odd T).  Its floor is exact for
every exponent: value >= m iff m - B <= 0 or (m - B)^v <= A^v * q^u, an
integer comparison that corrects the estimate an integer v-th root gives.
"""

from __future__ import annotations

import math
from decimal import ROUND_CEILING, ROUND_FLOOR, Context
from fractions import Fraction

from .algebra import factor_prime_power, iroot
from .errors import InvalidParameter


def singleton_bound(n: int, k: int, r: int, delta: int) -> int:
    """Upper bound on the minimum distance of an [n, k] code whose
    information symbols have (r, delta)-locality."""
    if k < 1 or r < 1 or delta < 1:
        raise InvalidParameter("need k >= 1, r >= 1 and delta >= 1")
    return n - k + 1 - (math.ceil(k / r) - 1) * (delta - 1)


def _digits(x: Fraction, prec: int, rounding: str) -> str:
    return str(Context(prec=prec, rounding=rounding).divide(x.numerator, x.denominator))


def length_bound(q: int, r: int, delta: int, h: int, a: int) -> dict:
    """Length bound for optimal codes with d = h + delta at offset a.

    Returns a dict with ``applicable`` False when T(a) < 2; otherwise the
    branch used, the exponent, and the floor of the bound, which is always
    exact (``floor_certified`` is always true).  An integral exponent
    (``exact``) also gives the rational value; a fractional one gives an
    enclosing interval of 30 significant digits.  Raises InvalidParameter
    unless q is a prime power, r >= 1 and delta >= 1.
    """
    factor_prime_power(q)
    if r < 1 or delta < 1:
        raise InvalidParameter("need r >= 1 and delta >= 1")
    if not (0 <= a <= h):
        raise InvalidParameter("need 0 <= a <= h")
    t_a = (h + delta - a - 1) // delta
    out: dict = {"a": a, "T": t_a, "q": q}
    if t_a < 2:
        out["applicable"] = False
        return out
    odd = t_a % 2
    exponent = Fraction(2 * (h - a - odd), t_a - odd)
    out.update(applicable=True, branch="odd" if odd else "even", exponent=str(exponent))
    u, v = exponent.numerator, exponent.denominator
    ratio = Fraction(r + delta - 1, r)
    lead = ratio * Fraction(t_a - odd, 2 * (q - 1))
    base = ratio * (a + odd) - Fraction(h * (delta - 1), r)

    def scaled_power(s: int) -> int:  # floor(s * lead * q^(u/v))
        return iroot(q**u * (s * lead.numerator) ** v, v) // lead.denominator

    def at_least(m: int) -> bool:  # value >= m
        gap = m - base
        return gap <= 0 or gap**v <= lead**v * q**u

    # value lies in [scaled_power(1) + base, scaled_power(1) + base + 1)
    floor = math.floor(scaled_power(1) + base)
    while at_least(floor + 1):
        floor += 1
    out.update(floor=floor, floor_certified=True, exact=v == 1)
    if v == 1:
        out.update(value=str(lead * q**u + base), width_rel="0")
        return out
    scale = 10**30
    lo = Fraction(scaled_power(scale), scale) + base
    hi = lo + Fraction(1, scale)
    out["interval"] = [_digits(lo, 30, ROUND_FLOOR), _digits(hi, 30, ROUND_CEILING)]
    out["width_rel"] = _digits((hi - lo) / lo, 5, ROUND_CEILING)
    return out


def classify(
    n: int,
    k: int,
    d: int,
    r: int,
    delta: int,
    q: int,
    h: int | None = None,
) -> dict:
    """Optimality and length classification of one code.

    ``optimal`` compares d with the Singleton-type bound.  The length bound
    assumes d = h + delta and r | k; when k is not divisible by r the bound
    is still evaluated but flagged advisory, and when d != h + delta the
    bound is marked inapplicable.  Raises InvalidParameter unless q is a
    prime power, k and d lie in [1, n], r >= 1 and delta >= 1.
    """
    factor_prime_power(q)
    if not (1 <= k <= n and 1 <= d <= n):
        raise InvalidParameter(f"k and d must lie in [1, {n}], got k = {k}, d = {d}")
    singleton = singleton_bound(n, k, r, delta)
    out: dict = {
        "n": n,
        "k": k,
        "d": d,
        "q": q,
        "singleton": singleton,
        "optimal": d == singleton,
        "r_divides_k": k % r == 0,
    }
    h_eff = d - delta
    if h is not None and h != h_eff:
        out["length_bound"] = {
            "applicable": False,
            "reason": f"d = {d} != h + delta = {h + delta}",
        }
        return out
    if h_eff < 0:
        out["length_bound"] = {"applicable": False, "reason": "d < delta"}
        return out
    per_a = [length_bound(q, r, delta, h_eff, a) for a in range(h_eff + 1)]
    floors = [b["floor"] for b in per_a if b["applicable"]]
    best = min(floors) if floors else None
    entry = {
        "h": h_eff,
        "per_a": per_a,
        "best_n_max": best,
        "length_ok": (best is None) or n <= best,
        "advisory": k % r != 0,
    }
    if best is not None:
        b = next(b for b in per_a if b["applicable"] and b["floor"] == best)
        entry["order_optimal_exponent"] = str(Fraction(b["exponent"]) - 1)
    out["length_bound"] = entry
    return out
