"""Closed-form bound calculators: the Singleton-type distance bound for
codes with information locality, the length bound on optimal codes, and an
optimality classifier.

The length bound involves q raised to the rational exponent 2(h-a)/T(a)
(or 2(h-a-1)/(T(a)-1) for odd T); integral exponents are evaluated in exact
rational arithmetic and fractional ones with 128-bit interval arithmetic,
reporting a certified floor and the interval width.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from .algebra import factor_prime_power
from .errors import InvalidParameter


def singleton_bound(n: int, k: int, r: int, delta: int) -> int:
    """Upper bound on the minimum distance of an [n, k] code whose
    information symbols have (r, delta)-locality."""
    if k < 1 or r < 1:
        raise InvalidParameter("need k >= 1 and r >= 1")
    return n - k + 1 - (math.ceil(k / r) - 1) * (delta - 1)


def length_bound(q: int, r: int, delta: int, h: int, a: int) -> dict:
    """Length bound for optimal codes with d = h + delta at offset a.

    Returns a dict with ``applicable`` False when T(a) < 2; otherwise the
    branch used, the certified floor, and either the exact rational value
    or a certified enclosing interval.  Raises InvalidParameter unless q is
    a prime power.
    """
    factor_prime_power(q)
    if not (0 <= a <= h):
        raise InvalidParameter("need 0 <= a <= h")
    d = h + delta
    t_a = (d - a - 1) // delta
    out: dict = {"a": a, "T": t_a, "q": q}
    if t_a < 2:
        out["applicable"] = False
        return out
    out["applicable"] = True
    if t_a % 2 == 1:
        exponent = Fraction(2 * (h - a - 1), t_a - 1)
        lead = Fraction(t_a - 1, 2 * (q - 1))
        addend = a + 1
        out["branch"] = "odd"
    else:
        exponent = Fraction(2 * (h - a), t_a)
        lead = Fraction(t_a, 2 * (q - 1))
        addend = a
        out["branch"] = "even"
    ratio = Fraction(r + delta - 1, r)
    shift = Fraction(h * (delta - 1), r)
    out["exponent"] = str(exponent)
    if exponent.denominator == 1:
        value = ratio * (lead * Fraction(q) ** int(exponent) + addend) - shift
        out["exact"] = True
        out["value"] = str(value)
        out["floor"] = value.numerator // value.denominator
        out["width_rel"] = "0"
        return out
    with mpmath.workprec(128):
        iv = mpmath.iv
        iv.prec = 128
        qi = iv.mpf(q)
        expo = iv.mpf(exponent.numerator) / iv.mpf(exponent.denominator)
        power = iv.exp(expo * iv.log(qi))
        val = (
            iv.mpf(ratio.numerator) / iv.mpf(ratio.denominator)
            * (iv.mpf(lead.numerator) / iv.mpf(lead.denominator) * power + addend)
            - iv.mpf(shift.numerator) / iv.mpf(shift.denominator)
        )
        lo = mpmath.mpf(val.a)
        hi = mpmath.mpf(val.b)
        floor_lo = int(mpmath.floor(lo))
        floor_hi = int(mpmath.floor(hi))
        out["exact"] = False
        out["interval"] = [mpmath.nstr(lo, 30), mpmath.nstr(hi, 30)]
        out["width_rel"] = mpmath.nstr((hi - lo) / lo, 5)
        out["floor"] = floor_lo if floor_lo == floor_hi else None
        out["floor_certified"] = floor_lo == floor_hi
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
    prime power.
    """
    factor_prime_power(q)
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
    floors = [b["floor"] for b in per_a if b["applicable"] and b["floor"] is not None]
    best = min(floors) if floors else None
    entry = {
        "h": h_eff,
        "per_a": per_a,
        "best_n_max": best,
        "length_ok": (best is None) or n <= best,
        "advisory": k % r != 0,
    }
    if best is not None:
        for b in per_a:
            if b["applicable"] and b["floor"] == best:
                t_a = b["T"]
                if b["branch"] == "odd":
                    expo = Fraction(2 * (h_eff - b["a"] - 1), t_a - 1) - 1
                else:
                    expo = Fraction(2 * (h_eff - b["a"]), t_a) - 1
                entry["order_optimal_exponent"] = str(expo)
                break
    out["length_bound"] = entry
    return out
