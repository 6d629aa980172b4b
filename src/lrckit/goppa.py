"""Locally repairable codes in the style of classical Goppa codes: the code
is cut out by one modular congruence per local set (modulus of degree
delta-1) plus one global congruence (modulus of degree h).

The congruences translate into a structured parity-check matrix with one
weighted-Vandermonde block per local set and a global weighted-Vandermonde
band; over the splitting field of the two moduli the same code is cut out
by Cauchy blocks, which is what the distance argument runs on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (
    FiniteField,
    Matrix,
    Poly,
    subfield_embedding,
)
from .bounds import singleton_bound
from .erasure import min_distance
from .errors import InvalidParameter, NotSeparable
from .lrc import LinearCode


@dataclass
class GoppaParams:
    """Field, the two moduli, and the evaluation sets.

    ``local_sets`` are S_1..S_L (each of size r+delta-1, giving its
    coordinates locality); ``tail_set`` holds the up-to-h extra evaluation
    points whose coordinates have no locality.  The evaluation sequence is
    the concatenation of the local sets followed by the tail set.  Moduli
    coefficients and evaluation points are field elements, in [0, q).
    """

    field: FiniteField
    g1: Poly
    g2: Poly
    local_sets: list[tuple[int, ...]]
    tail_set: tuple[int, ...] = ()

    def __post_init__(self):
        q = self.field.q
        if not all(0 <= c < q for c in self.g1.coeffs + self.g2.coeffs):
            raise InvalidParameter(f"modulus coefficients must lie in [0, {q})")
        if not all(0 <= x < q for x in self.gamma_seq()):
            raise InvalidParameter(f"evaluation points must lie in [0, {q})")
        if self.g1.degree < 1:
            raise InvalidParameter("local modulus must have degree delta-1 >= 1")
        sizes = {len(s) for s in self.local_sets}
        if len(sizes) != 1:
            raise InvalidParameter("local sets must share one size")
        if len(self.tail_set) > self.h:
            raise InvalidParameter("tail set larger than h")
        for s in list(self.local_sets) + [self.tail_set]:
            if len(set(s)) != len(s):
                raise InvalidParameter("evaluation points repeat within a set")
        for x in self.gamma_seq():
            if self.g1(x) == 0 or self.g2(x) == 0:
                raise InvalidParameter(
                    "moduli must not vanish on any evaluation point"
                )

    @property
    def delta(self) -> int:
        return int(self.g1.degree) + 1

    @property
    def h(self) -> int:
        return int(self.g2.degree) if not self.g2.is_zero() else 0

    @property
    def ell(self) -> int:
        return len(self.local_sets)

    @property
    def r(self) -> int:
        return len(self.local_sets[0]) - self.delta + 1

    @property
    def n(self) -> int:
        return sum(len(s) for s in self.local_sets) + len(self.tail_set)

    def gamma_seq(self) -> list[int]:
        out = []
        for s in self.local_sets:
            out.extend(s)
        out.extend(self.tail_set)
        return out

    def local_coords(self, i: int) -> tuple[int, ...]:
        w = len(self.local_sets[0])
        return tuple(range(i * w, (i + 1) * w))


def parity_check(params: GoppaParams) -> Matrix:
    """Structured parity check: per local set, delta-1 rows of
    gamma^t / G1(gamma); globally, h rows of gamma^t / G2(gamma)."""
    fld = params.field
    n = params.n
    rows = []
    for i, s in enumerate(params.local_sets):
        inv1 = [fld.inv(params.g1(x)) for x in s]
        base = params.local_coords(i)[0]
        for t in range(params.delta - 1):
            row = [0] * n
            for j, x in enumerate(s):
                row[base + j] = fld.mul(inv1[j], fld.pow(x, t))
            rows.append(row)
    gammas = params.gamma_seq()
    inv2 = [fld.inv(params.g2(x)) for x in gammas]
    for t in range(params.h):
        rows.append([fld.mul(inv2[j], fld.pow(x, t)) for j, x in enumerate(gammas)])
    return Matrix(fld, rows, n)


def build_code(params: GoppaParams) -> LinearCode:
    h = parity_check(params)
    return LinearCode(
        k=params.n - len(h.eliminate(range(h.ncols), stop=False)[0]),
        check=h,
        repair_sets=[params.local_coords(i) for i in range(params.ell)],
        delta=params.delta,
    )


# ----------------------------------------------------------------------
# splitting field and the Cauchy form


def _roots_with_multiplicity(poly: Poly, fld: FiniteField) -> list[tuple[int, int]]:
    out = []
    rem = poly
    for x in fld.elements():
        mult = 0
        while not rem.is_zero() and rem(x) == 0:
            rem = rem // Poly(fld, [fld.neg(x), 1])
            mult += 1
        if mult:
            out.append((x, mult))
    return out


MAX_SPLITTING_ORDER = 2**16  # largest extension field the root search builds


def splitting_field_data(params: GoppaParams):
    """Smallest extension of the base field where both moduli split, plus
    the embedded root lists.  Raises NotSeparable on repeated roots, and
    InvalidParameter when that field has more than ``MAX_SPLITTING_ORDER``
    elements."""
    base = params.field
    total = params.delta - 1 + params.h
    d = 1
    while True:
        q_ext = base.p ** (base.m * d)
        if q_ext > MAX_SPLITTING_ORDER:
            raise InvalidParameter(
                f"splitting field would exceed the order guard {MAX_SPLITTING_ORDER}"
            )
        big = base if d == 1 else FiniteField(base.p, base.m * d)
        emb = subfield_embedding(base, big)
        g1 = Poly(big, [emb[c] for c in params.g1.coeffs])
        g2 = Poly(big, [emb[c] for c in params.g2.coeffs])
        r1 = _roots_with_multiplicity(g1, big)
        r2 = _roots_with_multiplicity(g2, big)
        if any(m > 1 for _, m in r1 + r2):
            raise NotSeparable("moduli have repeated roots")
        if len(r1) + len(r2) == total:
            return big, emb, sorted(x for x, _ in r1), sorted(x for x, _ in r2)
        d += 1


def splitting_parity_check(params: GoppaParams):
    """Cauchy-form parity check over the splitting field: entry 1/(b - gamma)
    for each modulus root b.  Returns (matrix, info dict)."""
    big, emb, roots1, roots2 = splitting_field_data(params)
    n = params.n
    rows = []
    for i, s in enumerate(params.local_sets):
        base = params.local_coords(i)[0]
        for b in roots1:
            row = [0] * n
            for j, x in enumerate(s):
                row[base + j] = big.inv(big.sub(b, emb[x]))
            rows.append(row)
    gammas = params.gamma_seq()
    for b in roots2:
        rows.append([big.inv(big.sub(b, emb[x])) for x in gammas])
    info = {
        "base_order": params.field.q,
        "splitting_order": big.q,
        "local_roots": roots1,
        "global_roots": roots2,
    }
    return Matrix(big, rows, n), info


# ----------------------------------------------------------------------
# distance verification


def check_hypotheses(params: GoppaParams, t: int) -> dict:
    """Exhaustively check the overlap hypotheses: every (t+1)-subset D of
    local sets must satisfy the delta-1 intersection condition, and the
    tail set must avoid every local set.  Raises InvalidParameter for
    t < 0."""
    if t < 0:
        raise InvalidParameter(f"t must be non-negative, got {t}")
    sets = [set(s) for s in params.local_sets]
    overlap_ok = True
    witness = None
    for d_subset in itertools.combinations(range(params.ell), t + 1):
        for i in d_subset:
            union = set()
            for j in d_subset:
                if j != i:
                    union |= sets[j]
            if len(sets[i] & union) > params.delta - 1:
                overlap_ok = False
                witness = (i, d_subset)
                break
        if not overlap_ok:
            break
    tail_ok = all(not (set(params.tail_set) & s) for s in sets)
    return {
        "t": t,
        "overlap_ok": overlap_ok,
        "tail_disjoint": tail_ok,
        "witness": witness,
        "hold": overlap_ok and tail_ok,
    }


def distance_report(params: GoppaParams, t: int) -> dict:
    """Verify the distance guarantee d >= min{(t+1)delta, h+delta} by exact
    search, and — when the tail set is nonempty and h+delta <= (t+1)delta —
    the optimality claim d = h+delta with k = n - ell(delta-1) - h."""
    hyp = check_hypotheses(params, t)
    code = build_code(params)
    bound = min((t + 1) * params.delta, params.h + params.delta)
    measured = min_distance(code.check)
    k_formula = params.n - params.ell * (params.delta - 1) - params.h
    report = {
        "n": params.n,
        "k_measured": code.k,
        "k_formula": k_formula,
        "hypotheses": hyp,
        "distance_bound": bound,
        "distance_measured": measured,
        "bound_holds": measured >= bound if hyp["hold"] else None,
        "tail_size": len(params.tail_set),
    }
    opt_applicable = (
        hyp["hold"]
        and params.tail_set
        and params.h + params.delta <= (t + 1) * params.delta
    )
    if opt_applicable:
        singleton = singleton_bound(params.n, code.k, params.r, params.delta)
        report["optimality"] = {
            "expected_d": params.h + params.delta,
            "d_equals": measured == params.h + params.delta,
            "k_equals_formula": code.k == k_formula,
            "singleton": singleton,
            "optimal": measured == singleton,
        }
    return report
