"""Combinatorial designs: Steiner systems from affine, projective and
spherical geometries, cyclotomic regular packings, verification, and the
Johnson bound on packing size.

Points are always 0-based dense integer labels; ``point_names`` keeps the
algebraic description of each label so layouts can embed the points into
evaluation fields deterministically.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field

from .algebra import MAX_DESIGN, FiniteField, factor_prime_power
from .errors import InvalidParameter


@dataclass
class Design:
    """Point set plus block list with the parameters it claims to satisfy.

    ``tau`` is the covering strength (every tau-subset of points lies in at
    most one block); ``block_size`` is the uniform block size; ``regularity``
    is the replication number when every point lies in the same number of
    blocks, else None.
    """

    num_points: int
    blocks: list[tuple[int, ...]]
    tau: int
    block_size: int
    regularity: int | None = None
    steiner: bool = False
    point_names: list[str] = dc_field(default_factory=list)

    def __post_init__(self):
        for b in self.blocks:
            if len(b) != self.block_size:
                raise InvalidParameter("block size mismatch")
            if any(not (0 <= p < self.num_points) for p in b):
                raise InvalidParameter("block references unknown point")


@dataclass
class DesignReport:
    is_packing: bool
    is_steiner: bool
    regularity: int | None     # None when the design is not point-regular
    exhaustive: bool
    checked_subsets: int
    seed: int | None = None


def _pack_vector(vec, q1: int) -> int:
    acc = 0
    for c in reversed(vec):
        acc = acc * q1 + c
    return acc


def _guarded_power(geometry: str, q1: int, e: int, steps) -> int:
    """q1^e, once ``steps(q1^e)``, the steps of the construction, are found
    within ``MAX_DESIGN``; InvalidParameter otherwise.  Every construction
    takes at least q1^e steps and q1 >= 2, so a huge e is refused before
    the power is taken."""
    if e >= MAX_DESIGN.bit_length() or steps(q1**e) > MAX_DESIGN:
        raise InvalidParameter(
            f"{geometry} would take more than MAX_DESIGN = {MAX_DESIGN} steps to build")
    return q1**e


def ag_steiner(q1: int, beta: int) -> Design:
    """Steiner system of lines in the affine geometry AG(beta, q1):
    a (2, q1, q1^beta)-Steiner system.

    The construction tries n base points for each of the (n - 1)/(q1 - 1)
    directions, n = q1^beta, which is the number of blocks times q1;
    InvalidParameter is raised before it starts when that exceeds
    ``MAX_DESIGN``.
    """
    if beta < 2:
        raise InvalidParameter("beta must be >= 2")
    p, m = factor_prime_power(q1)
    n = _guarded_power(f"AG({beta}, {q1})", q1, beta,
                       lambda points: points * (points - 1) // (q1 - 1))
    fld = FiniteField(p, m)
    vectors = list(itertools.product(range(q1), repeat=beta))
    index = {v: _pack_vector(v, q1) for v in vectors}
    blocks = []
    for b in vectors:
        # one direction per parallel class: its first nonzero coordinate is 1
        i = next((j for j, c in enumerate(b) if c), None)
        if i is None or b[i] != 1:
            continue
        # one base point per line: the point that is 0 at coordinate i
        for a in vectors:
            if a[i] == 0:
                blocks.append(tuple(sorted(
                    index[tuple(fld.vec_sub(a, fld.neg(t), b))] for t in range(q1)
                )))
    blocks.sort()
    expect = q1 ** (beta - 1) * (n - 1) // (q1 - 1)
    if len(blocks) != expect:
        raise InvalidParameter("affine line count mismatch")
    names = ["(" + ",".join(str(c) for c in v) + ")" for v in vectors]
    return Design(
        num_points=n,
        blocks=blocks,
        tau=2,
        block_size=q1,
        regularity=(n - 1) // (q1 - 1),
        steiner=True,
        point_names=names,
    )


def pg_steiner(q1: int, beta: int) -> Design:
    """Steiner system of lines in the projective geometry PG(beta, q1):
    a (2, q1+1, (q1^(beta+1)-1)/(q1-1))-Steiner system.

    The construction visits, and records, each of the C(n, 2) point pairs
    once, n the point count, which is the number of blocks times
    C(q1 + 1, 2); InvalidParameter is raised before it starts when that
    exceeds ``MAX_DESIGN``.
    """
    if beta < 2:
        raise InvalidParameter("beta must be >= 2")
    p, m = factor_prime_power(q1)
    _guarded_power(f"PG({beta}, {q1})", q1, beta + 1,
                   lambda power: math.comb((power - 1) // (q1 - 1), 2))
    fld = FiniteField(p, m)
    dim = beta + 1
    vectors = [v for v in itertools.product(range(q1), repeat=dim) if any(v)]
    reps = sorted({fld.normalize(v) for v in vectors})
    index = {v: i for i, v in enumerate(reps)}
    blocks = []
    covered = set()  # point pairs on a line already built
    for i, u in enumerate(reps):
        for j in range(i + 1, len(reps)):
            if (i, j) in covered:
                continue
            w = reps[j]
            pts = {i, j}
            for t in range(1, q1):
                s = fld.normalize(fld.vec_sub(u, fld.neg(t), w))
                pts.add(index[s])
            line = tuple(sorted(pts))
            blocks.append(line)
            covered.update(itertools.combinations(line, 2))
    blocks.sort()
    n = (q1**dim - 1) // (q1 - 1)
    names = ["<" + ",".join(str(c) for c in v) + ">" for v in reps]
    return Design(
        num_points=n,
        blocks=blocks,
        tau=2,
        block_size=q1 + 1,
        regularity=(n - 1) // q1,
        steiner=True,
        point_names=names,
    )


def sg_steiner(q1: int, beta: int) -> Design:
    """Steiner system of circles in the spherical geometry over F_{q1^beta}:
    a (3, q1+1, q1^beta+1)-Steiner system on the projective line.

    Blocks are the distinct images of the subline F_{q1} + {inf} under all
    invertible Moebius maps, deduplicated as point sets.  The construction
    maps the q1 + 1 points of the subline by each of the q^4 coefficient
    quadruples, q = q1^beta; InvalidParameter is raised before any field is
    built when those q^4 (q1 + 1) steps exceed ``MAX_DESIGN``.
    """
    if beta < 2:
        raise InvalidParameter("beta must be >= 2")
    p, m = factor_prime_power(q1)
    _guarded_power(f"the spherical geometry over F_{q1}^{beta}", q1, beta,
                   lambda q: q**4 * (q1 + 1))
    big = FiniteField(p, m * beta)
    q = big.q
    INF = q  # label for the point at infinity
    subline = [x for x in big.elements() if big.pow(x, q1) == x] + [INF]

    def moebius(a, b, c, d, x):
        if x == INF:
            return big.div(a, c) if c else INF
        den = big.add(big.mul(c, x), d)
        num = big.add(big.mul(a, x), b)
        if den == 0:
            return INF
        return big.div(num, den)

    circles = set()
    for a in big.elements():
        for b in big.elements():
            for c in big.elements():
                for d in big.elements():
                    if big.sub(big.mul(a, d), big.mul(b, c)) == 0:
                        continue
                    img = tuple(sorted(moebius(a, b, c, d, x) for x in subline))
                    circles.add(img)
    blocks = sorted(circles)
    n = q + 1
    names = [str(x) for x in big.elements()] + ["inf"]
    reg, rem = divmod(math.comb(n - 1, 2), math.comb(q1, 2))
    return Design(
        num_points=n,
        blocks=blocks,
        tau=3,
        block_size=q1 + 1,
        regularity=reg if rem == 0 else None,
        steiner=True,
        point_names=names,
    )


def cyclotomic_packing(prime_powers: list[int], e: int) -> Design:
    """Regular 2-(e*n2, e, 1)-packing built from cyclotomic cosets of the
    product group of u finite fields with pairwise coprime orders.

    Requires e > 1 and e | (p_i^{m_i} - 1) for every factor.  Regularity is
    prod(p_i^{m_i} - 1) / e^u.
    """
    if e <= 1:
        raise InvalidParameter("e must be > 1")
    flds = []
    for q in prime_powers:
        p, m = factor_prime_power(q)
        if (q - 1) % e != 0:
            raise InvalidParameter(f"e={e} does not divide {q}-1")
        flds.append(FiniteField(p, m))
    for qa, qb in itertools.combinations(prime_powers, 2):
        if math.gcd(qa, qb) != 1:
            raise InvalidParameter("component orders must be pairwise coprime")
    u = len(flds)
    n2 = math.prod(f.q for f in flds)
    gens = [f.generator for f in flds]
    beta = [f.pow(g, (f.q - 1) // e) for f, g in zip(flds, gens)]

    def t_index(elem: tuple[int, ...]) -> int:
        acc = 0
        for f, x in zip(reversed(flds), reversed(elem)):
            acc = acc * f.q + x
        return acc

    def label(j: int, elem: tuple[int, ...]) -> int:
        return j * n2 + t_index(elem)

    blocks = []
    exponent_ranges = [range((f.q - 1) // e) for f in flds]
    t_elements = list(itertools.product(*[f.elements() for f in flds]))
    for J in itertools.product(*exponent_ranges):
        alpha_J = tuple(f.pow(g, j) for f, g, j in zip(flds, gens, J))
        powers = []
        cur = alpha_J
        for _ in range(e):
            powers.append(cur)
            cur = tuple(f.mul(x, b) for f, x, b in zip(flds, cur, beta))
        for eps in t_elements:
            block = tuple(
                sorted(
                    label(j, tuple(f.add(x, ev) for f, x, ev in zip(flds, powers[j], eps)))
                    for j in range(e)
                )
            )
            blocks.append(block)
    blocks = sorted(blocks)
    if len(set(blocks)) != len(blocks):
        raise InvalidParameter("cyclotomic construction produced duplicate blocks")
    w = math.prod(f.q - 1 for f in flds) // e**u
    names = [
        f"({j},{','.join(str(x) for x in elem)})"
        for j in range(e)
        for elem in t_elements
    ]
    # names above are ordered to match label(); t_elements is already in
    # t_index order because itertools.product varies the last factor fastest
    return Design(
        num_points=e * n2,
        blocks=blocks,
        tau=2,
        block_size=e,
        regularity=w,
        steiner=False,
        point_names=names,
    )


SUBSET_GUARD = 10**6  # most tau-subsets checked exhaustively
SAMPLE_COUNT = 10**5  # tau-subsets sampled above the guard


def verify_design(d: Design, seed: int = 0) -> DesignReport:
    """Check the packing / Steiner / regularity axioms.

    Exhaustive over all tau-subsets when their number is within
    ``SUBSET_GUARD``; otherwise ``SAMPLE_COUNT`` tau-subsets are drawn from
    ``seed`` and the report is flagged as non-exhaustive.
    """
    cover: dict[tuple[int, ...], int] = {}
    is_packing = True
    for b in d.blocks:
        for sub in itertools.combinations(sorted(b), d.tau):
            cover[sub] = cover.get(sub, 0) + 1
            if cover[sub] > 1:
                is_packing = False
    if len(set(d.blocks)) != len(d.blocks):
        is_packing = False

    total = math.comb(d.num_points, d.tau)
    exhaustive = total <= SUBSET_GUARD
    used_seed = None
    if exhaustive:
        is_steiner = is_packing and len(cover) == total
        checked = total
    else:
        rng = random.Random(seed)
        used_seed = seed
        checked = SAMPLE_COUNT
        is_steiner = is_packing
        pts = range(d.num_points)
        for _ in range(SAMPLE_COUNT):
            sub = tuple(sorted(rng.sample(pts, d.tau)))
            if cover.get(sub, 0) != 1:
                is_steiner = False
                break

    counts = [0] * d.num_points
    for b in d.blocks:
        for p in b:
            counts[p] += 1
    regularity = counts[0] if d.num_points and len(set(counts)) == 1 else None
    return DesignReport(
        is_packing=is_packing,
        is_steiner=is_steiner,
        regularity=regularity,
        exhaustive=exhaustive,
        checked_subsets=checked,
        seed=used_seed,
    )


def johnson_bound(n1: int, t: int, tau: int) -> int:
    """Johnson bound on the number of blocks of a (tau+1)-(n1, t, 1)-packing:
    nested floors with tau+1 levels, innermost (n1-tau)/(t-tau).
    """
    if not (n1 >= t >= tau + 1 >= 2):
        raise InvalidParameter("need n1 >= t >= tau+1 >= 2")
    acc = (n1 - tau) // (t - tau)
    for i in range(tau - 1, -1, -1):
        acc = (n1 - i) * acc // (t - i)
    return acc


# ----------------------------------------------------------------------
# design text format: line 1 "n tau t"; one block of point indices per line


def dump_design(d: Design) -> str:
    lines = [f"{d.num_points} {d.tau} {d.block_size}"]
    for b in d.blocks:
        lines.append(" ".join(str(p) for p in b))
    return "\n".join(lines) + "\n"


def load_design(text: str) -> Design:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidParameter("empty design file")
    try:
        n, tau, t = (int(x) for x in lines[0].split())
        blocks = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
    except ValueError as exc:  # a token that is not an integer, a short header
        raise InvalidParameter(f"malformed design file: {exc}") from None
    return Design(num_points=n, blocks=blocks, tau=tau, block_size=t)
