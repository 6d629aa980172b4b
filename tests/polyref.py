"""Dense-polynomial references for the differential tests: the paper's
two-step polynomial encoder, built exactly as it is defined, and the search
for a field's primitive element by square-and-multiply of polynomial
products.  The library encodes through the cached rows of the structural
parity check and finds the primitive element by walking multiplication
tables instead; these functions are the slow oracles it is compared
against, and are not used by the library.
"""

import math

from lrckit.algebra import FiniteField, Poly, interpolate, poly_from_roots


def block_polys(layout, info) -> list[Poly]:
    """Step 1: the interpolation polynomial of every block, through its
    information symbols at the block's first |A_i|-delta+1 points."""
    assert len(info) == layout.params.k
    polys = []
    pos = 0
    for b, a in enumerate(layout.sets):
        cnt = layout.interp_count(b)
        polys.append(interpolate(layout.field, list(zip(a[:cnt], info[pos: pos + cnt]))))
        pos += cnt
    return polys


def g_poly(layout, block: int) -> Poly:
    """g_i = prod_{x in A_i} (x - y)."""
    return poly_from_roots(layout.field, layout.sets[block])


def global_poly(layout, polys) -> Poly:
    """Step 2: sum_i f_i * prod_{j != i} g_j, with prefix and suffix
    products so that no rational function appears."""
    fld = layout.field
    gs = [g_poly(layout, b) for b in range(len(layout.sets))]
    prefix = [Poly.one(fld)]
    for g in gs[:-1]:
        prefix.append(prefix[-1] * g)
    suffix = [Poly.one(fld)] * len(gs)
    for i in range(len(gs) - 2, -1, -1):
        suffix[i] = suffix[i + 1] * gs[i + 1]
    acc = Poly.zero(fld)
    for f, pre, suf in zip(polys, prefix, suffix):
        acc = acc + f * pre * suf
    return acc


def poly_encode(layout, info) -> list[int]:
    """The codeword of the two-step encoder: every block's polynomial at
    its points, then the step-2 polynomial at the points of S."""
    polys = block_polys(layout, info)
    word = [f(x) for f, a in zip(polys, layout.sets) for x in a]
    f_comb = global_poly(layout, polys)
    return word + [f_comb(s) for s in layout.s_points]


def square_and_multiply_generator(fld) -> int:
    """The smallest-encoded element of multiplicative order q - 1 (1 for
    F_2): g is primitive iff g^((q-1)/l) != 1 for every prime l dividing
    q - 1, each power taken by square-and-multiply, each product a
    polynomial product over F_p reduced modulo the field's modulus."""
    q = fld.q
    fp = FiniteField(fld.p)
    mod = Poly(fp, fld.modulus)

    def mul(a, b):
        prod = Poly(fp, fld.coords(a)) * Poly(fp, fld.coords(b)) % mod
        return fld.from_coords(prod.coeffs)

    def power(x, e):
        acc = 1
        while e:
            if e & 1:
                acc = mul(acc, x)
            e >>= 1
            if e:
                x = mul(x, x)
        return acc

    primes = [f for f in range(2, q) if (q - 1) % f == 0
              and all(f % d for d in range(2, math.isqrt(f) + 1))]
    return next((g for g in range(2, q)
                 if all(power(g, (q - 1) // ell) != 1 for ell in primes)), 1)
