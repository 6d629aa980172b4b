"""Reference encoder for the differential tests: the paper's two-step
polynomial construction, built from dense polynomials exactly as it is
defined.  The library encodes through the cached rows of the structural
parity check instead; these functions are the slow oracle it is compared
against, and are not used by the library.
"""

from lrckit.algebra import Poly, interpolate, poly_from_roots


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
