"""Checks of the congruence-style construction from its definition: the
defining congruences evaluated with polynomials, and a matrix carried into
an extension field.  Not used by the library.
"""

from lrckit.algebra import Matrix, Poly, poly_from_roots


def embed_matrix(mat: Matrix, big, emb: list[int]) -> Matrix:
    return Matrix(big, [[emb[x] for x in row] for row in mat.rows], mat.ncols)


def congruences_hold(params, word) -> bool:
    """Check the defining congruences on a vector without rational
    functions: sum_j v_j * prod_{j' != j}(x - gamma_{j'}) must vanish
    modulo the relevant modulus (the full product is invertible there)."""
    fld = params.field

    def residue(points, values, modulus):
        acc = Poly.zero(fld)
        for j, (x, v) in enumerate(zip(points, values)):
            if v == 0:
                continue
            others = [y for t, y in enumerate(points) if t != j]
            acc = acc + poly_from_roots(fld, others).scale(v)
        return (acc % modulus).is_zero()

    for i, s in enumerate(params.local_sets):
        coords = params.local_coords(i)
        if not residue(list(s), [word[c] for c in coords], params.g1):
            return False
    if params.h:
        gammas = params.gamma_seq()
        if not residue(gammas, list(word), params.g2):
            return False
    return True
