"""Per-row references for the differential tests of the codec: the
structural parity check synthesised one sparse row ``(pivot, coords,
coeffs)`` at a time, and the encoder that evaluates those rows one
``field.dot`` per row.  The library keeps the rows in groups
(``EvaluationLayout.check_groups``), evaluates them all in one pass of a
row plan (``FiniteField.run_plan``), and multiplies out prod (x - r) by
the field's ``root_product``; these functions are the plain versions it
is compared against, and are not used by the library.
"""

from lrckit.algebra import lagrange_basis


def value_from_roots(fld, roots, x) -> int:
    """prod (x - r) over the roots, one field multiplication at a time."""
    acc = 1
    for r in roots:
        acc = fld.mul(acc, fld.sub(x, r))
    return acc


def check_rows(layout) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """The structural parity check as sparse rows: every codeword has
    ``word[pivot] = sum(c * word[j] for j, c in zip(coords, coeffs))``.
    delta-1 local rows per block, block by block: the Lagrange basis of the
    block's information points at each local-parity point.  Then one
    global row per point s of S: the same bases at s, each scaled by
    Delta(s)/g_i(s)."""
    fld = layout.field
    rows, bases = [], []
    for b, a in enumerate(layout.sets):
        cnt = layout.interp_count(b)
        basis = lagrange_basis(fld, a[:cnt])
        bases.append(basis)
        info = layout.block_coords(b)[:cnt]
        for t in range(cnt, len(a)):
            rows.append((layout.coord(b, t), info, tuple(basis(a[t]))))
    roots = [x for a in layout.sets for x in a]
    for j, s in enumerate(layout.s_points):
        delta_s = value_from_roots(fld, roots, s)
        coeffs = []
        for basis, a in zip(bases, layout.sets):
            coeffs += fld.vec_scale(basis(s), fld.div(delta_s, value_from_roots(fld, a, s)))
        rows.append((layout.global_coord(j), layout.info_coords, tuple(coeffs)))
    return rows


def row_encode(layout, info, rows=None) -> list[int]:
    """Place the information on ``info_coords``, then fill every pivot with
    one ``field.dot`` of its row with the word."""
    dot = layout.field.dot
    word = [0] * layout.n
    for c, x in zip(layout.info_coords, info):
        word[c] = x
    for pivot, coords, coeffs in rows or check_rows(layout):
        word[pivot] = dot(coeffs, map(word.__getitem__, coords))
    return word
