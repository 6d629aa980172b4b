"""Two-pass reference for the differential tests of the structured
decoder.  It restores the erased information as the library's decoder
does, but reads the known part of each global parity it needs with one
``field.dot`` of its row of the structural parity check, then re-encodes
the whole information with ``lrc.encode``: a pass over the global rows,
then a pass of the encoder.  The library runs the encoder once, on the
information it knows, and adds the restored symbols by the rows'
coefficients; this function is the plain version it is compared against,
and is not used by the library.
"""

from lrckit.algebra import interpolant
from lrckit.erasure import _exclusive_points, _survivors, pattern_admissible
from lrckit.errors import Inconsistent, NotAdmissible
from lrckit.lrc import encode


def two_pass_decode(layout, received, pat) -> list[int]:
    """Light blocks from their own survivors; heavy blocks from the
    survivors in their union U, each scaled by e_t(x), and the first
    surviving global parities less their known part, each divided by
    phi(s) = Delta(s)/U(s); then the re-encoded word, checked against the
    survivors."""
    fld, p = layout.field, layout.params
    rep = pattern_admissible(layout, pat)
    if not rep.admissible:
        raise NotAdmissible("pattern fails the admissibility conditions")
    erased, heavy = pat.coords(layout), rep.heavy_sets
    survivors = _survivors(received, erased, layout.n, fld)
    word = survivors[:]
    for b, lost_pts in enumerate(pat.sets):
        if not lost_pts:
            continue
        a, coords = layout.sets[b], layout.block_coords(b)
        if b in heavy:
            for c in coords:
                word[c] = 0
            continue
        cnt = layout.interp_count(b)
        kept = [(x, word[c]) for x, c in zip(a, coords) if x not in lost_pts][:cnt]
        block = interpolant(fld, *zip(*kept))
        for c, x in zip(coords, a[:cnt]):
            if x in lost_pts:
                word[c] = block(x)

    if heavy:
        union = sorted({x for t in heavy for x in layout.sets[t]})

        def e(t, x):
            return fld.root_product([y for y in union if y not in layout.sets[t]], x)

        erased_pts = set().union(*(pat.sets[t] for t in heavy))
        xs, ys = [], []
        for x in union:
            if x in erased_pts:
                continue
            acc = 0
            for t in heavy:
                a = layout.sets[t]
                if x in a:
                    acc = fld.add(acc, fld.mul(e(t, x), received[layout.coord(t, a.index(x))]))
            xs.append(x)
            ys.append(acc)
        need = len(union) - p.delta + 1
        glob = layout.check_groups[-1]
        rows = [i for i, s in enumerate(layout.s_points) if s not in pat.globals_][:need - len(xs)]
        for i in rows:
            s = layout.s_points[i]
            known = fld.dot(glob.coeffs[i], [word[c] for c in glob.coords])
            phi = fld.div(layout.delta_at_s[i], fld.root_product(union, s))
            xs.append(s)
            ys.append(fld.div(fld.sub(received[layout.global_coord(i)], known), phi))
        combined = interpolant(fld, xs, ys)
        for t, exclusive in _exclusive_points(layout, heavy).items():
            nodes = exclusive[: layout.interp_count(t)]
            restore = interpolant(fld, nodes, [fld.div(combined(x), e(t, x)) for x in nodes])
            for c, x in zip(layout.block_coords(t), layout.sets[t][: len(nodes)]):
                word[c] = restore(x)

    word = encode(layout, [word[c] for c in layout.info_coords])
    lost = set(erased)
    if [0 if c in lost else x for c, x in enumerate(word)] != survivors:
        raise Inconsistent("decoded word disagrees with a survivor")
    return word
