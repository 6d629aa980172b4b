"""Two-pass reference for the differential tests of the structured
decoder.  It restores the erased information as the library's decoder
does, but reads the known part of each global parity it needs with one
``field.dot`` of its row of the structural parity check, then re-encodes
the whole information with ``lrc.encode``: a pass over the global rows,
then a pass of the encoder.  The library runs the encoder once, on the
information it knows, and adds the restored symbols by the rows'
coefficients; this function is the plain version it is compared against,
and is not used by the library.

It imports nothing from ``lrckit.erasure``: the erased coordinates, the
heavy sets, their exclusive points and the checks of the survivors are
computed here, from the definitions, so the differential tests do not
share the code they check.
"""

from lrckit.algebra import interpolant
from lrckit.errors import Inconsistent, InvalidParameter, NotAdmissible
from lrckit.lrc import encode


def erased_coords(layout, pat) -> list[int]:
    """The coordinates of the pattern's erased points, block by block,
    then of its erased global points, by a scan of the layout's sets."""
    out = [layout.coord(b, i) for b, a in enumerate(layout.sets)
           for i, x in enumerate(a) if x in pat.sets[b]]
    return out + [layout.global_coord(i) for i, s in enumerate(layout.s_points)
                  if s in pat.globals_]


def heavy_exclusive(layout, pat):
    """(admissible, exclusive): per heavy set (delta or more erased
    points), in set order, its points in no other heavy set; and whether
    the pattern is admissible: the erased points of the heavy sets and the
    erased global points number at most h + delta - 1, and each heavy set
    meets the union of the others in at most delta - 1 points."""
    p = layout.params
    heavy = [t for t, lost in enumerate(pat.sets) if len(lost) >= p.delta]
    erased = set()
    for t in heavy:
        erased |= pat.sets[t]
    admissible = len(erased) + len(pat.globals_) <= p.h + p.delta - 1
    exclusive = {}
    for t in heavy:
        others = set()
        for u in heavy:
            if u != t:
                others |= set(layout.sets[u])
        if len(others & set(layout.sets[t])) > p.delta - 1:
            admissible = False
        exclusive[t] = [x for x in layout.sets[t] if x not in others]
    return admissible, exclusive


def check_survivors(layout, received, erased) -> None:
    """Raise InvalidParameter unless ``received`` has n symbols and every
    coordinate outside ``erased`` holds an int (a bool counts as one) in
    [0, q)."""
    if len(received) != layout.n:
        raise InvalidParameter(f"received word must have length {layout.n}")
    lost = set(erased)
    for c, y in enumerate(received):
        if c not in lost and not (isinstance(y, int) and 0 <= y < layout.field.q):
            raise InvalidParameter(f"survivor {c} is not a field element")


def two_pass_decode(layout, received, pat) -> list[int]:
    """Light blocks from their own survivors; heavy blocks from the
    survivors in their union U, each scaled by e_t(x), and the first
    surviving global parities less their known part, each divided by
    phi(s) = Delta(s)/U(s); then the re-encoded word, checked against the
    survivors."""
    fld, p = layout.field, layout.params
    admissible, exclusive = heavy_exclusive(layout, pat)
    if not admissible:
        raise NotAdmissible("pattern fails the admissibility conditions")
    erased = erased_coords(layout, pat)
    check_survivors(layout, received, erased)
    lost = set(erased)
    survivors = [0 if c in lost else x for c, x in enumerate(received)]
    word = survivors[:]
    for b, lost_pts in enumerate(pat.sets):
        if not lost_pts:
            continue
        a, coords = layout.sets[b], layout.block_coords(b)
        if b in exclusive:
            for c in coords:
                word[c] = 0
            continue
        cnt = layout.interp_count(b)
        kept = [(x, word[c]) for x, c in zip(a, coords) if x not in lost_pts][:cnt]
        block = interpolant(fld, *zip(*kept))
        for c, x in zip(coords, a[:cnt]):
            if x in lost_pts:
                word[c] = block(x)

    if exclusive:
        union = sorted({x for t in exclusive for x in layout.sets[t]})

        def e(t, x):
            return fld.root_product([y for y in union if y not in layout.sets[t]], x)

        erased_pts = set().union(*(pat.sets[t] for t in exclusive))
        xs, ys = [], []
        for x in union:
            if x in erased_pts:
                continue
            acc = 0
            for t in exclusive:
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
        for t, points in exclusive.items():
            nodes = points[: layout.interp_count(t)]
            restore = interpolant(fld, nodes, [fld.div(combined(x), e(t, x)) for x in nodes])
            for c, x in zip(layout.block_coords(t), layout.sets[t][: len(nodes)]):
                word[c] = restore(x)

    word = encode(layout, [word[c] for c in layout.info_coords])
    if [0 if c in lost else x for c, x in enumerate(word)] != survivors:
        raise Inconsistent("decoded word disagrees with a survivor")
    return word
