"""Dense linear-algebra references for the differential tests.  The
library decides recoverability and decodes erasures by one column
elimination on search keys (``algebra.eliminate_keys``), finds minimum
distances by a pruned search, and shortens the dual code to a repair set
from H's supports; these functions are the plain dense versions they are
compared against, and are not used by the library, whose ranks all come
from ``eliminate_keys``.
"""

import itertools
import random

from lrckit.algebra import Matrix
from lrckit.errors import Inconsistent, Infeasible
from lrckit.lrc import LinearCode


def identity(fld, n: int) -> Matrix:
    return Matrix(fld, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def solve(m: Matrix, rhs) -> list[int] | None:
    """One solution of M x = rhs, or None when inconsistent."""
    aug = Matrix(m.field, [row + [b] for row, b in zip(m.rows, rhs)], m.ncols + 1)
    rows, pivots = aug.rref()
    if m.ncols in pivots:
        return None
    x = [0] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][m.ncols]
    return x


def stack(a: Matrix, b: Matrix) -> Matrix:
    """The rows of a, then those of b; Matrix refuses rows of two lengths."""
    return Matrix(a.field, a.rows + b.rows, a.ncols)


def same_row_space(a: Matrix, b: Matrix) -> bool:
    ra = a.rank()
    return ra == b.rank() == stack(a, b).rank()


def dense_decode(h: Matrix, erased, received) -> list[int] | None:
    """``decode_linear`` from dense ranks and ``solve``: None when the
    erased columns of H are dependent, Inconsistent when no completion of
    the survivors is a codeword, else the completed word."""
    fld = h.field
    cols = sorted(set(erased))
    h_e = h.columns(cols)
    if h_e.rank() < len(cols):
        return None
    word = [0 if j in cols else x for j, x in enumerate(received)]
    x = solve(h_e, [fld.neg(s) for s in h.mul_vec(word)])
    if x is None:
        raise Inconsistent("survivors are inconsistent with the code")
    for c, v in zip(cols, x):
        word[c] = v
    return word


def dense_punctured_check(code: LinearCode, coords) -> Matrix:
    """A parity check of the code punctured to ``coords``, by one dense
    ``rref`` of all of H with the columns outside ``coords`` first: the
    rows left zero there span the dual vectors supported inside
    ``coords``."""
    cset = set(coords)
    order = [j for j in range(code.n) if j not in cset] + list(coords)
    rows, _ = Matrix(code.field, [[r[j] for j in order] for r in code.check.rows]).rref()
    cut = code.n - len(coords)
    return Matrix(code.field, [r[cut:] for r in rows if not any(r[:cut]) and any(r[cut:])],
                  len(coords))


def dense_projection_dimension(code: LinearCode, coords) -> int:
    """The dimension of the code projected onto ``coords``, |U| - ((n-k) -
    rank of H's other columns), that rank by ``rref``."""
    cset = set(coords)
    outside = [j for j in range(code.n) if j not in cset]
    return len(cset) - (code.n - code.k - code.check.columns(outside).rank())


def naive_min_distance(h: Matrix, d_max: int | None = None) -> int:
    """Rank of every column subset, smallest dependent size wins."""
    n = h.ncols
    if d_max is None:
        d_max = h.rank() + 1
    for s in range(1, d_max + 1):
        for sub in itertools.combinations(range(n), s):
            if h.columns(sub).rank() < s:
                return s
    raise Infeasible("no dependence found")


def random_code(fld, n: int, k: int, seed: int) -> LinearCode:
    """Seeded random [n, k] code (negative-control material)."""
    rng = random.Random(seed)
    while True:
        g = Matrix(fld, [[rng.randrange(fld.q) for _ in range(n)] for _ in range(k)], n)
        if g.rank() == k:
            break
    return LinearCode(k=k, check=g.nullspace())
