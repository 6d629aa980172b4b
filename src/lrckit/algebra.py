"""Exact arithmetic over prime-power finite fields, dense polynomials,
and matrices, with ``eliminate_keys``, the one column elimination that
the library's ranks, rank tests and decoders run, on search keys.

Field elements are plain Python ints in ``[0, q)``.  For an extension
field F_{p^m} the integer ``sum(c_i * p**i)`` encodes the element with
monomial-basis coordinates ``(c_0, ..., c_{m-1})``; for prime fields the
encoding is the residue itself.  All arithmetic is exact — no floating
point anywhere.

The split between prime fields (residues mod p) and extension fields (log
tables; addition by XOR in characteristic 2, else by Zech logarithms) lives
in ``FiniteField`` alone, and is decided once per field: its constructor
binds the scalar ops and vector kernels for the field's kind, and every
other loop reaches field arithmetic through them.  That includes the
row plan, ``row_plan``/``run_plan``: on a prime field it packs sparse rows
into integer lanes of a few column chunks, so one C-level dot per chunk
evaluates every row; on a characteristic-2 field of at most 256 elements
its columns are ``bytes``, so one C-level chain of translations and XORs
evaluates every row; on the other extension fields it is one ``dot`` per
row.  The encoder and the decoders run on it.  So do the search keys,
``vec_key``/``sub_key``: ``bytes`` under the same translation tables on
small prime and characteristic-2 fields, tuples on the others.  The
distance search and ``eliminate_keys`` reduce them.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache, reduce
from typing import Iterable, Sequence

from .errors import DuplicateNode, InternalInvariantViolation, InvalidParameter

NEG_INF = float("-inf")  # degree of the zero polynomial


# Miller-Rabin with the primes 2..41 as bases decides primality exactly
# below this bound (Sorenson and Webster, 2015)
PRIME_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_FIELD = 2**16  # the largest field order FiniteField tabulates
# the most steps a design constructor of ``designs`` may take: each counts
# its own in closed form, from its point and block counts, before it builds
# anything
MAX_DESIGN = 10**6
CHUNK_BITS = 256  # lanes of a prime-field row plan's chunk: 128-512 time alike


def is_prime(n: int) -> bool:
    """Exact primality for n < ``PRIME_LIMIT`` by deterministic
    Miller-Rabin; raises InvalidParameter for larger n."""
    if n >= PRIME_LIMIT:
        raise InvalidParameter(f"primality is exact only below {PRIME_LIMIT:.3g}; "
                               f"got a number of {n.bit_length()} bits")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:  # a composite has a prime factor at most its square root
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iroot(x: int, v: int) -> int:
    """floor(x ** (1/v)) for x >= 1: Newton's method on ints, from above,
    from 2^ceil(bits/v) or, past 64 bits, from just above the float
    estimate 2^(log2(x)/v) when that is above the root: a few steps for a
    large v, not about 0.7 v."""
    y = 1 << -(-x.bit_length() // v)
    if x.bit_length() > 64:
        e = math.log2(x) / v
        s = max(int(e) - 60, 0)
        if (est := int(2 ** (e - s) * (1 + 2**-30) + 1) << s) ** v > x:
            y = min(y, est)
    while True:
        z = ((v - 1) * y + x // y ** (v - 1)) // v
        if z >= y:
            return y
        y = z


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q = p^m into (p, m); raises InvalidParameter if q is not a
    prime power, or if deciding it needs ``is_prime`` beyond its range.
    A factor among the bases of ``is_prime`` fixes p; otherwise p > 41 >
    2^5, so m < bits/5, and each such m is tried by an integer m-th root."""
    bad = InvalidParameter(f"{q} is not a prime power")
    if q < 2:
        raise bad
    small = next((p for p in _MR_BASES if q % p == 0), None)
    if small is None:
        for m in range(q.bit_length() // 5, 0, -1):
            p = iroot(q, m)
            if p**m == q and is_prime(p):
                return p, m
        raise bad
    m, rest = 0, q
    while rest % small == 0:
        rest //= small
        m += 1
    if rest != 1:
        raise bad
    return small, m


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(coeffs) - 1
    if coeffs[0] == 0:  # divisible by x
        return deg == 1
    fp = _shared_field(p, 1, (1 % p, 1))
    num = Poly(fp, coeffs)
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if (num % Poly(fp, tail + (1,))).is_zero():
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over F_p.

    Candidates x^m + g(x) are scanned in increasing order of the integer
    encoding of g, i.e. lexicographic on the coefficient tuple read from
    the highest degree down.
    """
    for j in range(p**m):
        cand = tuple((j // p**i) % p for i in range(m)) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise InternalInvariantViolation(f"no irreducible of degree {m} over F_{p}")  # pragma: no cover


@lru_cache(maxsize=None)
def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """``_smallest_irreducible`` kept per (p, m): every ``FiniteField(p, m)``
    without an explicit modulus after the first skips the scan."""
    return _smallest_irreducible(p, m)


def _primitive_root(p: int) -> int:
    """Smallest primitive root modulo the prime p, or 1 for p = 2: the
    smallest g with g^((p-1)/l) != 1 for every prime l dividing p - 1."""
    primes, rest = [], p - 1
    for f in range(2, math.isqrt(rest) + 1):
        if rest % f == 0:
            primes.append(f)
            while rest % f == 0:
                rest //= f
    if rest > 1:
        primes.append(rest)
    return next((g for g in range(2, p) if all(pow(g, (p - 1) // ell, p) != 1 for ell in primes)),
                1)


class _TableKernel:
    """A kernel of ``FiniteField`` that reads the field's multiplication
    tables, before its first use: ``vec_key``, ``sub_key``, and on a
    characteristic-2 byte field ``run_plan``.  The first read of any binds
    them all, with the tables built once, on the instance, whose attributes
    then shadow these descriptors.  (A ``__getattr__`` would slow every
    other attribute read of the field.)"""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, fld, owner=None):
        if fld is None:
            return self
        kernels = fld._table_kernels()
        vars(fld).update(kernels)
        return kernels[self.name]


class FiniteField:
    """Arithmetic context for F_{p^m}; elements are ints in [0, q).

    Extension-field moduli are the lexicographically smallest monic
    irreducible of the requested degree, so encodings are reproducible
    across runs.  ``generator`` is the smallest-encoded primitive element.
    Instances are immutable and safe to share.

    The arithmetic is bound once per field, for its kind (prime,
    characteristic 2 or odd extension), so no op branches on the kind per
    call.  The scalar ops are ``add``, ``neg``, ``sub``, ``mul``, ``inv``,
    ``div`` and ``pow`` (any integer exponent); ``inv``, ``div`` and
    ``pow`` raise ZeroDivisionError on inverting 0.  The vector kernels:
    ``vec_sub(v, c, u)`` returns v - c*u, ``vec_sub_at(v, c, u, idx)``
    makes that update in place at the positions ``idx`` only,
    ``vec_scale(v, c)`` returns c*v (v itself when c is 1), ``dot(a, b)``
    is sum(a_i * b_i) over any two iterables, and ``normalize(v)`` is the
    tuple of v scaled to a leading 1 (the zero vector unchanged), so two
    nonzero vectors are parallel iff their normal forms coincide.  One
    inverse table per field serves ``inv`` and ``normalize``.

    The row plan: ``row_plan(rows, ncols)`` prepares a list of sparse
    rows, pairs (support, values), over ``ncols`` columns as plain data,
    and ``run_plan(plan, v)`` returns every row times v: the encoder's
    pass, which the structured decoder runs once too.  On a prime field
    the columns are cut into chunks, each closed once the rows inside it
    hold ``CHUNK_BITS`` bits of lanes, each as wide as the bit length of
    (p-1)^2 * (nonzero count) + 1 of the widest such row; a row spanning
    chunks has a lane at the bottom of each, as wide as the widest one's
    whole sum needs.  Column j is one int of its rows' entries in their
    lanes, so a pass is one C-level sum of products per chunk, its own
    lanes read off by shift and mask, its bottom ones added into one
    accumulator.  That is exact only for rows and values in [0, p), as
    ``are_elements`` checks: a larger or negative entry spills into the
    next lane.  On a characteristic-2 field with q <= 256 the plan is the
    row count and column j as the ``bytes`` of its entries down the rows,
    an empty row reading 0.  A pass translates column j by v_j's
    multiplication table, the one the search keys read, and XORs the
    columns as ints, which is their sum, no byte carrying into the next;
    so it is one C-level chain over the columns.  On the other extension
    fields a pass is one ``dot`` per row.
    ``inv_dot(ws, nodes, x)`` is sum(w / (x - u)) over ws and nodes, for x
    not among the nodes: the barycentric sum of ``interpolant``.
    ``root_product(roots, x)`` is prod (x - r) over the roots, on a prime
    field with plain int arithmetic reduced mod p at each step.

    The search keys' kernels: ``vec_key(v)`` is the normal form of v as a
    hashable key, and ``sub_key(w, c, u)`` the key of w - c*u for keys w
    and u; a key compares as ``normalize`` gives it, entry by entry.
    ``packed(v)`` is v in the form ``vec_key`` reads without conversion,
    and two packed vectors concatenate with ``+``.  On a lane field, a
    prime field with p <= 127 or a characteristic-2 field with q <= 256, a
    key is ``bytes``, one entry per byte, and so is a packed vector.  c*u
    is ``u.translate`` by c's multiplication table, and the subtraction is one
    int op on ``int.from_bytes``: XOR in characteristic 2, and on a prime
    field the sum with (p-c)*u, whose lanes stay below 2p - 1 < 256, so none
    carries into the next; one more ``translate`` reduces them mod p.  The
    normal form finds the leading entry by ``lstrip`` and scales by one
    ``translate``.  On the other fields a key is the tuple ``normalize``
    makes, and a packed vector a tuple.  The q tables, each the previous
    one translated by the generator's, are built on the first use of
    either kernel, or of a characteristic-2 byte field's ``run_plan``,
    which shares them.
    """

    vec_key, sub_key, run_plan = _TableKernel(), _TableKernel(), _TableKernel()

    def __init__(self, p: int, m: int = 1, modulus: Sequence[int] | None = None):
        if p <= MAX_FIELD and not is_prime(p):
            raise InvalidParameter(f"characteristic {p} is not prime")
        if m < 1:
            raise InvalidParameter("extension degree must be >= 1")
        # checked before any table is built, and before p^m for a huge m
        if p > MAX_FIELD or m > MAX_FIELD.bit_length() or p**m > MAX_FIELD:
            raise InvalidParameter(f"F_{p}^{m} has more than MAX_FIELD = {MAX_FIELD} elements")
        self.p = p
        self.m = m
        self.q = p**m
        self._bytes_below_q = bytes(range(self.q)) if self.q <= 256 else None
        if m == 1:
            self.modulus = (1 % p, 1) if modulus is None else tuple(modulus)
            self.generator = _primitive_root(p)
        else:
            if modulus is None:
                mod = _default_modulus(p, m)
            else:
                mod = [c % p for c in modulus]
                if len(mod) != m + 1 or mod[-1] != 1:
                    raise InvalidParameter("modulus must be monic of degree m")
                if not _is_irreducible(mod, p):
                    raise InvalidParameter("modulus is reducible")
            self.modulus = tuple(mod)
            self._build_tables()
        self._build_ops()

    # -- encoding helpers -------------------------------------------------

    def coords(self, a: int) -> list[int]:
        """Monomial-basis coordinates (c_0..c_{m-1}) of an element."""
        p = self.p
        return [(a // p**i) % p for i in range(self.m)]

    def from_coords(self, cs: Iterable[int]) -> int:
        p = self.p
        return sum((c % p) * p**i for i, c in enumerate(cs))

    def _build_tables(self) -> None:
        p, m, q = self.p, self.m, self.q
        low = [-c % p for c in self.modulus[:m]]  # X^m = sum low_i X^i

        def times_x(cs):
            top = cs[-1]
            return [(a + top * b) % p for a, b in zip([0] + cs[:-1], low)]

        def times(g):
            # multiplication by g is F_p-linear, so it is tabulated for
            # every x = sum c_i p^i from the images g X^i: in characteristic
            # 2 by XOR over x's bits, else one coordinate k at a time, sum_i
            # c_i a_i mod p with a_i coordinate k of g X^i
            images = [self.coords(g)]
            for _ in range(m - 1):
                images.append(times_x(images[-1]))
            if p == 2:
                table = [0]
                for image in images:
                    image = self.from_coords(image)
                    table += [t ^ image for t in table]
                return table
            table = [0] * q
            for k, row in enumerate(zip(*images)):
                col = [0]
                for a in row:
                    col = [v + c * a for c in range(p) for v in col]
                table = [t + v % p * p**k for t, v in zip(table, col)]
            return table

        # the generator is the smallest element whose powers, walked through
        # its times table, first return to 1 after q - 1 steps; that walk
        # is the exp table, and the log table inverts it.  The elements
        # below p form F_p, of order p - 1 < q - 1, and a power of a
        # candidate that failed has an order dividing its order: neither
        # is walked
        failed = bytearray(q)
        for gen in range(p, q):  # every finite field has a primitive element
            if failed[gen]:
                continue
            times_gen, exp, x = times(gen), [1], gen
            while x != 1:
                exp.append(x)
                x = times_gen[x]
            if len(exp) == q - 1:
                break
            for x in exp:
                failed[x] = 1
        self.generator = gen
        log = self._log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        self._exp = exp + exp
        # addition is XOR in characteristic 2, else by Zech logarithms:
        # 1 + g^k = g^_zech[k] (None where g^k = -1); 1 + x raises x's c_0
        if p > 2:
            ones = (x + 1 if x % p < p - 1 else x + 1 - p for x in self._exp[:q - 1])
            self._zech = [self._log[y] if y else None for y in ones]

    def _build_ops(self) -> None:
        """The scalar ops, vector kernels and ``normalize`` of the class
        docstring, bound once for the field's kind, with one inverse table."""
        p, q = self.p, self.q
        # the fields whose search keys are bytes; in characteristic 2 their
        # row plans are byte columns too, and both read one set of tables
        byte_keys = p <= 127 if self.m == 1 else p == 2 and q <= 256
        if self.m == 1:
            prod = operator.mul
            invs = [0] + [pow(a, p - 2, p) for a in range(1, p)]

            def add(a, b):
                return (a + b) % p

            def neg(a):
                return -a % p

            def sub(a, b):
                return (a - b) % p

            def mul(a, b):
                return a * b % p

            def power(a, e):
                return pow(a, e, p) if e >= 0 else pow(inv(a), -e, p)

            def vec_sub(v, c, u):
                return [(a - c * b) % p for a, b in zip(v, u)]

            def vec_sub_at(v, c, u, idx):
                for j in idx:
                    v[j] = (v[j] - c * u[j]) % p

            def vec_scale(v, c):
                return v if c == 1 else [c * a % p for a in v]

            def dot(a, b):
                return sum(map(prod, a, b)) % p

            def row_plan(rows, ncols):
                width = [((p - 1) ** 2 * len(sup) + 1).bit_length() for sup, _ in rows]
                # rows with entries by last column (an empty row reads 0): a
                # chunk closes before the first row past its rows once their
                # lanes hold CHUNK_BITS; a row starting before its chunk spans
                cuts, end, bits, home, spans = [0], 0, 0, [[]], []
                for i in sorted((i for i, (sup, _) in enumerate(rows) if sup),
                                key=lambda i: rows[i][0][-1]):
                    sup = rows[i][0]
                    if bits >= CHUNK_BITS and sup[0] >= end:
                        cuts, home, bits = cuts + [end], home + [[]], 0
                    (spans if sup[0] < cuts[-1] else home[-1]).append(i)
                    if sup[0] >= cuts[-1]:
                        bits, end = bits + width[i], sup[-1] + 1
                # lanes as (row, shift): the spanning rows' at the bottom
                wide = max(map(width.__getitem__, spans), default=1)
                w = max((width[i] for own in home for i in own), default=1)
                base = len(spans) * wide
                spans = tuple((i, t * wide) for t, i in enumerate(spans))
                home = [tuple((i, base + t * w) for t, i in enumerate(own)) for own in home]
                cols = [0] * ncols
                for i, s in itertools.chain(spans, *home):
                    for j, x in zip(*rows[i]):
                        cols[j] |= x << s
                chunks = tuple((lo, hi, tuple(cols[lo:hi]), lanes)
                               for lo, hi, lanes in zip(cuts, cuts[1:] + [ncols], home))
                return len(rows), chunks, (1 << base) - 1, (1 << w) - 1, spans, (1 << wide) - 1

            def run_plan(plan, v):
                n, chunks, bottom, lane, spans, mask = plan
                out, acc = [0] * n, 0
                for lo, hi, cols, lanes in chunks:
                    total = sum(map(prod, cols, v[lo:hi]))
                    acc += total & bottom
                    for i, s in lanes:
                        out[i] = (total >> s & lane) % p
                for i, s in spans:
                    out[i] = (acc >> s & mask) % p
                return out

            def inv_dot(ws, nodes, x):
                # a negative index x - u picks the inverse of x - u + p
                return sum(w * invs[x - u] for w, u in zip(ws, nodes)) % p

            def root_product(roots, x):
                acc = 1
                for r in roots:
                    acc = acc * (x - r) % p
                return acc

        else:
            exp, log = self._exp, self._log
            invs = [0] + [exp[q - 1 - log[a]] for a in range(1, q)]
            if p == 2:
                add = sub = operator.xor

                def neg(a):
                    return a

            else:
                zech, half = self._zech, (q - 1) // 2

                def add(a, b):
                    # a + b = a * (1 + g^k), k = log b - log a; a negative
                    # k indexes zech (length q - 1) modulo q - 1
                    if not (a and b):
                        return a or b
                    la = log[a]
                    z = zech[log[b] - la]
                    return 0 if z is None else exp[la + z]

                def neg(a):
                    # -1 is the element of order 2, g^((q-1)/2)
                    return exp[log[a] + half] if a else 0

                def sub(a, b):
                    return add(a, neg(b))

            def mul(a, b):
                return exp[log[a] + log[b]] if a and b else 0

            def power(a, e):
                if a:
                    return exp[log[a] * e % (q - 1)]
                if e < 0:
                    raise ZeroDivisionError("inversion of zero field element")
                return 0 if e else 1

            def vec_sub(v, c, u):
                k = log[neg(c)]
                return [add(a, exp[k + log[b]]) if b and c else a for a, b in zip(v, u)]

            def vec_sub_at(v, c, u, idx):
                k = log[neg(c)]
                for j in idx:
                    if u[j] and c:
                        v[j] = add(v[j], exp[k + log[u[j]]])

            def vec_scale(v, c):
                k = log[c]
                return v if c == 1 else [exp[k + log[a]] if a and c else 0 for a in v]

            if p == 2:
                # log 0 points past the doubled exp table into zeros, so a
                # product of two logs needs no test for zero
                zlog, zexp = [2 * (q - 1)] + log[1:], exp + [0] * (2 * q - 1)

                def dot(a, b):
                    acc = 0
                    for x, y in zip(a, b):
                        acc ^= zexp[zlog[x] + zlog[y]]
                    return acc

                def inv_dot(ws, nodes, x):
                    # w / (x - u) at exponent log w + q - 1 - log(x - u) >= 1
                    acc, shift = 0, q - 1
                    for w, u in zip(ws, nodes):
                        acc ^= zexp[zlog[w] + shift - log[x ^ u]]
                    return acc

            else:
                def dot(a, b):
                    acc = 0
                    for x, y in zip(a, b):
                        if x and y:
                            acc = add(acc, exp[log[x] + log[y]])
                    return acc

                def inv_dot(ws, nodes, x):
                    acc = 0
                    for w, u in zip(ws, nodes):
                        acc = add(acc, div(w, sub(x, u)))
                    return acc

            if byte_keys:
                def row_plan(rows, ncols):
                    # column j as the bytes of its entries down the rows; an
                    # empty row reads 0.  run_plan comes with the tables
                    cols = [bytearray(len(rows)) for _ in range(ncols)]
                    for i, (sup, vals) in enumerate(rows):
                        for j, x in zip(sup, vals):
                            cols[j][i] = x
                    return len(rows), tuple(map(bytes, cols))

                run_plan = None

            else:
                def getter(sup):
                    # a slice for one column or none, so that it too returns a sequence
                    if len(sup) > 1:
                        return operator.itemgetter(*sup)
                    return operator.itemgetter(slice(sup[0], sup[0] + 1) if sup else slice(0))

                def row_plan(rows, ncols):
                    return tuple((getter(sup), tuple(vals)) for sup, vals in rows)

                def run_plan(plan, v):
                    return [dot(vals, get(v)) for get, vals in plan]

            def root_product(roots, x):
                acc = 1
                for r in roots:
                    acc = mul(acc, sub(x, r))
                return acc

        def inv(a):
            if not a:
                raise ZeroDivisionError("inversion of zero field element")
            return invs[a]

        def div(a, b):
            return mul(a, inv(b))

        def normalize(v):
            return tuple(vec_scale(v, invs[next(filter(None, v), 0)]))

        gen, prime = self.generator, self.m == 1

        def table_kernels():
            # the kernels of ``_TableKernel``, by name; run on first use of any
            if not byte_keys:
                def sub_key(w, c, u):
                    return normalize(vec_sub(w, c, u))

                return {"vec_key": normalize, "sub_key": sub_key}
            # tables[c][x] = c*x for every byte x: mod p on a prime field,
            # 0 past q in characteristic 2, where no lane reaches q.  Each
            # table is the previous one translated by the generator's
            pad = bytes(256 - q)
            if prime:
                step = bytes(gen * x % p for x in range(256))
                table = bytes(x % p for x in range(256))
            else:
                step = bytes(mul(gen, x) for x in range(q)) + pad
                table = bytes(range(q)) + pad
            tables, x = [bytes(256)] * q, 1
            for _ in range(q - 1):
                tables[x], table, x = table, table.translate(step), mul(x, gen)
            norm = [tables[a] for a in invs]
            from_bytes = int.from_bytes

            def vec_key(v):
                r = bytes(v)
                lead = r.lstrip(b"\0")
                return r if not lead or lead[0] == 1 else r.translate(norm[lead[0]])

            if prime:
                mod, negs = tables[1], [tables[-c % p] for c in range(p)]

                def sub_key(w, c, u):
                    # lanes of w + (p-c)*u stay below 2p - 1 <= 253: no carry
                    s = (from_bytes(w, "big") + from_bytes(u.translate(negs[c]), "big")
                         ).to_bytes(len(w), "big")
                    lead = s.translate(mod).lstrip(b"\0")
                    return s.translate(norm[lead[0] if lead else 1])

                return {"vec_key": vec_key, "sub_key": sub_key}

            def sub_key(w, c, u):
                r = (from_bytes(w, "big") ^ from_bytes(u.translate(tables[c]), "big")
                     ).to_bytes(len(w), "big")
                lead = r.lstrip(b"\0")
                return r if not lead or lead[0] == 1 else r.translate(norm[lead[0]])

            xor, repeat = operator.xor, itertools.repeat

            def run_plan(plan, v):
                # column j times v_j by translation, the columns summed by XOR
                n, cols = plan
                products = map(bytes.translate, cols, map(tables.__getitem__, v))
                return list(reduce(xor, map(from_bytes, products, repeat("big")), 0)
                            .to_bytes(n, "big"))

            return {"vec_key": vec_key, "sub_key": sub_key, "run_plan": run_plan}

        self.add, self.neg, self.sub, self.mul, self.inv, self.div, self.pow = (
            add, neg, sub, mul, inv, div, power)
        self.vec_sub, self.vec_sub_at, self.vec_scale, self.dot = vec_sub, vec_sub_at, vec_scale, dot
        self.row_plan, self.inv_dot, self.root_product = row_plan, inv_dot, root_product
        if run_plan is not None:  # else bound with the tables
            self.run_plan = run_plan
        self.normalize, self._table_kernels = normalize, table_kernels
        self.packed = bytes if byte_keys else tuple

    def are_elements(self, values: Sequence) -> bool:
        """True iff every value is an int in [0, q), a bool counting as one.
        A sum of ints is an int, and a float, str, None or other number
        among them makes it something else or raises TypeError, so one
        C-level ``sum`` checks the types.  For q <= 256 ``bytes`` of them,
        raising ValueError off [0, 256), less the bytes below q is empty
        iff they are in range; for larger q ``min`` and ``max`` check it."""
        try:
            if type(sum(values)) is not int:
                return False
            if self._bytes_below_q is not None:
                return not bytes(values).translate(None, self._bytes_below_q)
        except (TypeError, ValueError):
            return False
        return not values or (0 <= min(values) and max(values) < self.q)

    def elements(self) -> range:
        return range(self.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteField)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __reduce__(self):
        # pickle the spec, not the tables; the receiver rebuilds them once
        # per process and shares that instance among later unpicklings
        return (_shared_field, (self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"FiniteField({self.p})"
        return f"FiniteField({self.p}, {self.m})"


@lru_cache(maxsize=None)
def _shared_field(p: int, m: int, modulus: tuple[int, ...]) -> FiniteField:
    """The unpickling constructor: one FiniteField per spec and process."""
    return FiniteField(p, m, modulus)


def subfield_embedding(small: FiniteField, big: FiniteField) -> list[int]:
    """Embedding table F_{p^a} -> F_{p^b} (a | b), fixing the prime field.

    The defining root of `small` is sent to the smallest-encoded root of
    small's modulus inside `big`, which pins the embedding uniquely.
    """
    if small.p != big.p or big.m % small.m != 0:
        raise InvalidParameter("no subfield embedding exists")
    if small.q == big.q:
        return list(range(small.q))
    mod = Poly(big, [c % big.p for c in small.modulus])
    root = next((x for x in big.elements() if mod(x) == 0), None)
    if root is None:  # pragma: no cover
        raise InternalInvariantViolation("the subfield modulus has no root")
    return [Poly(big, small.coords(a))(root) for a in range(small.q)]


# ----------------------------------------------------------------------
# polynomials


class Poly:
    """Dense univariate polynomial; coeffs[i] is the degree-i coefficient.

    The zero polynomial has an empty coefficient list and degree -inf.
    Instances are normalized (no trailing zeros) and treated as immutable.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, fld: FiniteField, coeffs: Iterable[int]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = fld
        self.coeffs = cs

    @staticmethod
    def zero(fld: FiniteField) -> "Poly":
        return Poly(fld, [])

    @staticmethod
    def one(fld: FiniteField) -> "Poly":
        return Poly(fld, [1])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, tuple(self.coeffs)))

    def __add__(self, other: "Poly") -> "Poly":
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = a[:]
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly(f, out)

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, [f.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        f = self.field
        a, b = sorted((self.coeffs, other.coeffs), key=len)  # a is the shorter
        if not a:
            return Poly.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                out[i:i + len(b)] = f.vec_sub(out[i:i + len(b)], f.neg(x), b)
        return Poly(f, out)

    def scale(self, c: int) -> "Poly":
        f = self.field
        return Poly(f, f.vec_scale(self.coeffs, c))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = self.coeffs[:]
        dd = len(other.coeffs) - 1
        quot = [0] * max(0, len(rem) - dd)
        inv_lead = f.inv(other.coeffs[-1])
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                factor = f.mul(c, inv_lead)
                quot[i - dd] = factor
                rem[i - dd:i + 1] = f.vec_sub(rem[i - dd:i + 1], factor, other.coeffs)
        return Poly(f, quot), Poly(f, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, x: int) -> int:
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def __repr__(self) -> str:
        return f"Poly({self.field!r}, {self.coeffs})"


def poly_from_roots(fld: FiniteField, roots: Iterable[int]) -> Poly:
    """Monic polynomial vanishing exactly on the given roots."""
    out = Poly.one(fld)
    for r in roots:
        out = out * Poly(fld, [fld.neg(r), 1])
    return out


def _distinct_nodes(fld: FiniteField, nodes: Sequence[int]):
    """The nodes as a tuple, their positions, and per node u 1 / w_u =
    prod_{i != u} (x_u - x_i); raises DuplicateNode on a repeated node."""
    nodes = tuple(nodes)
    position = {x: u for u, x in enumerate(nodes)}
    if len(position) != len(nodes):
        raise DuplicateNode("interpolation nodes must be distinct")
    return nodes, position, [fld.root_product(nodes[:u] + nodes[u + 1:], x)
                             for u, x in enumerate(nodes)]


def lagrange_basis(fld: FiniteField, nodes: Sequence[int]):
    """The Lagrange basis on distinct ``nodes`` in barycentric form.

    The weights w_u = 1 / prod_{i != u} (x_u - x_i) are computed once; the
    returned function maps x to the basis values [L_u(x)], which are
    w_u * prod_i (x - x_i) / (x - x_u) off the nodes and a unit vector at a
    node.  The polynomial of degree < len(nodes) through values ``ys`` at
    the nodes takes the value ``fld.dot(basis(x), ys)`` at x, so no
    polynomial is built.  Raises DuplicateNode on a repeated node.
    """
    nodes, position, products = _distinct_nodes(fld, nodes)
    div, sub, vec_scale, root_product = fld.div, fld.sub, fld.vec_scale, fld.root_product
    weights = list(map(fld.inv, products))

    def basis(x: int) -> list[int]:
        u = position.get(x)
        if u is not None:
            out = [0] * len(nodes)
            out[u] = 1
            return out
        return vec_scale([div(w, sub(x, xu)) for xu, w in zip(nodes, weights)],
                         root_product(nodes, x))

    return basis


def interpolant(fld: FiniteField, nodes: Sequence[int], ys: Sequence[int]):
    """The polynomial of degree < len(nodes) through ``ys`` at distinct
    ``nodes`` as a function of x, ``dot(lagrange_basis(fld, nodes)(x), ys)``
    without the basis: y_u at node x_u, else prod_i (x - x_i) * sum_u
    w_u y_u / (x - x_u) (``fld.inv_dot``), each w_u y_u computed once."""
    nodes, position, products = _distinct_nodes(fld, nodes)
    ys = tuple(ys)
    weighted = list(map(fld.div, ys, products))
    mul, inv_dot, root_product = fld.mul, fld.inv_dot, fld.root_product

    def value(x: int) -> int:
        u = position.get(x)
        if u is not None:
            return ys[u]
        return mul(root_product(nodes, x), inv_dot(weighted, nodes, x))

    return value


def interpolate(fld: FiniteField, points: Sequence[tuple[int, int]]) -> Poly:
    """Lagrange interpolation; returns the unique poly of degree < #points
    through the given (x, y) pairs.  X-values must be pairwise distinct.
    """
    if not points:
        raise InvalidParameter("interpolation needs at least one point")
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise DuplicateNode("interpolation nodes must be distinct")
    n = len(points)
    # prefix[i] = prod_{j<i} (x - x_j), suffix[i] = prod_{j>i} (x - x_j)
    prefix = [Poly.one(fld)]
    for x in xs[:-1]:
        prefix.append(prefix[-1] * Poly(fld, [fld.neg(x), 1]))
    suffix = [Poly.one(fld)] * n
    for i in range(n - 2, -1, -1):
        suffix[i] = suffix[i + 1] * Poly(fld, [fld.neg(xs[i + 1]), 1])
    out = Poly.zero(fld)
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        num = prefix[i] * suffix[i]
        denom = num(xi)
        out = out + num.scale(fld.div(yi, denom))
    return out


# ----------------------------------------------------------------------
# matrices


def eliminate_keys(sub_key, keys, bound: int, stop: bool = True):
    """Column elimination on search keys (``FiniteField.vec_key``), which
    hold a vector's normal form, a leading 1: each key is reduced by
    ``sub_key`` against the pivots so far, and becomes a pivot at its
    leading 1 if that is below ``bound``, else it is dependent, a zero key
    among them.  Returns (pivots, dependents): the pivots as (row, key),
    each zero on the earlier pivot rows, so their count is the rank on the
    rows below ``bound``, and the dependents' reduced keys, which vanish
    below ``bound``.  ``stop`` ends at the first dependent.  A key is read
    only by indexing, ``in`` and ``index``, so ``bytes`` and tuple keys
    run alike."""
    pivots, dependents = [], []
    for v in keys:
        for pos, u in pivots:
            if v[pos]:
                v = sub_key(v, v[pos], u)
        if 1 in v and (pos := v.index(1)) < bound:  # a nonzero key holds its leading 1
            pivots.append((pos, v))
        else:
            dependents.append(v)
            if stop:
                break
    return pivots, dependents


class Matrix:
    """Row-major matrix of field elements with exact linear algebra.

    The nonzero structure is derived once, on first use, and cached with
    the matrix: ``column_supports``, ``row_supports`` and
    ``private_columns`` together, the ``row_plan`` from the row supports
    on its own first use, as only the linear decoder reads it, and each
    ``packed_column`` on its own first use.  They pickle with the matrix.
    ``rows`` must not be changed after that first use, and its entries
    must be field elements, ints in [0, q), as the lanes of the plan and
    the bytes of the packed columns assume.

    ``eliminate`` runs ``eliminate_keys`` on the columns' keys.  The dense
    ``rref``, ``rank`` and ``nullspace`` are the reference the tests and
    the benchmark check it against.
    """

    __slots__ = ("field", "rows", "nrows", "ncols", "_supports", "_plan", "_packed")

    def __init__(self, fld: FiniteField, rows: Sequence[Sequence[int]], ncols: int | None = None):
        self.field = fld
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.rows:
            ncols = len(self.rows[0])
            for r in self.rows:
                if len(r) != ncols:
                    raise InvalidParameter("ragged matrix rows")
        elif ncols is None:
            ncols = 0
        self.ncols = ncols
        self._supports = None
        self._plan = None
        self._packed = None

    def copy_rows(self) -> list[list[int]]:
        return [r[:] for r in self.rows]

    def column(self, j: int) -> list[int]:
        return [r[j] for r in self.rows]

    def columns(self, idx: Iterable[int]) -> "Matrix":
        idx = list(idx)
        return Matrix(self.field, [[r[j] for j in idx] for r in self.rows], len(idx))

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.nrows,
        )

    def mul_vec(self, v: Sequence[int]) -> list[int]:
        dot = self.field.dot
        return [dot(row, v) for row in self.rows]

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise InvalidParameter("dimension mismatch in matmul")
        dot = self.field.dot
        ot = other.transpose()
        return Matrix(
            self.field,
            [[dot(r, c) for c in ot.rows] for r in self.rows],
            other.ncols,
        )

    # -- elimination -------------------------------------------------------

    def eliminate(self, cols, stop: bool = True, bound: int | None = None):
        """``eliminate_keys`` on the keys of the columns ``cols``, with
        ``bound`` (default nrows): the pivots as (row, key), their count the
        rank on the rows below ``bound``, and the dependents' reduced keys.
        ``stop`` ends at the first dependent, or at once with dependents
        ``[None]`` when the columns touch fewer rows than there are
        columns."""
        if stop:
            sup = self.column_supports()
            if len(set().union(*map(sup.__getitem__, cols))) < len(cols):
                return [], [None]
        fld = self.field
        return eliminate_keys(fld.sub_key, map(fld.vec_key, map(self.packed_column, cols)),
                              self.nrows if bound is None else bound, stop)

    def rref(self) -> tuple[list[list[int]], list[int]]:
        """Reduced row echelon form; returns (rows, pivot column list).
        Eliminations touch only the nonzero positions of the pivot row."""
        f = self.field
        rows = self.copy_rows()
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
            pr = None
            for i in range(r, len(rows)):
                if rows[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            rr = rows[r] = f.vec_scale(rows[r], f.inv(rows[r][c]))
            support = [j for j in range(c, self.ncols) if rr[j]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f.vec_sub_at(rows[i], rows[i][c], rr, support)
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        return rows, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "Matrix":
        """Basis of the right nullspace, one vector per row."""
        f = self.field
        rows, pivots = self.rref()
        free = sorted(set(range(self.ncols)) - set(pivots))
        basis = []
        for fc in free:
            v = [0] * self.ncols
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(rows[r][fc])
            basis.append(v)
        return Matrix(self.field, basis, self.ncols)

    def column_supports(self) -> list[tuple[int, ...]]:
        """Per-column tuple of nonzero row indices (cached)."""
        return self._nonzeros()[0]

    def row_supports(self) -> list[tuple[int, ...]]:
        """Per-row tuple of nonzero column indices (cached)."""
        return self._nonzeros()[1]

    def row_plan(self) -> tuple:
        """The rows as a ``field.row_plan`` over their supports (cached), so
        that ``field.run_plan(plan, v)`` is the matrix times v."""
        if self._plan is None:
            rows = self.rows
            self._plan = self.field.row_plan(
                [(js, [rows[i][j] for j in js]) for i, js in enumerate(self.row_supports())],
                self.ncols)
        return self._plan

    def packed_column(self, j: int):
        """Column j as ``field.packed`` gives it, built on first use from
        the column supports and cached."""
        if self._packed is None:
            self._packed = [None] * self.ncols
        col = self._packed[j]
        if col is None:
            v = [0] * self.nrows
            for i in self.column_supports()[j]:
                v[i] = self.rows[i][j]
            col = self._packed[j] = self.field.packed(v)
        return col

    def private_columns(self) -> dict[int, list[int]]:
        """Row -> the columns where it alone is nonzero, if any (cached)."""
        return self._nonzeros()[2]

    def _nonzeros(self) -> tuple[list, list, dict]:
        """Column supports, row supports and private columns, built
        together on first use."""
        if self._supports is None:
            by_row = [tuple(itertools.compress(range(self.ncols), row)) for row in self.rows]
            by_col: list[list[int]] = [[] for _ in range(self.ncols)]
            for i, js in enumerate(by_row):
                for j in js:
                    by_col[j].append(i)
            private: dict[int, list[int]] = {}
            for j, col in enumerate(by_col):
                if len(col) == 1:
                    private.setdefault(col[0], []).append(j)
            self._supports = ([tuple(s) for s in by_col], by_row, private)
        return self._supports

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.ncols == other.ncols
        )

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


# ----------------------------------------------------------------------
# matrix text format
#
#   [extension only]  line 0: "p m c0 c1 ... cm"   (modulus, low degree first)
#   line 1: "q rows cols"
#   then one matrix row of element encodings per line


def dump_matrix(mat: Matrix) -> str:
    f = mat.field
    lines = []
    if f.m > 1:
        lines.append(" ".join(str(x) for x in (f.p, f.m, *f.modulus)))
    lines.append(f"{f.q} {mat.nrows} {mat.ncols}")
    for row in mat.rows:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def load_matrix(text: str) -> Matrix:
    """Parse the matrix text format; raises InvalidParameter on bad input."""
    try:
        return _parse_matrix(text)
    except InvalidParameter:
        raise
    except ValueError as exc:  # a token that is not an integer, a short line
        raise InvalidParameter(f"malformed matrix file: {exc}") from None


def _parse_matrix(text: str) -> Matrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidParameter("empty matrix file")
    first = [int(t) for t in lines[0].split()]
    if len(first) == 3:
        q, nrows, ncols = first
        if not is_prime(q):
            raise InvalidParameter("prime-field matrix file with composite q")
        fld = FiniteField(q)
        body = lines[1:]
    else:
        p, m, *mod = first
        fld = FiniteField(p, m, mod)
        q, nrows, ncols = (int(t) for t in lines[1].split())
        if q != fld.q:
            raise InvalidParameter("field order mismatch in matrix header")
        body = lines[2:]
    if len(body) != nrows:
        raise InvalidParameter("matrix row count mismatch")
    rows = []
    for ln in body:
        row = [int(t) for t in ln.split()]
        if len(row) != ncols or any(not (0 <= x < fld.q) for x in row):
            raise InvalidParameter("bad matrix row")
        rows.append(row)
    return Matrix(fld, rows, ncols)
