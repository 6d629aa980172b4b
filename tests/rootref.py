"""The integer v-th root as ``algebra.iroot`` took it before it started
from a float estimate: Newton's method on ints from 2^ceil(bits/v) down,
about 0.7 v steps for a large v.  It is the reference of the
differential test, and is not used by the library."""


def iroot_from_above(x: int, v: int) -> int:
    """floor(x ** (1/v)) for x >= 1."""
    y = 1 << -(-x.bit_length() // v)
    while True:
        z = ((v - 1) * y + x // y ** (v - 1)) // v
        if z >= y:
            return y
        y = z
