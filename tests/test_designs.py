import hashlib
import math

import pytest

from lrckit import designs
from lrckit.designs import (
    Design,
    ag_steiner,
    cyclotomic_packing,
    dump_design,
    johnson_bound,
    load_design,
    pg_steiner,
    sg_steiner,
    verify_design,
)
from lrckit.errors import InvalidParameter


def steiner_block_count(n, t, tau):
    return math.comb(n, tau) // math.comb(t, tau)


def assert_advertised(design, n, blocks, size):
    assert design.num_points == n
    assert len(design.blocks) == blocks
    assert design.block_size == size
    rep = verify_design(design)
    assert rep.exhaustive
    assert rep.is_packing
    assert rep.is_steiner == design.steiner
    assert rep.regularity == design.regularity
    assert steiner_block_count(n, size, design.tau) == blocks or not design.steiner
    assert len(design.blocks) <= johnson_bound(n, size, design.tau - 1)


def test_affine_plane_order3():
    d = ag_steiner(3, 2)
    assert_advertised(d, 9, 12, 3)
    assert d.regularity == 4


def test_affine_order2_is_complete_graph():
    d = ag_steiner(2, 2)
    assert_advertised(d, 4, 6, 2)


def test_projective_plane_order2():
    assert_advertised(pg_steiner(2, 2), 7, 7, 3)


def test_projective_plane_order3():
    assert_advertised(pg_steiner(3, 2), 13, 13, 4)


def test_projective_plane_order8():
    d = pg_steiner(8, 2)
    assert_advertised(d, 73, 73, 9)
    assert d.regularity == 9


# sha256 of dump_design: pins the header and every block, in order
DESIGN_DIGESTS = [
    (ag_steiner, 2, 2, "9125300ea484b6516214dbea2cc459c8633846266dfc301951f47c3efe4321b1"),
    (ag_steiner, 3, 2, "b54052feeb30696c15e08b693b6a60ae45dec5b56850dbb811b2fc4d2191cafa"),
    (ag_steiner, 4, 2, "96be455d521d0b57152f88810f058b81bbe0368b65689c471895c95c56f32bc2"),
    (ag_steiner, 9, 2, "cf9fdc97701948c8cc13848bec448a2e1561e99348d0f07c1f2828cc4e5906e2"),
    (ag_steiner, 2, 3, "6248c4db097da6fdfdef2735511ba3538890f364b64034537a2af9525835454f"),
    (ag_steiner, 3, 3, "04b7a5d81ba3b1decf4d7f0c33f76969483aea1058fcc8d854d4e0ffe41dbdfb"),
    (ag_steiner, 5, 3, "715000cc0db121f1485be31d82089de1e1e7ec337535480705eb01c73718fddf"),
    (ag_steiner, 25, 2, "d1dc664325e3cc612156fddbc4466ba06eb4cf6abe6c49525e9e51d0a17fd264"),
    (pg_steiner, 2, 2, "59f854f1aa86da3b4889c858c74a16503538f25de180227cd72b37d44d3feb43"),
    (pg_steiner, 3, 2, "a99ea1348424a085ae4412eb6dadd97798f5381502ce6a9e32561df98c5d0d97"),
    (pg_steiner, 4, 2, "f2f43cee38025beb944bf070cc466a1f6821d9a9cf78da4262d4ca1adf936c97"),
    (pg_steiner, 8, 2, "655510344ae242c9456afd67274f508b1e9ff79d2523a3df0327e8c63a5aab44"),
    (pg_steiner, 9, 2, "90cce336a3d90f5748f5954e4a6bfbd4088b650a6a0ae2356d23cea6bfe2ffb0"),
    (pg_steiner, 2, 3, "f6a1c2b1095eab6080a9b5fb49928026562ab29e19af9be39c187702309e7782"),
    (pg_steiner, 3, 3, "9b7440da780a4b7907b5317ca064a360fbf1ca25e34422365e057ba35b7c99ea"),
    (pg_steiner, 5, 2, "2dae3346cfef180149cbb949738373255d5ecb8d9383b2d4680e6a14d6f6b93b"),
]


@pytest.mark.parametrize("build, q1, beta, digest", DESIGN_DIGESTS,
                         ids=[f"{b.__name__}-{q}-{e}" for b, q, e, _ in DESIGN_DIGESTS])
def test_line_designs_are_pinned(build, q1, beta, digest):
    text = dump_design(build(q1, beta))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_spherical_order2():
    # all triples of a 5-set
    assert_advertised(sg_steiner(2, 2), 5, 10, 3)


def test_spherical_order3():
    assert_advertised(sg_steiner(3, 2), 10, 30, 4)


def test_spherical_order2_cubed():
    # strength 3 with blocks of size 3: the exactly-one-cover check forces
    # every triple to be a block, C(9,3)/C(3,3) = 84 of them
    d = sg_steiner(2, 3)
    assert_advertised(d, 9, 84, 3)


# each construction's steps, as its docstring counts them: AG lines n(n-1)/(q1-1)
# (blocks times q1), PG lines C(n, 2) point pairs, SG circles q^4 (q1+1)
DESIGN_STEPS = [(ag_steiner, 3, 2, 36), (ag_steiner, 25, 2, 16250), (pg_steiner, 2, 2, 21),
                (pg_steiner, 9, 2, 4095), (sg_steiner, 2, 2, 768), (sg_steiner, 3, 2, 26244)]


@pytest.mark.parametrize("build, q1, beta, steps", DESIGN_STEPS,
                         ids=lambda x: getattr(x, "__name__", x))
def test_the_size_guard_admits_its_bound(monkeypatch, build, q1, beta, steps):
    monkeypatch.setattr(designs, "MAX_DESIGN", steps)
    build(q1, beta)
    monkeypatch.setattr(designs, "MAX_DESIGN", steps - 1)
    with pytest.raises(InvalidParameter, match="MAX_DESIGN"):
        build(q1, beta)


@pytest.mark.parametrize("build, q1, beta", [
    (ag_steiner, 25, 16), (pg_steiner, 13, 8), (sg_steiner, 4, 8),
    (ag_steiner, 256, 2), (pg_steiner, 64, 2), (sg_steiner, 2, 5),
    (ag_steiner, 2, 10**9), (pg_steiner, 2, 10**9), (sg_steiner, 2, 10**9),
])
def test_designs_beyond_the_size_guard_are_refused(monkeypatch, build, q1, beta):
    """Refused before any field is built, and before q1^beta is taken for
    a huge beta."""
    def no_field(*args, **kwargs):
        raise AssertionError("a field was built")

    monkeypatch.setattr(designs, "FiniteField", no_field)
    with pytest.raises(InvalidParameter, match="MAX_DESIGN"):
        build(q1, beta)


def test_cyclotomic_3_5():
    d = cyclotomic_packing([3, 5], 2)
    assert d.num_points == 30
    assert len(d.blocks) == 30
    assert d.regularity == 2
    assert sum(len(b) for b in d.blocks) == 60
    rep = verify_design(d)
    assert rep.is_packing and rep.regularity == 2
    assert len(set(d.blocks)) == len(d.blocks)


def test_cyclotomic_7():
    d = cyclotomic_packing([7], 3)
    assert d.num_points == 21 and d.block_size == 3
    assert d.regularity == 2
    assert verify_design(d).is_packing


def test_cyclotomic_perfect_matching():
    d = cyclotomic_packing([3], 2)
    assert d.num_points == 6 and len(d.blocks) == 3 and d.regularity == 1
    covered = sorted(p for b in d.blocks for p in b)
    assert covered == list(range(6))


def test_cyclotomic_divisibility_error():
    with pytest.raises(InvalidParameter):
        cyclotomic_packing([7], 4)
    with pytest.raises(InvalidParameter):
        cyclotomic_packing([3, 9], 2)  # not coprime


def test_verify_rejects_broken_designs():
    fano = pg_steiner(2, 2)
    missing = Design(7, fano.blocks[1:], tau=2, block_size=3)
    rep = verify_design(missing)
    assert rep.is_packing and not rep.is_steiner
    repeated = Design(7, fano.blocks + [fano.blocks[0]], tau=2, block_size=3)
    assert not verify_design(repeated).is_packing
    overlapping = Design(5, [(0, 1, 2), (0, 1, 3)], tau=2, block_size=3)
    assert not verify_design(overlapping).is_packing


def test_johnson_values():
    assert johnson_bound(9, 3, 1) == 12
    assert johnson_bound(7, 3, 1) == 7
    assert johnson_bound(73, 9, 1) == 73
    assert johnson_bound(5, 3, 2) == 10
    with pytest.raises(InvalidParameter):
        johnson_bound(3, 5, 1)


def test_design_text_round_trip():
    d = ag_steiner(3, 2)
    again = load_design(dump_design(d))
    assert again.num_points == d.num_points
    assert again.blocks == d.blocks
    assert again.tau == d.tau and again.block_size == d.block_size
