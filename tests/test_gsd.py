import hashlib
import itertools
import math

import pytest

from lrckit import fixtures, gsd, serial
from lrckit.algebra import FiniteField
from lrckit.designs import pg_steiner
from lrckit.errors import Infeasible, InvalidParameter, NotRegular
from lrckit.gsd import (
    basic_array,
    check_array,
    family_params,
    rearranged_array,
    truncated_array,
)
from lrckit.lrc import EvaluationLayout, LrcParams, build_code, build_layout

F11 = FiniteField(11)
F17 = FiniteField(17)


def fano_layout(h, v=2, field=F11):
    params = LrcParams(r=2, delta=2, ell=6, v=v, h=h)
    return build_layout(params, field, pg_steiner(2, 2))


@pytest.fixture(scope="module")
def ex1_array(example1_layout_module):
    layout = example1_layout_module
    return basic_array(layout, build_code(layout))


@pytest.fixture(scope="module")
def example1_layout_module():
    from lrckit.fixtures import example1_layout

    return example1_layout()


def assert_faithful(arr):
    coords = [c for row in arr.cells for c in row if c is not None]
    assert sorted(coords) == list(range(arr.layout.n))


def test_basic_array_shape(ex1_array):
    arr = ex1_array
    assert (arr.rows, arr.cols, arr.data_cols) == (3, 8, 7)
    assert_faithful(arr)
    # data columns group coordinates by evaluation point
    lay = arr.layout
    point_of = {c: x for b, a in enumerate(lay.sets) for c, x in zip(lay.block_coords(b), a)}
    for j in range(arr.data_cols):
        pt = arr.column_points[j]
        for c in arr.column_coords(j):
            assert point_of[c] == pt


def test_basic_array_no_globals():
    lay = fano_layout(h=0)
    arr = basic_array(lay, build_code(lay))
    assert (arr.rows, arr.cols) == (3, 7)
    assert arr.data_cols == 7
    assert_faithful(arr)


def test_basic_array_zero_fill():
    lay = fano_layout(h=4)
    arr = basic_array(lay, build_code(lay))
    assert (arr.rows, arr.cols) == (3, 9)
    zero_cells = [(i, j) for j in range(arr.cols) for i in range(arr.rows)
                  if arr.cells[i][j] is None]
    assert len(zero_cells) == 2
    assert all(j >= 7 for _, j in zero_cells)
    assert_faithful(arr)


def test_basic_array_not_regular():
    params = LrcParams(r=2, delta=2, ell=1, v=2, h=0)
    lay = EvaluationLayout(F11, params, [(0, 1, 2), (0, 3, 4)], ())
    with pytest.raises(NotRegular):
        basic_array(lay, build_code(lay))


def test_rearranged_array():
    lay = fano_layout(h=7, field=F17)
    arr = rearranged_array(lay, build_code(lay))
    assert (arr.rows, arr.cols) == (4, 7)
    assert_faithful(arr)
    # one global parity per column, on the bottom row
    for j in range(7):
        assert arr.cells[3][j] == lay.global_coord(j)


def test_rearranged_divisibility():
    lay = fano_layout(h=3)
    with pytest.raises(InvalidParameter):
        rearranged_array(lay, build_code(lay))


def test_rearranged_h0_matches_basic():
    lay = fano_layout(h=0)
    code = build_code(lay)
    assert rearranged_array(lay, code).cells == basic_array(lay, code).cells


def test_truncated_array_small():
    lay = fano_layout(h=1, v=1)
    arr = truncated_array(lay, build_code(lay))
    assert (arr.rows, arr.cols) == (3, 7)
    assert len(arr.real_cells()) == lay.n == 21
    assert_faithful(arr)
    # the dropped point's column leads and carries the parity
    assert arr.column_points[0] == lay.truncated_tail[0]
    assert arr.cells[2][0] == lay.global_coord(0)


def test_truncated_requires_h_eq_r_minus_v():
    lay = fano_layout(h=2, v=2)
    with pytest.raises(InvalidParameter):
        truncated_array(lay, build_code(lay))


def test_check_array_two_columns(ex1_array):
    rep = check_array(ex1_array, y=2, gamma=0, columns="data", d=5)
    assert rep["checked"] == 21
    assert rep["all_recoverable"]
    assert rep["gsd_condition"] == {"d": 5, "s_b_plus_gamma": 6, "holds": True}


def test_check_array_within_distance(ex1_array):
    rep = check_array(ex1_array, y=0, gamma=4, columns="all", d=5)
    assert rep["all_recoverable"]
    assert not rep["gsd_condition"]["holds"]  # 4 = d-1 is within distance


def test_recovery_claims_sweeps(ex1_array):
    # one erased data column plus h-y-1 arbitrary cells, and the
    # overlapping-pair budget variants, all exhaustively recoverable
    h, delta = 3, 2
    for y, gamma in ((1, h - 1 - 1), (2, h - 2 - 1)):
        rep = check_array(ex1_array, y=y, gamma=gamma, columns="data")
        assert rep["all_recoverable"], (y, gamma)
    rep = check_array(ex1_array, y=2, gamma=h - 2 - 1, columns="data")
    assert rep["all_recoverable"]
    gamma3 = min(delta * (delta + 1) // 2 - 1 - 1, h + delta - 1 - 1)
    rep = check_array(ex1_array, y=1, gamma=gamma3, columns="data")
    assert rep["all_recoverable"]


def test_check_array_sampled_deterministic(ex1_array):
    # the second shape has 159 failures, more than max_witness: the witnesses
    # must still be the first ones in pattern order for every worker count
    shapes = [(dict(y=1, gamma=2, count=50), 1), (dict(y=2, gamma=3, count=400), 159)]
    for shape, failing in shapes:
        a = check_array(ex1_array, mode="sampled", seed=3, **shape)
        b = check_array(ex1_array, mode="sampled", seed=3, **shape)
        assert a == b
        assert a["checked"] - a["recoverable"] == failing
        c = check_array(ex1_array, mode="sampled", seed=3, workers=2, **shape)
        assert c == a


@pytest.fixture(scope="module")
def ex3_array():
    layout = fixtures.example3_layout()
    return truncated_array(layout, build_code(layout))


# sha256 of serial.dumps(report): the sampled sweeps must keep their seeds,
# counts and witnesses byte for byte.  The y=8 shape has 14 failures and the
# ex1 shape 159, more than max_witness, so the witness merge is pinned too.
SWEEP_PINS = [
    ("ex3", dict(y=0, gamma=8, count=60, seed=101, d=9),
     "9dbd4cd42b1d27bdbc8c74f391312b4978a2aa93d96e3085a3b24eb7304e1584"),
    ("ex3", dict(y=2, gamma=1, count=60, seed=102, d=9),
     "58a6987cc72c310b1de3a3beddc745282680fe7fc469e27b7a0381857201a661"),
    ("ex3", dict(y=1, gamma=3, count=60, seed=103, d=9),
     "211d5e1347041bfc9218537a5afbbaf09815f958bf60fdff77b92fc89ab8a8ae"),
    ("ex3", dict(y=8, gamma=0, count=120, seed=104, d=9),
     "7ea4313771ffdf860dfa9945824882e9bfbd4b5b27067df60e4eaabff0993782"),
    ("ex1", dict(y=2, gamma=3, count=400, seed=3),
     "b7348012e1dab116ac2a24881fdcbb6732a2639343612b1d0e524cb5a456d740"),
]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_reports_are_pinned(ex1_array, ex3_array, workers):
    arrays = {"ex1": ex1_array, "ex3": ex3_array}
    for name, shape, digest in SWEEP_PINS:
        report = check_array(arrays[name], mode="sampled", workers=workers, **shape)
        assert hashlib.sha256(serial.dumps(report).encode()).hexdigest() == digest, (name, shape)


def test_check_array_single_worker_starts_no_pool(ex1_array, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(gsd, "ProcessPoolExecutor", no_pool)
    rep = check_array(ex1_array, y=1, gamma=1, mode="sampled", count=20, seed=1, workers=1)
    assert rep["checked"] == 20


def test_check_array_exhaustive_guard(ex1_array):
    with pytest.raises(Infeasible):
        check_array(ex1_array, y=2, gamma=3, exhaustive_limit=10)


@pytest.mark.parametrize("kw", [
    dict(y=-1, gamma=0),
    dict(y=9, gamma=0),
    dict(y=1, gamma=-1),
    dict(y=1, gamma=22),
    dict(y=1, gamma=22, mode="sampled"),
    dict(y=1, gamma=1, mode="sampled", count=0),
    dict(y=1, gamma=1, mode="sampled", count=-5),
])
def test_check_array_rejects_bad_arguments(ex1_array, kw):
    with pytest.raises(InvalidParameter):
        check_array(ex1_array, **kw)


@pytest.mark.parametrize("limit", [0, -1])
def test_check_array_rejects_exhaustive_limit_below_one(ex1_array, limit):
    with pytest.raises(InvalidParameter):
        check_array(ex1_array, y=1, gamma=1, exhaustive_limit=limit)


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_check_array_gamma_fits_every_column_choice(mode):
    # 7 data columns of 3 cells and a parity column of 2: one erased
    # column leaves at least 20 of the 23 cells
    layout = fano_layout(h=2)
    arr = basic_array(layout, build_code(layout))
    assert check_array(arr, y=1, gamma=20, mode=mode, count=5)["checked"] > 0
    with pytest.raises(InvalidParameter):
        check_array(arr, y=1, gamma=21, mode=mode, count=5)


def test_family_params_pg_example():
    rep = family_params("pg", q1=8, beta=2, delta=3, v=1)
    assert rep["n"] == 657 and rep["k"] == 505
    assert (rep["rows"], rep["cols"]) == (9, 73)
    assert rep["h"] == 6 and rep["r"] == 7
    assert rep["d_per_corollary"] == 8 and rep["d_singleton"] == 9
    assert rep["q_min"] == 79 and rep["q_min_prime_power"] == 79
    claimed = {(c["y"], c["gamma"]) for c in rep["claims"] if c["valid"]}
    assert (2, 1) in claimed and (1, 3) in claimed
    assert all(rep["preconditions"].values())


def test_family_params_ag_cross_check():
    rep = family_params("ag", q1=3, beta=2, delta=2, v=1)
    assert (rep["rows"], rep["cols"]) == (4, 9)
    assert rep["h"] == 1 and rep["r"] == 2
    # build the actual array and compare shapes
    from lrckit.designs import ag_steiner

    params = LrcParams(r=2, delta=2, ell=11, v=1, h=1)
    lay = build_layout(params, FiniteField(13), ag_steiner(3, 2))
    arr = truncated_array(lay, build_code(lay))
    assert (arr.rows, arr.cols) == (rep["rows"], rep["cols"])
    assert lay.n == rep["n"] and lay.params.k == rep["k"]


def test_family_params_precondition_flag():
    rep = family_params("ag", q1=8, beta=2, delta=2, v=1)
    assert rep["h"] == 6 > 4
    assert not rep["preconditions"]["h_le_delta_sq"]
    assert any("delta^2" in note for note in rep["notes"])


def test_family_params_regular_packing():
    rep = family_params("regularpacking", prime_powers=[3, 5], e=2, delta=2, v=0)
    # v=0 is out of range and must be flagged, arithmetic still reported
    assert rep["rows"] == 2 and rep["cols"] == 30
    assert not rep["preconditions"]["v_in_range"]


def full_claims(rows, delta, h):
    """Every claim of the three items, void ones included: items II and III
    run to their own ends, y with C(y, 2) <= delta and y <= top - 2."""
    top = delta * (delta + 1) // 2
    out = [("I", y, h - 2 * y - 1, h - 2 * y - 1 >= 0 and y * (rows - 2) > delta)
           for y in (1, 2)]
    y = 1
    while math.comb(y, 2) <= delta:
        gamma = h - 2 - math.comb(y, 2) - y
        out.append(("II", y, gamma, gamma >= 0 and y * rows - 1 - math.comb(y, 2) - y > delta))
        y += 1
    for y in range(1, max(top - 1, 1)):
        gamma = min(top - 2 * y - 1, h + delta - 1 - 2 * y)
        out.append(("III", y, gamma, gamma > 0 and y * rows + gamma > h + delta - 1))
    return out


def test_claims_stop_where_gamma_turns_negative():
    for rows, delta, h in itertools.product((3, 9, 21), range(2, 10), range(-3, 40)):
        claims = [(c["item"], c["y"], c["gamma"], c["valid"])
                  for c in gsd._claims(rows, delta, h)]
        assert claims == [c for c in full_claims(rows, delta, h) if c[0] == "I" or c[2] >= 0]


def test_claims_beyond_the_guard_are_refused():
    assert len(gsd._claims(9, 141, 19_000)) < gsd.MAX_CLAIMS
    with pytest.raises(InvalidParameter, match="claims"):
        gsd._claims(9, 30_000, 2)
    with pytest.raises(InvalidParameter, match="claims"):
        gsd._claims(9, 200, 20_000)


@pytest.mark.parametrize("family, q1, delta", [("ag", 3, 4), ("pg", 3, 5), ("sg", 3, 5)])
def test_family_params_need_r_at_least_one(family, q1, delta):
    family_params(family, q1=q1, beta=2, delta=delta - 1, v=1)  # r = 1
    with pytest.raises(InvalidParameter, match="r >= 1"):
        family_params(family, q1=q1, beta=2, delta=delta, v=1)


def test_family_params_bound_q1_to_the_beta():
    rep = family_params("ag", q1=2, beta=81, delta=2, v=1)
    assert rep["q_min_prime_power"] == rep["q_min"] == 2**81
    for q1, beta in ((2, 82), (3, 52), (3, 10**8)):
        with pytest.raises(InvalidParameter, match="q1\\^beta"):
            family_params("ag", q1=q1, beta=beta, delta=2, v=1)


def test_array_json(ex1_array):
    blob = serial.array_to_dict(ex1_array)
    assert blob["rows"] == 3 and blob["cols"] == 8
    assert blob["zero_fill"] == []
    assert len([c for row in blob["cells"] for c in row if c is not None]) == 24
