"""Bundled regression fixtures: the two published parity-check matrices
(stored verbatim in the matrix text format and checksummed), the layouts
that reproduce them, and the three end-to-end regression runs.

The first fixture's evaluation sets and global points were recovered by
solving the printed matrix against the construction: column groups list the
blocks {3,6,5}+i in descending i, each block ordered ((5,3,6)+i) mod 7, and
the global rows evaluate the combined polynomial at 10, 9, 8 in that order.
With that layout the constructed code equals the printed code exactly.
"""

from __future__ import annotations

import hashlib
from importlib import resources

from .algebra import FiniteField, Matrix, Poly, load_matrix, poly_from_roots
from .bounds import classify, singleton_bound
from .designs import ag_steiner, pg_steiner
from .erasure import min_distance, recoverable
from .errors import InternalInvariantViolation
from .goppa import GoppaParams
from .gsd import check_array, truncated_array
from .lrc import (
    EvaluationLayout,
    LinearCode,
    LrcParams,
    build_code,
    build_layout,
    generator_matrix,
    verify_locality,
)

_CHECKSUMS = {
    "example1_check.txt": "91ed5774ec1140597857a8ddf2317a371983f976f75837b7f85da20614aeabe7",
    "example2_check.txt": "3de46a1f681470f809331fb31b91781855fc85f5ec674dd910bb848abf187b1e",
}


def _load_fixture(name: str) -> Matrix:
    text = resources.files("lrckit.data").joinpath(name).read_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != _CHECKSUMS[name]:
        raise InternalInvariantViolation(f"fixture {name} fails its checksum")
    return load_matrix(text)


def example1_check() -> Matrix:
    """The published 10x24 parity-check matrix over F_11."""
    return _load_fixture("example1_check.txt")


def example2_check() -> Matrix:
    """The published parity check of the 3x8 array code over F_11."""
    return _load_fixture("example2_check.txt")


def example1_repair_sets() -> list[tuple[int, ...]]:
    """Repair sets of the published matrix: two information columns per
    block plus its local parity column."""
    return [(2 * b, 2 * b + 1, 14 + b) for b in range(7)]


def example1_layout() -> EvaluationLayout:
    fld = FiniteField(11)
    params = LrcParams(r=2, delta=2, ell=6, v=2, h=3)
    sets = [tuple((x + i) % 7 for x in (5, 3, 6)) for i in range(6, -1, -1)]
    return EvaluationLayout(fld, params, sets, (10, 9, 8))


def example1_permutation(layout: EvaluationLayout) -> list[int]:
    """Map from the layout's block-major coordinates to the published
    column order (information pairs first, then local parities, then
    global parities)."""
    perm = [0] * layout.n
    for b in range(7):
        perm[layout.coord(b, 0)] = 2 * b
        perm[layout.coord(b, 1)] = 2 * b + 1
        perm[layout.coord(b, 2)] = 14 + b
    for i in range(3):
        perm[layout.global_coord(i)] = 21 + i
    return perm


def ag13_layout() -> EvaluationLayout:
    """Layout over F_13 on the twelve lines of the order-3 affine plane:
    r=2, delta=2, v=2, h=4, giving a [40, 24] code."""
    return build_layout(
        LrcParams(r=2, delta=2, ell=11, v=2, h=4), FiniteField(13), ag_steiner(3, 2)
    )


def example3_layout() -> EvaluationLayout:
    """Layout over F_79 on the order-8 projective plane: r=7, delta=3, v=1,
    h=6, giving the [657, 505] code arranged as a 9x73 array."""
    return build_layout(
        LrcParams(r=7, delta=3, ell=72, v=1, h=6), FiniteField(79), pg_steiner(8, 2)
    )


def goppa_small_params():
    """Small Goppa-style instance over F_16 with an empty tail set:
    measured k = n - ell(delta-1) - h and distance >= h + delta."""
    fld = FiniteField(2, 4)
    g1 = Poly(fld, [7, 1])  # x - 7 (char 2)
    g2 = poly_from_roots(fld, [8, 9])
    return GoppaParams(fld, g1, g2, [(1, 2, 3), (4, 5, 6)])


def goppa_optimal_params():
    """Nonempty-tail instance over F_16 chosen so the optimality conclusion
    d = h + delta holds exactly (verified by exhaustive search; the
    conclusion is instance-dependent, see the small counterexample in the
    tests)."""
    fld = FiniteField(2, 4)
    g1 = Poly(fld, [0, 1])  # x
    g2 = poly_from_roots(fld, [1, 10])
    return GoppaParams(fld, g1, g2, [(2, 3, 4), (5, 6, 7)], (8, 9))


# ----------------------------------------------------------------------
# regression runs


def run_example1() -> dict:
    """Published-matrix regression: distance 5, locality, optimality, and
    exact agreement between the constructed code and the printed one."""
    h_pub = example1_check()
    rank = len(h_pub.eliminate(range(24), stop=False)[0])
    d_pub = min_distance(h_pub)
    code_pub = LinearCode(k=24 - rank, check=h_pub, repair_sets=example1_repair_sets(), delta=2)
    loc = verify_locality(code_pub)
    singleton = singleton_bound(24, 14, 2, 2)

    layout = example1_layout()
    code = build_code(layout)
    d_ours = min_distance(code.check)
    loc_ours = verify_locality(code)
    perm = example1_permutation(layout)
    g = generator_matrix(layout)
    inverse = [0] * layout.n
    for mine, pub in enumerate(perm):
        inverse[pub] = mine
    g_pub_order = Matrix(h_pub.field, [[row[inverse[j]] for j in range(24)] for row in g.rows])
    prod = g_pub_order.matmul(h_pub.transpose())
    annihilates = all(all(v == 0 for v in r) for r in prod.rows)
    # G annihilates H_pub, so it spans that code iff its rank is 24 - rank
    g_rank = len(g_pub_order.eliminate(range(24), stop=False)[0])

    report = {
        "fixture": "example1",
        "rank": rank,
        "distance_published": d_pub,
        "distance_constructed": d_ours,
        "singleton": singleton,
        "locality_published": loc.ok,
        "locality_constructed": loc_ours.ok,
        "punctured_distances": loc.punctured_distances,
        "construction_matches_published": annihilates and g_rank == 24 - rank,
        "optimal": d_pub == singleton,
    }
    report["pass"] = (
        rank == 10
        and d_pub == 5
        and d_ours == 5
        and loc.ok
        and loc_ours.ok
        and report["construction_matches_published"]
        and report["optimal"]
    )
    return report


def run_example2() -> dict:
    """Array regression: every two-column erasure among the first seven
    columns is recoverable although the flat distance is only 5."""
    h_arr = example2_check()
    cols = [tuple(range(3 * j, 3 * j + 3)) for j in range(8)]
    pair_results = []
    for a in range(7):
        for b in range(a + 1, 7):
            pair_results.append(recoverable(h_arr, cols[a] + cols[b]))
    d_flat = min_distance(h_arr)
    s_b_gamma = 2 * 3 + 0
    report = {
        "fixture": "example2",
        "two_column_patterns": len(pair_results),
        "two_column_recoverable": sum(pair_results),
        "flat_distance": d_flat,
        "gsd_condition": {"s_b_plus_gamma": s_b_gamma, "d": d_flat, "holds": s_b_gamma > d_flat - 1},
    }
    report["pass"] = (
        all(pair_results) and d_flat == 5 and report["gsd_condition"]["holds"]
    )
    return report


def run_example3(sample_count: int = 10**4, seed: int = 20240, workers: int = 1) -> dict:
    """Scaled regression on the 9x73 array over F_79: exact locality on all
    73 repair sets plus sampled erasure sweeps (cells within distance,
    2 columns + 1 cell, 1 column + 3 cells)."""
    layout = example3_layout()
    code = build_code(layout)
    loc = verify_locality(code)
    arr = truncated_array(layout, code)
    d = singleton_bound(657, 505, 7, 3)

    weight8 = check_array(
        arr, y=0, gamma=8, mode="sampled", count=sample_count, seed=seed,
        workers=workers, d=d,
    )
    two_one = check_array(
        arr, y=2, gamma=1, mode="sampled", count=sample_count, seed=seed + 1,
        workers=workers, d=d,
    )
    one_three = check_array(
        arr, y=1, gamma=3, mode="sampled", count=sample_count, seed=seed + 2,
        workers=workers, d=d,
    )
    bound = classify(657, 505, 9, 7, 3, 79)
    report = {
        "fixture": "example3",
        "n": layout.n,
        "k": layout.params.k,
        "array": {"rows": arr.rows, "cols": arr.cols},
        "locality": loc.ok,
        "punctured_distance_set": sorted(set(loc.punctured_distances)),
        "singleton": d,
        "sweeps": {
            "weight8": weight8,
            "two_columns_one_cell": two_one,
            "one_column_three_cells": one_three,
        },
        "length_bound_ok": bound["length_bound"]["length_ok"],
    }
    report["pass"] = (
        loc.ok
        and d == 9
        and weight8["all_recoverable"]
        and two_one["all_recoverable"]
        and one_three["all_recoverable"]
        and report["length_bound_ok"]
    )
    return report


def run_all(workers: int = 1, sample_count: int = 10**4, seed: int = 20240) -> dict:
    reports = {
        "example1": run_example1(),
        "example2": run_example2(),
        "example3": run_example3(sample_count=sample_count, seed=seed, workers=workers),
    }
    return {"reports": reports, "pass": all(r["pass"] for r in reports.values())}
