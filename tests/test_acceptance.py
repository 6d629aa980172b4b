"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line.  The numbered criteria cover the two
published regression matrices, the constructed codes at three scales,
decoder equivalence, beyond-distance recovery, design verification, the
congruence-style construction, the bound calculators, and determinism of
sampled reports under reruns and worker counts.
"""

import itertools
import random
import time

import pytest

from lrckit import fixtures, serial
from lrckit.bounds import classify, length_bound, singleton_bound
from lrckit.designs import (
    ag_steiner,
    cyclotomic_packing,
    johnson_bound,
    pg_steiner,
    sg_steiner,
    verify_design,
)
from lrckit.erasure import (
    decode_linear,
    decode_structured,
    min_distance,
    pattern_admissible,
    recoverable,
)
from lrckit.goppa import distance_report
from lrckit.gsd import basic_array, check_array
from lrckit.lrc import LinearCode, build_code, encode, verify_locality
from patternref import beyond_distance_patterns, heavy_global_patterns

_shared: dict = {}


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def mask(word, coords):
    cs = set(coords)
    return [None if c in cs else x for c, x in enumerate(word)]


def zero_fill(word, coords):
    cs = set(coords)
    return [0 if c in cs else x for c, x in enumerate(word)]


def test_criterion_01_example1_regression(example1_check):
    t0 = time.monotonic()
    h = example1_check
    d = min_distance(h)
    code = LinearCode(k=14, check=h, repair_sets=fixtures.example1_repair_sets(), delta=2)
    loc = verify_locality(code)
    singleton = singleton_bound(24, 14, 2, 2)
    elapsed = time.monotonic() - t0
    ok = (
        h.rank() == 10
        and d == 5
        and loc.punctured_distances == [2] * 7
        and loc.ok
        and singleton == 5
        and elapsed < 60
    )
    report(1, ok, f"published matrix: d={d}, punctured={set(loc.punctured_distances)}, "
                  f"singleton={singleton}, {elapsed:.1f}s")


def test_criterion_02_construction_reproduction(example1_layout, example1_code):
    d = min_distance(example1_code.check)
    loc = verify_locality(example1_code)
    rep = fixtures.run_example1()
    ok = d == 5 and loc.ok and rep["construction_matches_published"]
    _shared["n24"] = example1_layout.n
    report(2, ok, f"constructed [24,14] code: d={d}, locality={loc.ok}, "
                  f"matches published space={rep['construction_matches_published']}")


def test_criterion_03_example2_regression():
    t0 = time.monotonic()
    rep = fixtures.run_example2()
    elapsed = time.monotonic() - t0
    ok = rep["pass"] and elapsed < 10
    report(3, ok, f"array matrix: {rep['two_column_recoverable']}/21 column pairs, "
                  f"flat d={rep['flat_distance']}, GSD bit={rep['gsd_condition']['holds']}, "
                  f"{elapsed:.1f}s")


def test_criterion_04_ag_design_code(ag13_code):
    t0 = time.monotonic()
    d = min_distance(ag13_code.check)
    serial_time = time.monotonic() - t0
    loc = verify_locality(ag13_code)
    singleton = singleton_bound(40, 24, 2, 2)
    ok = d == 6 == singleton and loc.ok and serial_time < 600
    _shared["d40"] = d
    report(4, ok, f"[40,24] code over F_13: d={d} (=h+delta, singleton={singleton}), "
                  f"{serial_time:.1f}s single-core")


def _decoder_equivalence(layout, code, rng):
    words = [encode(layout, [rng.randrange(code.field.q) for _ in range(code.k)])
             for _ in range(8)]
    checked = failures = 0
    for i, pat in enumerate(heavy_global_patterns(layout, 2)):
        if not pattern_admissible(layout, pat).admissible:
            continue
        word = words[i % len(words)]
        coords = pat.coords(layout)
        a = decode_structured(layout, mask(word, coords), pat)
        b = decode_linear(code, coords, zero_fill(word, coords))
        checked += 1
        if not (a == b == word):
            failures += 1
    return checked, failures


def test_criterion_05_decoder_equivalence(example1_layout, example1_code,
                                          ag13_layout, ag13_code):
    rng = random.Random(505)
    c1, f1 = _decoder_equivalence(example1_layout, example1_code, rng)
    c2, f2 = _decoder_equivalence(ag13_layout, ag13_code, rng)
    ok = f1 == f2 == 0 and c1 > 500 and c2 > 1000
    report(5, ok, f"structured = linear oracle on {c1} + {c2} admissible patterns, "
                  f"{f1 + f2} failures")


def test_criterion_06_beyond_distance(example1_layout):
    layout = example1_layout
    rng = random.Random(66)
    word = encode(layout, [rng.randrange(11) for _ in range(14)])
    count = 0
    for pat, ncoords, npoints in beyond_distance_patterns():
        admissible = pattern_admissible(layout, pat).admissible
        decoded = decode_structured(layout, mask(word, pat.coords(layout)), pat)
        if not (ncoords >= 5 and npoints <= 4 and admissible and decoded == word):
            report(6, False, f"pattern {pat} failed")
        count += 1
    report(6, count >= 10, f"{count} patterns with >= h+delta coordinates but "
                           f"<= h+delta-1 evaluation points, all recovered")


def test_criterion_07_example3_at_scale():
    t0 = time.monotonic()
    rep = fixtures.run_example3(sample_count=10**4, seed=20240)
    elapsed = time.monotonic() - t0
    sweeps = rep["sweeps"]
    ok = rep["pass"] and elapsed < 1800
    _shared["example3"] = rep
    report(7, ok, f"9x73 array over F_79: locality={rep['locality']}, sweeps "
                  f"{[s['recoverable'] for s in sweeps.values()]} of 10^4 each, "
                  f"{elapsed:.1f}s")


def test_criterion_08_designs():
    t0 = time.monotonic()
    cases = [
        (ag_steiner(3, 2), 12),
        (pg_steiner(2, 2), 7),
        (pg_steiner(8, 2), 73),
        (sg_steiner(2, 2), 10),
        (sg_steiner(3, 2), 30),
        (cyclotomic_packing([3, 5], 2), 30),
    ]
    ok = True
    for design, expect_blocks in cases:
        rep = verify_design(design)
        bound = johnson_bound(design.num_points, design.block_size, design.tau - 1)
        ok = ok and rep.exhaustive and rep.is_packing
        ok = ok and (rep.is_steiner == design.steiner)
        ok = ok and len(design.blocks) == expect_blocks <= bound
        ok = ok and rep.regularity == design.regularity
    elapsed = time.monotonic() - t0
    report(8, ok and elapsed < 60, f"6 designs verified exhaustively, {elapsed:.1f}s")


def test_criterion_09_goppa():
    t0 = time.monotonic()
    small = distance_report(fixtures.goppa_small_params(), t=1)
    opt = distance_report(fixtures.goppa_optimal_params(), t=1)
    elapsed = time.monotonic() - t0
    ok = (
        small["k_measured"] == small["k_formula"]
        and small["hypotheses"]["hold"]
        and small["bound_holds"]
        and opt["optimality"]["d_equals"]
        and opt["optimality"]["optimal"]
        and opt["tail_size"] > 0
        and elapsed < 300
    )
    report(9, ok, f"small instance k={small['k_measured']} d={small['distance_measured']}"
                  f">= {small['distance_bound']}; tail instance d="
                  f"{opt['distance_measured']} = h+delta, {elapsed:.1f}s")


def test_criterion_10_bounds():
    lb = length_bound(11, 2, 2, 3, 0)
    ok = lb["floor"] == 198 and 24 <= 198
    codes = [
        (24, 11, 2, 2, 3),
        (40, 13, 2, 2, 4),
        (657, 79, 7, 3, 6),
    ]
    for n, q, r, delta, h in codes:
        for a in range(h + 1):
            b = length_bound(q, r, delta, h, a)
            if not b["applicable"]:
                continue
            ok = ok and b["floor"] is not None and n <= b["floor"]
            if not b["exact"]:
                ok = ok and float(b["width_rel"]) < 1e-6
    frac = length_bound(11, 2, 2, 7, 0)
    ok = ok and frac["floor_certified"] and float(frac["width_rel"]) < 1e-6
    report(10, ok, f"floor(length bound)=198 at the [24,14] parameters; all three "
                   f"constructed codes within the bound for every applicable offset")


def test_criterion_11_determinism(ag13_layout, ag13_code):
    arr = basic_array(ag13_layout, ag13_code)
    kw = dict(y=1, gamma=2, mode="sampled", count=500, seed=77, columns="data", d=6)
    a = serial.dumps(check_array(arr, **kw))
    b = serial.dumps(check_array(arr, **kw))
    c = serial.dumps(check_array(arr, workers=2, **kw))
    rerun = serial.dumps(fixtures.run_example3(sample_count=300, seed=1))
    rerun2 = serial.dumps(fixtures.run_example3(sample_count=300, seed=1))
    par = serial.dumps(fixtures.run_example3(sample_count=300, seed=1, workers=2))
    ok = a == b == c and rerun == rerun2 == par
    report(11, ok, "sampled reports byte-identical across reruns and worker counts")
