"""The benchmark's workloads: seeded inputs, timed operations and their
correctness oracles.

Every workload is a closed loop run by one caller.  It is a list of cases;
each case step performs one operation, times it, checks its output and
returns ``(durations, ok)``, where ``durations`` maps end-to-end metric
names to seconds.  The library is reached only through module attributes
(``lrc.encode``, ``erasure.min_distance``, ...), so a tracer that patches
those attributes sees every call the benchmark makes.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from typing import Callable

from lrckit import algebra, designs, erasure, fixtures, goppa, gsd, lrc, serial

clock = time.perf_counter

WORKLOADS = ("codec", "sweep", "distance")
CASE_METRICS = ("case1", "case2", "case3", "case4")

# check_array arguments of the sweep shapes (besides the array and seed)
PAPER_SHAPES = (
    dict(y=0, gamma=8, count=1000, d=9),
    dict(y=2, gamma=1, count=1000, d=9),
    dict(y=1, gamma=3, count=1000, d=9),
)
BEYOND_SHAPE = dict(y=8, gamma=0, count=100, d=9)
SMALL_SHAPE = dict(y=1, gamma=2, count=600, d=6, columns="data")
MAX_WITNESS = 10  # check_array's default witness cap
# seeded input variants the tiny searches cycle through: each variant has
# its own search cost, and a median over several is steady from seed to seed
TINY_VARIANTS = 4


@dataclass
class Case:
    label: str
    step: Callable[[int], tuple[dict[str, float], bool]]
    share: float  # share of the run's seconds
    min_samples: int = 1
    trace_samples: int = 1  # 0: uses worker processes, so it is not traced
    cycle: int = 1  # samples come in whole cycles of this many steps
    parallel: bool = False  # runs workers=2, so it is timed against the parallel calibration


@dataclass
class Check:
    """A correctness check made after the timed loop; counts as one
    attempted operation."""

    label: str
    run: Callable[[], bool]


@dataclass
class Fixtures:
    """Codes, matrices and arrays every workload is built on."""

    ag13: lrc.EvaluationLayout
    ag13_code: lrc.LinearCode
    f16: lrc.EvaluationLayout
    f16_code: lrc.LinearCode
    ex3: lrc.EvaluationLayout
    ex3_code: lrc.LinearCode
    ex1_check: algebra.Matrix
    ex2_check: algebra.Matrix
    ex3_array: gsd.ArrayLayout
    ag13_array: gsd.ArrayLayout


def ag_layout(fld: algebra.FiniteField, ell: int = 11) -> lrc.EvaluationLayout:
    """The AG(2,3) layout of the ag13 code (r=2, delta=2, v=2, h=4) over
    ``fld``, on the first ell+1 lines: [40, 24] for ell=11, [31, 18] for
    ell=8 and [22, 12] for ell=5, each with distance 6 over F_13 and F_16."""
    return lrc.build_layout(
        lrc.LrcParams(r=2, delta=2, ell=ell, v=2, h=4), fld, designs.ag_steiner(3, 2)
    )


def _no_mark() -> None:
    pass


def build_fixtures(mark: Callable[[], None] = _no_mark) -> Fixtures:
    """The fixtures; ``mark`` is called between the costlier steps (see
    setup)."""
    ag13 = fixtures.ag13_layout()
    ag13_code = lrc.build_code(ag13)
    mark()
    f16 = ag_layout(algebra.FiniteField(2, 4))
    f16_code = lrc.build_code(f16)
    mark()
    ex3 = fixtures.example3_layout()
    mark()
    ex3_code = lrc.build_code(ex3)
    mark()
    return Fixtures(
        ag13=ag13,
        ag13_code=ag13_code,
        f16=f16,
        f16_code=f16_code,
        ex3=ex3,
        ex3_code=ex3_code,
        ex1_check=fixtures.example1_check(),
        ex2_check=fixtures.example2_check(),
        ex3_array=gsd.truncated_array(ex3, ex3_code),
        ag13_array=gsd.basic_array(ag13, ag13_code),
    )


# ----------------------------------------------------------------------
# inputs


# (erasures per heavy set, erased global points), cycled through in order.
# Five shapes, so the median and the 90th percentile of a whole number of
# cycles fall inside the third and the fifth cheapest shape, not between two.
SMALL_CODE_SHAPES = (((), 2), ((2,), 2), ((3,), 1), ((2, 2), 1), ((2, 3), 0))
EX3_SHAPES = (((3, 3), 2),)


def sample_admissible(layout, rng: random.Random, sizes, n_globals) -> erasure.ErasurePattern:
    """An admissible pattern: ``len(sizes)`` heavy sets with the given
    numbers of erased points, plus ``n_globals`` erased global points."""
    p = layout.params
    budget = p.h + p.delta - 1
    while True:
        per_set = {}
        for b, size in zip(rng.sample(range(len(layout.sets)), len(sizes)), sizes):
            per_set[b] = rng.sample(layout.sets[b], size)
        union = set()
        for pts in per_set.values():
            union.update(pts)
        if len(union) + n_globals > budget:
            continue
        pat = erasure.ErasurePattern.make(layout, per_set, rng.sample(layout.s_points, n_globals))
        if erasure.pattern_admissible(layout, pat).admissible:
            return pat


def codec_inputs(layout, rng: random.Random, count: int, shapes):
    """``count`` (information vector, pattern) pairs, the pattern shapes
    taken from ``shapes`` in turn."""
    q, k = layout.field.q, layout.params.k
    return [
        ([rng.randrange(q) for _ in range(k)],
         sample_admissible(layout, rng, *shapes[i % len(shapes)]))
        for i in range(count)
    ]


def scale_columns(h: algebra.Matrix, rng: random.Random) -> algebra.Matrix:
    """H with every column scaled by a random nonzero scalar: a parity check
    of an equivalent code, with the same distance and the same set of
    dependent column subsets."""
    fld = h.field
    scalars = [rng.randrange(1, fld.q) for _ in range(h.ncols)]
    rows = [[fld.mul(v, s) for v, s in zip(row, scalars)] for row in h.rows]
    return algebra.Matrix(fld, rows, h.ncols)


def shuffle_goppa(params: goppa.GoppaParams, rng: random.Random) -> goppa.GoppaParams:
    """The same instance with the points of every set in a random order."""
    return goppa.GoppaParams(
        params.field,
        params.g1,
        params.g2,
        [tuple(rng.sample(s, len(s))) for s in params.local_sets],
        tuple(rng.sample(params.tail_set, len(params.tail_set))),
    )


def array_pattern(arr: gsd.ArrayLayout, rng: random.Random, y: int, gamma: int,
                  columns: str = "all", **_) -> tuple[int, ...]:
    """One disk+sector pattern drawn by the benchmark itself: y whole
    columns plus gamma cells outside them."""
    eligible = range(arr.data_cols if columns == "data" else arr.cols)
    chosen = set(rng.sample(eligible, y))
    coords = set()
    for j in chosen:
        coords.update(arr.column_coords(j))
    rest = [c for c in arr.real_cells() if c[1] not in chosen]
    coords.update(arr.coord_of(c) for c in rng.sample(rest, gamma))
    return tuple(sorted(coords))


# ----------------------------------------------------------------------
# oracles


def codeword_ok(code: lrc.LinearCode, layout, info, word) -> bool:
    """H.c = 0 and the information symbols sit at the information
    positions (so an all-zero encoder does not pass)."""
    pos = 0
    for b in range(len(layout.sets)):
        for u in range(layout.interp_count(b)):
            if word[layout.coord(b, u)] != info[pos]:
                return False
            pos += 1
    return len(word) == code.n and not any(code.check.mul_vec(word))


def witness_ok(h: algebra.Matrix, coords) -> bool:
    """An unrecoverable pattern is confirmed by a nonzero vector supported
    on its coordinates that H annihilates."""
    kernel = h.columns(coords).nullspace()
    if kernel.nrows == 0:
        return False
    x = [0] * h.ncols
    for c, v in zip(coords, kernel.rows[0]):
        x[c] = v
    return any(x) and not any(h.mul_vec(x))


def sweep_report_ok(report: dict, h: algebra.Matrix, count: int) -> bool:
    checked, passed = report["checked"], report["recoverable"]
    failures = report["failures"]
    return (
        checked == count
        and 0 <= passed <= checked
        and report["all_recoverable"] == (passed == checked)
        and len(failures) == min(MAX_WITNESS, checked - passed)
        and all(witness_ok(h, f) for f in failures)
    )


def verdict_ok(h: algebra.Matrix, coords) -> bool:
    """``recoverable`` agrees with a plain rank test."""
    return erasure.recoverable(h, coords) == (h.columns(coords).rank() == len(coords))


# ----------------------------------------------------------------------
# workloads


class Workload:
    def __init__(self, fx: Fixtures, seed: int):
        self.fx = fx
        self.seed = seed
        self.cases: list[Case] = []

    def warm_up(self, mark: Callable[[], None]) -> None:
        """One call of every serial operation, so caches fill before timing;
        ``mark`` is called between calls (see setup)."""

    def warm_pool(self) -> None:
        """One call of every operation that starts worker processes, made
        after the timed set-up: starting processes is operating-system work
        whose time varies from call to call far more than the library's."""

    def checks(self) -> list[Check]:
        return []


def _seeds(seed: int, salt: int) -> random.Random:
    return random.Random(seed * 1_000_003 + salt)


class Codec(Workload):
    """encode -> erase -> decode_structured and decode_linear round trips."""

    def __init__(self, fx, seed):
        super().__init__(fx, seed)
        rng = _seeds(seed, 1)
        self.small = codec_inputs(fx.ag13, rng, 240, SMALL_CODE_SHAPES)
        self.ext = codec_inputs(fx.f16, rng, 120, SMALL_CODE_SHAPES)
        self.large = codec_inputs(fx.ex3, rng, 6, EX3_SHAPES)
        self.cases = [
            Case("ag13 [40,24]/F_13 round trip", self._step_small, 0.2,
                 min_samples=100, trace_samples=40, cycle=len(SMALL_CODE_SHAPES)),
            Case("F_16 [40,24] round trip", self._step_ext, 0.1, trace_samples=20,
                 cycle=len(SMALL_CODE_SHAPES)),
            # the example3 round trip in two steps, so the machine speed is
            # calibrated between its encode and its decode
            Case("example3 [657,505]/F_79 round trip", self._step_large, 0.7,
                 trace_samples=2, cycle=2),
        ]
        self._large_word = None

    @staticmethod
    def decode_both(layout, code, word, pat) -> bool:
        """erase -> decode_structured and decode_linear; True when both
        return the word."""
        coords = pat.coords(layout)
        erased = set(coords)
        masked = [None if c in erased else x for c, x in enumerate(word)]
        filled = [0 if c in erased else x for c, x in enumerate(word)]
        structured = erasure.decode_structured(layout, masked, pat)
        linear = erasure.decode_linear(code, coords, filled)
        return structured == word and linear == word

    @classmethod
    def round_trip(cls, layout, code, info, pat) -> tuple[float, bool]:
        t0 = clock()
        word = lrc.encode(layout, info)
        ok = cls.decode_both(layout, code, word, pat)
        dt = clock() - t0
        return dt, ok and codeword_ok(code, layout, info, word)

    def _step_small(self, i):
        fx = self.fx
        dt, ok = self.round_trip(fx.ag13, fx.ag13_code, *self.small[i % len(self.small)])
        return {"case1": dt}, ok

    def _step_ext(self, i):
        fx = self.fx
        dt, ok = self.round_trip(fx.f16, fx.f16_code, *self.ext[i % len(self.ext)])
        return {"case2": dt}, ok

    def _step_large(self, i):
        fx = self.fx
        info, pat = self.large[i // 2 % len(self.large)]
        t0 = clock()
        if i % 2 == 0:
            self._large_word = lrc.encode(fx.ex3, info)
            dt = clock() - t0
            return {"case3": dt}, codeword_ok(fx.ex3_code, fx.ex3, info, self._large_word)
        ok = self.decode_both(fx.ex3, fx.ex3_code, self._large_word, pat)
        return {"case4": clock() - t0}, ok

    def warm_up(self, mark):
        fx = self.fx
        self.round_trip(fx.f16, fx.f16_code, *self.ext[-1])
        mark()
        info, pat = self.large[-1]
        word = lrc.encode(fx.ex3, info)
        mark()
        self.decode_both(fx.ex3, fx.ex3_code, word, pat)


class Sweep(Workload):
    """gsd.check_array in sampled mode on four shapes."""

    def __init__(self, fx, seed):
        super().__init__(fx, seed)
        self.base = seed * 10_007
        self.serial_dumps: dict[tuple[int, int], str] = {}
        self.cases = [
            Case("ag13 4x10 basic array, y=1 gamma=2 on data columns", self._step_small, 0.2,
                 min_samples=100, trace_samples=20),
            Case("example3 9x73 array, the three paper shapes", self._step_paper, 0.3),
            Case("example3 9x73 array, y=8 gamma=0 (beyond the guarantee)", self._step_beyond,
                 0.25, trace_samples=2),
            Case("the paper shapes with workers=2", self._step_w2, 0.25, trace_samples=0,
                 parallel=True),
        ]

    def _sweep(self, arr, shape, seed, workers=1):
        t0 = clock()
        report = gsd.check_array(arr, mode="sampled", seed=seed, workers=workers, **shape)
        dt = clock() - t0
        return report, dt, sweep_report_ok(report, arr.code.check, shape["count"])

    def _step_small(self, i):
        report, dt, ok = self._sweep(self.fx.ag13_array, SMALL_SHAPE, self.base + 3 * i)
        return {"case1": dt / SMALL_SHAPE["count"]}, ok

    def _paper_cycle(self, i, workers):
        total, ok, patterns = 0.0, True, 0
        for s, shape in enumerate(PAPER_SHAPES):
            seed = self.base + 7 * i + s
            report, dt, good = self._sweep(self.fx.ex3_array, shape, seed, workers)
            total += dt
            patterns += shape["count"]
            dumped = serial.dumps(report)
            if workers == 1:
                self.serial_dumps[(i, s)] = dumped
                good = good and report["all_recoverable"]
            else:
                good = good and dumped == self._serial_dump(i, s)
            ok = ok and good
        return total / patterns, ok

    def _serial_dump(self, i, s):
        if (i, s) not in self.serial_dumps:
            report = gsd.check_array(self.fx.ex3_array, mode="sampled",
                                     seed=self.base + 7 * i + s, **PAPER_SHAPES[s])
            self.serial_dumps[(i, s)] = serial.dumps(report)
        return self.serial_dumps[(i, s)]

    def _step_paper(self, i):
        per_pattern, ok = self._paper_cycle(i, workers=1)
        return {"case2": per_pattern}, ok

    def _step_w2(self, i):
        per_pattern, ok = self._paper_cycle(i, workers=2)
        return {"case4": per_pattern}, ok

    def _step_beyond(self, i):
        report, dt, ok = self._sweep(self.fx.ex3_array, BEYOND_SHAPE, self.base + 5 * i + 1)
        # about 10% of these patterns are unrecoverable, so 100 of them with
        # a single outcome mean a miscounted sweep
        mixed = 0 < report["recoverable"] < report["checked"]
        return {"case3": dt / BEYOND_SHAPE["count"]}, ok and mixed

    def warm_up(self, mark):
        for shape in PAPER_SHAPES + (BEYOND_SHAPE,):
            gsd.check_array(self.fx.ex3_array, mode="sampled", seed=self.base - 1,
                            **dict(shape, count=10))
            mark()

    def warm_pool(self):
        gsd.check_array(self.fx.ex3_array, mode="sampled", seed=self.base - 1, workers=2,
                        **dict(PAPER_SHAPES[0], count=10))

    def checks(self):
        rng = _seeds(self.seed, 2)
        fx = self.fx
        out = []
        for arr, shape in ([(fx.ag13_array, SMALL_SHAPE), (fx.ex3_array, BEYOND_SHAPE)]
                           + [(fx.ex3_array, s) for s in PAPER_SHAPES]):
            for _ in range(20):
                coords = array_pattern(arr, rng, **shape)
                out.append(Check(f"recoverable verdict y={shape['y']} gamma={shape['gamma']}",
                                 lambda h=arr.code.check, c=coords: verdict_ok(h, c)))
        return out


class Distance(Workload):
    """Exact minimum distance: full searches and many tiny ones."""

    def __init__(self, fx, seed):
        super().__init__(fx, seed)
        rng = _seeds(seed, 3)
        self.tiny = [self._tiny_searches(rng) for _ in range(TINY_VARIANTS)]
        # Shortened layouts keep each full search near half a second, so a
        # run holds a dozen or more samples of each.  Their columns are not
        # scaled: scaling changes how many pivots the search must normalise,
        # which moved its cost by up to a fifth from seed to seed.
        self.prime_h = lrc.build_code(ag_layout(fx.ag13.field, ell=8)).check
        self.ext_h = lrc.build_code(ag_layout(fx.f16.field, ell=5)).check
        self.cases = [
            Case("tiny searches: locality of three codes, two published matrices, "
                 "two Goppa instances", self._step_tiny, 0.2, min_samples=100),
            Case("[22,12]/F_16 distance (generic field)", self._step_ext, 0.27),
            Case("[31,18]/F_13 distance (prime field)", self._step_prime, 0.27),
            Case("[31,18]/F_13 distance with workers=2", self._step_w2, 0.26, trace_samples=0,
                 parallel=True),
        ]

    def _tiny_searches(self, rng):
        """The seven tiny searches on one seeded variant of their inputs:
        column scalings of the matrices and point orders of the Goppa
        instances."""
        fx = self.fx

        def scaled(code):
            return dataclasses.replace(code, check=scale_columns(code.check, rng))

        codes = [scaled(fx.ex3_code), scaled(fx.ag13_code), scaled(fx.f16_code)]
        ex1, ex2 = scale_columns(fx.ex1_check, rng), scale_columns(fx.ex2_check, rng)
        small = shuffle_goppa(fixtures.goppa_small_params(), rng)
        tail = shuffle_goppa(fixtures.goppa_optimal_params(), rng)
        return [(lambda c=c: lrc.verify_locality(c).ok) for c in codes] + [
            lambda: erasure.min_distance(ex1) == 5,
            lambda: erasure.min_distance(ex2) == 5,
            lambda: self._goppa_small_ok(goppa.distance_report(small, t=1)),
            lambda: self._goppa_tail_ok(goppa.distance_report(tail, t=1)),
        ]

    @staticmethod
    def _goppa_small_ok(rep):
        return rep["k_measured"] == rep["k_formula"] and rep["hypotheses"]["hold"] and bool(
            rep["bound_holds"])

    @staticmethod
    def _goppa_tail_ok(rep):
        opt = rep.get("optimality", {})
        return rep["tail_size"] > 0 and bool(opt.get("d_equals")) and bool(opt.get("optimal"))

    def _step_tiny(self, i):
        """All seven tiny searches of one variant; returns their mean time."""
        searches = self.tiny[i % len(self.tiny)]
        t0 = clock()
        ok = all([search() for search in searches])
        return {"case1": (clock() - t0) / len(searches)}, ok

    def _step_ext(self, i):
        t0 = clock()
        d = erasure.min_distance(self.ext_h)
        return {"case2": clock() - t0}, d == 6

    def _step_prime(self, i):
        t0 = clock()
        d = erasure.min_distance(self.prime_h)
        return {"case3": clock() - t0}, d == 6

    def _step_w2(self, i):
        t0 = clock()
        d = erasure.min_distance(self.prime_h, workers=2)
        # the serial search on the same matrix gives 6 (case 3's oracle)
        return {"case4": clock() - t0}, d == 6

    def warm_up(self, mark):
        for searches in self.tiny:
            for search in searches:
                search()
            mark()

    def warm_pool(self):
        erasure.min_distance(self.fx.ex1_check, workers=2)


def setup(name: str, seed: int, mark: Callable[[], None] = _no_mark) -> Workload:
    """Everything a run needs before its first timed operation: fixtures,
    seeded inputs, and one warm-up call of every traced layer (an ag13
    round trip, a small sweep, a published-matrix search, two locality
    checks and a Goppa report) plus the workload's own operations.

    ``mark`` is called between the costlier steps, at most a second or so
    apart, so that the caller timing set-up can calibrate the machine speed
    there."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    fx = build_fixtures(mark)
    rng = _seeds(seed, 0)
    Codec.round_trip(fx.ag13, fx.ag13_code,
                     *codec_inputs(fx.ag13, rng, 1, SMALL_CODE_SHAPES[-1:])[0])
    gsd.check_array(fx.ag13_array, mode="sampled", seed=seed, **dict(SMALL_SHAPE, count=10))
    erasure.min_distance(fx.ex1_check)
    lrc.verify_locality(fx.ag13_code)
    goppa.distance_report(fixtures.goppa_small_params(), t=1)
    mark()
    workload = {"codec": Codec, "sweep": Sweep, "distance": Distance}[name](fx, seed)
    mark()
    workload.warm_up(mark)
    return workload
