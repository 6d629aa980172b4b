"""Command-line entry point.

All reports are JSON with sorted keys, so identical configurations (and
seeds) produce byte-identical output regardless of the worker count.  Exit
status: 0 when every assertion in the run passes, 1 when a verification
fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fixtures, serial
from .algebra import FiniteField, Poly, dump_matrix, load_matrix
from .bounds import classify, length_bound, singleton_bound
from .designs import (
    ag_steiner,
    cyclotomic_packing,
    dump_design,
    johnson_bound,
    load_design,
    pg_steiner,
    sg_steiner,
    verify_design,
)
from .erasure import (
    decode_linear,
    decode_structured,
    min_distance,
    pattern_admissible,
)
from .errors import LrckitError, InvalidParameter
from .goppa import GoppaParams, build_code as goppa_build, distance_report, parity_check
from .gsd import (
    basic_array,
    check_array,
    family_params,
    rearranged_array,
    truncated_array,
)
from .lrc import LrcParams, build_code, build_layout, parity_check_matrix, verify_locality


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_json(path: str):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise InvalidParameter(f"{path}: not valid JSON ({exc})") from None


def _load_layout(path: str):
    return serial.layout_from_dict(_load_json(path))


def _emit(args, obj) -> None:
    _write(getattr(args, "out", None), serial.dumps(obj))


def _ints(csv: str) -> list[int]:
    try:
        return [int(tok) for tok in csv.replace(",", " ").split()]
    except ValueError:
        raise InvalidParameter(f"expected integers, got {csv!r}") from None


def _require(args, names, what: str) -> None:
    """Raise InvalidParameter naming the options in ``names`` left unset."""
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise InvalidParameter(f"{what} needs {', '.join(missing)}")


def _build_design(args):
    fam = args.family
    _require(args, ("prime_powers", "e") if fam == "cyclotomic" else ("q1", "beta"),
             f"--family {fam}")
    if fam == "ag":
        return ag_steiner(args.q1, args.beta)
    if fam == "pg":
        return pg_steiner(args.q1, args.beta)
    if fam == "sg":
        return sg_steiner(args.q1, args.beta)
    if fam == "cyclotomic":
        return cyclotomic_packing(_ints(args.prime_powers), args.e)
    raise InvalidParameter(f"unknown design family {fam!r}")


# ----------------------------------------------------------------------
# subcommand handlers (each returns the process exit code)


def cmd_designs_gen(args) -> int:
    d = _build_design(args)
    _write(args.out, dump_design(d))
    return 0


def cmd_designs_verify(args) -> int:
    d = load_design(_read(args.infile))
    rep = verify_design(d, seed=args.seed or 0)
    bound = johnson_bound(d.num_points, d.block_size, d.tau - 1)
    out = {
        "points": d.num_points,
        "blocks": len(d.blocks),
        "is_packing": rep.is_packing,
        "is_steiner": rep.is_steiner,
        "regularity": rep.regularity,
        "exhaustive": rep.exhaustive,
        "johnson_bound": bound,
        "within_johnson": len(d.blocks) <= bound,
    }
    if rep.seed is not None:
        out["seed"] = rep.seed
    _emit(args, out)
    return 0 if rep.is_packing and out["within_johnson"] else 1


def _layout_from_args(args):
    if args.layout:
        return _load_layout(args.layout)
    _require(args, ("p", "r", "delta", "ell", "v", "h"), "a layout without --layout")
    if not (args.design_file or args.family):
        raise InvalidParameter("a layout without --layout needs --family or --design-file")
    params = LrcParams(r=args.r, delta=args.delta, ell=args.ell, v=args.v, h=args.h)
    fld = FiniteField(args.p, args.m)
    if args.design_file:
        design = load_design(_read(args.design_file))
    else:
        design = _build_design(args)
    s_points = tuple(_ints(args.s_points)) if args.s_points else None
    return build_layout(params, fld, design, s_points)


def cmd_lrc_construct(args) -> int:
    layout = _layout_from_args(args)
    _emit(args, serial.layout_to_dict(layout))
    if args.check_out:
        _write(args.check_out, dump_matrix(parity_check_matrix(layout)))
    return 0


def cmd_lrc_verify(args) -> int:
    layout = _layout_from_args(args)
    code = build_code(layout)
    rep = verify_locality(code)
    d_singleton = singleton_bound(layout.n, code.k, layout.params.r, layout.params.delta)
    out = {
        "n": layout.n,
        "k": code.k,
        "locality_ok": rep.ok,
        "punctured_distances": rep.punctured_distances,
        "info_rank": rep.info_rank,
        "singleton": d_singleton,
    }
    if args.distance:
        d = min_distance(code.check)
        out["distance"] = d
        out["optimal"] = d == d_singleton
    _emit(args, out)
    return 0 if rep.ok else 1


def cmd_erasure_check(args) -> int:
    layout = _load_layout(args.layout)
    pat = serial.pattern_from_dict(layout, _load_json(args.pattern))
    rep = pattern_admissible(layout, pat)
    _emit(
        args,
        {
            "admissible": rep.admissible,
            "heavy_sets": rep.heavy_sets,
            "union_size": rep.union_size,
            "budget": rep.budget,
            "coordinates": list(pat.coords(layout)),
        },
    )
    return 0


def cmd_erasure_decode(args) -> int:
    layout = _load_layout(args.layout)
    pat = serial.pattern_from_dict(layout, _load_json(args.pattern))
    word = _ints(args.word)
    if len(word) != layout.n:
        raise InvalidParameter(f"word must have length {layout.n}")
    q = layout.field.q
    if not all(0 <= x < q for x in word):
        raise InvalidParameter(f"word symbols must lie in [0, {q})")
    coords = set(pat.coords(layout))
    masked = [None if c in coords else word[c] for c in range(layout.n)]
    structured = decode_structured(layout, masked, pat)
    code = build_code(layout)
    linear = decode_linear(code, coords, masked)
    out = {
        "erased": sorted(coords),
        "structured": structured,
        "linear": linear,
        "agree": structured == linear,
        "matches_input": structured == word,
    }
    _emit(args, out)
    return 0 if out["agree"] and out["matches_input"] else 1


def cmd_erasure_distance(args) -> int:
    mat = load_matrix(_read(args.check))
    d = min_distance(mat, d_max=args.d_max)
    _emit(args, {"rows": mat.nrows, "cols": mat.ncols, "distance": d})
    return 0


def _build_array(args):
    layout = _load_layout(args.layout)
    build = {"basic": basic_array, "rearranged": rearranged_array, "truncated": truncated_array}
    return build[args.construction](layout, build_code(layout))


def cmd_gsd_build(args) -> int:
    _emit(args, serial.array_to_dict(_build_array(args)))
    return 0


def cmd_gsd_check(args) -> int:
    arr = _build_array(args)
    rep = check_array(
        arr,
        y=args.y,
        gamma=args.gamma,
        mode=args.mode,
        columns=args.columns,
        count=args.count,
        seed=args.seed,
        workers=args.workers,
        exhaustive_limit=args.exhaustive_limit,
        d=args.d,
    )
    _emit(args, rep)
    return 0 if rep["all_recoverable"] else 1


def cmd_gsd_params(args) -> int:
    kw = {"delta": args.delta, "v": args.v}
    _require(args, ("prime_powers", "e") if args.family == "regularpacking" else ("q1", "beta"),
             f"--family {args.family}")
    if args.family == "regularpacking":
        kw.update(prime_powers=_ints(args.prime_powers), e=args.e)
    else:
        kw.update(q1=args.q1, beta=args.beta)
    _emit(args, family_params(args.family, **kw))
    return 0


def _goppa_from_args(args) -> GoppaParams:
    _require(args, ("p",), "goppa")
    fld = FiniteField(args.p, args.m)
    g1 = Poly(fld, _ints(args.g1))
    g2 = Poly(fld, _ints(args.g2)) if args.g2 else Poly(fld, [1])
    local = [tuple(_ints(chunk)) for chunk in args.sets.split(";") if chunk.strip()]
    tail = tuple(_ints(args.tail)) if args.tail else ()
    return GoppaParams(fld, g1, g2, local, tail)


def cmd_goppa_build(args) -> int:
    params = _goppa_from_args(args)
    mat = parity_check(params)
    if args.check_out:
        _write(args.check_out, dump_matrix(mat))
    code = goppa_build(params)
    rep = verify_locality(code)
    _emit(
        args,
        {
            "n": params.n,
            "k": code.k,
            "k_formula": params.n - params.ell * (params.delta - 1) - params.h,
            "locality_ok": rep.ok,
            "punctured_distances": rep.punctured_distances,
        },
    )
    return 0 if rep.ok else 1


def cmd_goppa_check(args) -> int:
    params = _goppa_from_args(args)
    rep = distance_report(params, t=args.t)
    _emit(args, rep)
    ok = rep["hypotheses"]["hold"] and rep["bound_holds"]
    if "optimality" in rep:
        ok = ok and rep["optimality"]["optimal"]
    return 0 if ok else 1


def cmd_bounds_singleton(args) -> int:
    _emit(args, {"singleton": singleton_bound(args.n, args.k, args.r, args.delta)})
    return 0


def cmd_bounds_length(args) -> int:
    _emit(args, length_bound(args.q, args.r, args.delta, args.h, args.a))
    return 0


def cmd_bounds_classify(args) -> int:
    rep = classify(args.n, args.k, args.d, args.r, args.delta, args.q, h=args.h)
    _emit(args, rep)
    ok = rep["optimal"] and rep["length_bound"].get("length_ok", True)
    return 0 if ok else 1


def cmd_fixtures_run(args) -> int:
    runners = {
        "example1": fixtures.run_example1,
        "example2": fixtures.run_example2,
        "example3": lambda: fixtures.run_example3(
            sample_count=args.count, seed=args.seed, workers=args.workers
        ),
        "all": lambda: fixtures.run_all(
            workers=args.workers, sample_count=args.count, seed=args.seed
        ),
    }
    rep = runners[args.fixture]()
    _emit(args, rep)
    return 0 if rep["pass"] else 1


# ----------------------------------------------------------------------
# argument wiring


def _add_field_args(p):
    p.add_argument("--p", type=int, default=None, help="field characteristic")
    p.add_argument("--m", type=int, default=1, help="extension degree")


def _add_design_args(p, required=False):
    p.add_argument("--family", choices=["ag", "pg", "sg", "cyclotomic"], required=required)
    p.add_argument("--q1", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--prime-powers", dest="prime_powers")
    p.add_argument("--e", type=int)


def _add_layout_args(p):
    p.add_argument("--layout", help="layout JSON file ('-' for stdin)")
    _add_field_args(p)
    for name in ("r", "delta", "ell", "v", "h"):
        p.add_argument(f"--{name}", type=int)
    _add_design_args(p)
    p.add_argument("--design-file", dest="design_file")
    p.add_argument("--s-points", dest="s_points", help="explicit global points (csv)")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lrckit", description=__doc__)
    ap.add_argument(
        "--workers",
        type=_positive_int,
        # a string default goes through the type check too, so a bad
        # LRCKIT_WORKERS is a usage error like a bad --workers
        default=os.environ.get("LRCKIT_WORKERS", "1"),
        help="worker processes for the sweeps of gsd check and fixtures run "
        "(default LRCKIT_WORKERS or 1); must be >= 1.  Accepted for callers that pass it: "
        "every sweep runs in one process",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    designs = sub.add_parser("designs").add_subparsers(dest="sub", required=True)
    g = designs.add_parser("gen")
    _add_design_args(g, required=True)
    g.add_argument("--out", default="-")
    g.set_defaults(func=cmd_designs_gen)
    v = designs.add_parser("verify")
    v.add_argument("--in", dest="infile", default="-")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default="-")
    v.set_defaults(func=cmd_designs_verify)

    lrc = sub.add_parser("lrc").add_subparsers(dest="sub", required=True)
    c = lrc.add_parser("construct")
    _add_layout_args(c)
    c.add_argument("--out", default="-")
    c.add_argument("--check-out", dest="check_out")
    c.set_defaults(func=cmd_lrc_construct)
    v = lrc.add_parser("verify")
    _add_layout_args(v)
    v.add_argument("--distance", action="store_true")
    v.add_argument("--out", default="-")
    v.set_defaults(func=cmd_lrc_verify)

    era = sub.add_parser("erasure").add_subparsers(dest="sub", required=True)
    c = era.add_parser("check")
    c.add_argument("--layout", required=True)
    c.add_argument("--pattern", required=True)
    c.add_argument("--out", default="-")
    c.set_defaults(func=cmd_erasure_check)
    d = era.add_parser("decode")
    d.add_argument("--layout", required=True)
    d.add_argument("--pattern", required=True)
    d.add_argument("--word", required=True, help="full codeword (csv)")
    d.add_argument("--out", default="-")
    d.set_defaults(func=cmd_erasure_decode)
    t = era.add_parser("distance")
    t.add_argument("--check", required=True, help="parity-check matrix file")
    t.add_argument("--d-max", dest="d_max", type=int)
    t.add_argument("--out", default="-")
    t.set_defaults(func=cmd_erasure_distance)

    gsd = sub.add_parser("gsd").add_subparsers(dest="sub", required=True)
    b = gsd.add_parser("build")
    b.add_argument("--layout", required=True)
    b.add_argument("--construction", choices=["basic", "rearranged", "truncated"], required=True)
    b.add_argument("--out", default="-")
    b.set_defaults(func=cmd_gsd_build)
    c = gsd.add_parser("check")
    c.add_argument("--layout", required=True)
    c.add_argument("--construction", choices=["basic", "rearranged", "truncated"], required=True)
    c.add_argument("--y", type=int, required=True)
    c.add_argument("--gamma", type=int, required=True)
    c.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    c.add_argument("--columns", choices=["all", "data"], default="all")
    c.add_argument("--count", type=_positive_int, default=10**4)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--exhaustive-limit", dest="exhaustive_limit", type=_positive_int,
                   default=10**6)
    c.add_argument("--d", type=int)
    c.add_argument("--out", default="-")
    c.set_defaults(func=cmd_gsd_check)
    p = gsd.add_parser("params")
    p.add_argument("--family", choices=["ag", "pg", "sg", "regularpacking"], required=True)
    p.add_argument("--q1", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--prime-powers", dest="prime_powers")
    p.add_argument("--e", type=int)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_gsd_params)

    gop = sub.add_parser("goppa").add_subparsers(dest="sub", required=True)
    for name, fn in (("build", cmd_goppa_build), ("check", cmd_goppa_check)):
        g = gop.add_parser(name)
        _add_field_args(g)
        g.add_argument("--g1", required=True, help="local modulus coefficients (csv, low first)")
        g.add_argument("--g2", help="global modulus coefficients (csv, low first)")
        g.add_argument("--sets", required=True, help="local sets, ';'-separated csv lists")
        g.add_argument("--tail", help="tail evaluation points (csv)")
        if name == "build":
            g.add_argument("--check-out", dest="check_out")
        else:
            g.add_argument("--t", type=int, required=True)
        g.add_argument("--out", default="-")
        g.set_defaults(func=fn)

    bnd = sub.add_parser("bounds").add_subparsers(dest="sub", required=True)
    s = bnd.add_parser("singleton")
    for name in ("n", "k", "r", "delta"):
        s.add_argument(f"--{name}", type=int, required=True)
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_bounds_singleton)
    l = bnd.add_parser("length")
    for name in ("q", "r", "delta", "h", "a"):
        l.add_argument(f"--{name}", type=int, required=True)
    l.add_argument("--out", default="-")
    l.set_defaults(func=cmd_bounds_length)
    c = bnd.add_parser("classify")
    for name in ("n", "k", "d", "r", "delta", "q"):
        c.add_argument(f"--{name}", type=int, required=True)
    c.add_argument("--h", type=int)
    c.add_argument("--out", default="-")
    c.set_defaults(func=cmd_bounds_classify)

    fix = sub.add_parser("fixtures").add_subparsers(dest="sub", required=True)
    r = fix.add_parser("run")
    r.add_argument("fixture", choices=["example1", "example2", "example3", "all"])
    r.add_argument("--count", type=_positive_int, default=10**4)
    r.add_argument("--seed", type=int, default=20240)
    r.add_argument("--out", default="-")
    r.set_defaults(func=cmd_fixtures_run)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameter, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LrckitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
