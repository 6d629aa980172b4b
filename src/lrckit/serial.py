"""JSON (de)serialization for layouts, erasure patterns, and arrays.

Matrix and design files have their own plain-text formats (see
``algebra.dump_matrix`` and ``designs.dump_design``); everything else is
JSON with sorted keys so reports and artifacts are byte-reproducible.
"""

from __future__ import annotations

import json

from .algebra import FiniteField
from .erasure import ErasurePattern
from .errors import InvalidParameter
from .gsd import ArrayLayout
from .lrc import EvaluationLayout, LrcParams


def field_to_dict(fld: FiniteField) -> dict:
    out = {"p": fld.p, "m": fld.m}
    if fld.m > 1:
        out["modulus"] = list(fld.modulus)
    return out


def field_from_dict(d: dict) -> FiniteField:
    return FiniteField(d["p"], d.get("m", 1), d.get("modulus"))


def layout_to_dict(layout: EvaluationLayout) -> dict:
    p = layout.params
    return {
        "field": field_to_dict(layout.field),
        "params": {"r": p.r, "delta": p.delta, "ell": p.ell, "v": p.v, "h": p.h},
        "sets": [list(a) for a in layout.sets],
        "s_points": list(layout.s_points),
        "truncated_tail": list(layout.truncated_tail),
    }


def layout_from_dict(d: dict) -> EvaluationLayout:
    try:
        params = LrcParams(**d["params"])
        fld = field_from_dict(d["field"])
        sets = [tuple(a) for a in d["sets"]]
        s_points = tuple(d["s_points"])
        tail = tuple(d.get("truncated_tail", ()))
    except (KeyError, TypeError, AttributeError) as exc:
        raise InvalidParameter(f"malformed layout: {exc!r}") from None
    return EvaluationLayout(fld, params, sets, s_points, truncated_tail=tail)


def pattern_from_dict(layout: EvaluationLayout, d: dict) -> ErasurePattern:
    try:
        return ErasurePattern.make(layout, d.get("sets", []), d.get("globals", []))
    except (TypeError, AttributeError) as exc:
        raise InvalidParameter(f"malformed pattern: {exc!r}") from None


def array_to_dict(arr: ArrayLayout) -> dict:
    return {
        "construction": arr.construction,
        "rows": arr.rows,
        "cols": arr.cols,
        "data_cols": arr.data_cols,
        "column_points": arr.column_points,
        "cells": arr.cells,
        "zero_fill": [
            [i, j]
            for j in range(arr.cols)
            for i in range(arr.rows)
            if arr.cells[i][j] is None
        ],
    }


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
