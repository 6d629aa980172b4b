"""Workbench for optimal locally repairable codes with information
locality, their sector-disk style array arrangements, and the bounds they
are measured against.

The package is organized by subject:

- ``algebra``: exact finite fields, polynomials, matrices
- ``designs``: Steiner systems, cyclotomic packings, verification
- ``lrc``: the two-step polynomial construction and locality checks
- ``erasure``: erasure patterns, decoders, exact minimum distance
- ``gsd``: array arrangements and disk+sector erasure sweeps
- ``goppa``: the congruence-style construction and its Cauchy form
- ``bounds``: distance and length bounds, optimality classification
- ``fixtures``: published regression matrices and end-to-end runs
"""

from .algebra import (
    FiniteField,
    Matrix,
    Poly,
    dump_matrix,
    interpolate,
    lagrange_basis,
    load_matrix,
    poly_from_roots,
)
from .bounds import classify, length_bound, singleton_bound
from .designs import (
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
from .erasure import (
    ErasurePattern,
    decode_linear,
    decode_structured,
    min_distance,
    pattern_admissible,
    recoverable,
)
from .gsd import (
    ArrayLayout,
    basic_array,
    check_array,
    family_params,
    rearranged_array,
    truncated_array,
)
from .goppa import GoppaParams, build_code as goppa_code, distance_report, parity_check, splitting_parity_check
from .lrc import (
    EvaluationLayout,
    LinearCode,
    LrcParams,
    build_code,
    build_layout,
    encode,
    generator_matrix,
    parity_check_matrix,
    verify_locality,
)

__version__ = "0.1.0"
