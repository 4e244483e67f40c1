"""Exact constructions, finders, and bound checks for discrete axis-parallel
square problems: sets rich in square vertices or square boundaries, the
counting bounds they satisfy, and finite dimension diagnostics for the
fractal limits they approximate."""

import os

# OpenBLAS starts its worker pool when numpy loads, and each idle worker
# busy-waits for up to 2**28 cycles before it sleeps: ~50 ms of CPU per
# process that makes no BLAS call at all, and every CLI run is a fresh
# process.  A timeout of 4 (2**4 cycles) puts idle workers to sleep at once
# and keeps the pool for the one BLAS kernel, the strip products of
# finders._join_dense.  It must be set before numpy is first imported; a
# value already set wins, and numpy builds without OpenBLAS ignore it.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .core_sets import (
    BudgetError,
    DoubledPoint,
    FormatError,
    IntSet1D,
    ModeError,
    OccupancyGrid,
    ParameterError,
    PointSet2D,
    RangeError,
    SquareLabError,
    format_intset_text,
    format_pointset_text,
    make_intset,
    parse_intset_text,
    parse_pointset_text,
)
from .constructions import (
    CantorTruncation,
    CountableBlock,
    CountableTruncation,
    default_a_sequence,
    gen_AN,
    gen_boundary_example,
    gen_cantor_truncation,
    gen_countable_truncation,
    gen_Dk,
    gen_vertex_example,
    splice_En,
    witness_radii,
    witness_radii_AN,
)
from .finders import (
    CenterRows,
    CenterWitness,
    find_boundary_centers_2d,
    find_centers_1d,
    find_vertex_centers_2d,
)
from .dimension_lab import (
    RatioPoint,
    SlopeStep,
    covering_count_1d,
    dyadic_box_count_2d,
    exponent_finite_diff,
    falconer_ratios,
    snap_to_grid,
)
from .bounds_report import (
    BoundCheck,
    ExponentReport,
    build_report,
    check_main_lemma_1d,
    check_main_lemma_2d,
    family_scan,
    verify_construction,
)

__version__ = "0.1.0"
