"""Exact constructions, finders, and bound checks for discrete axis-parallel
square problems: sets rich in square vertices or square boundaries, the
counting bounds they satisfy, and finite dimension diagnostics for the
fractal limits they approximate."""

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
