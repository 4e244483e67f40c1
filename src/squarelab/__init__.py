"""Exact constructions, finders, and bound checks for discrete axis-parallel
square problems: sets rich in square vertices or square boundaries, the
counting bounds they satisfy, and finite dimension diagnostics for the
fractal limits they approximate."""

import importlib as _importlib
import os as _os

# OpenBLAS starts its worker pool when numpy loads, and each idle worker
# busy-waits for up to 2**28 cycles before it sleeps: ~50 ms of CPU per
# process that makes no BLAS call at all, and every CLI run is a fresh
# process.  A timeout of 4 (2**4 cycles) puts idle workers to sleep at once
# and keeps the pool for the one BLAS kernel, the strip products of
# finders._join_dense.  It must be set before numpy is first imported, so
# before any squarelab module loads; a value already set wins, and numpy
# builds without OpenBLAS ignore it.
_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

# The CLI parser's choices, here so that parsing loads no numpy: each verify
# target's parameters, the size-law families, and `verify an`'s sampling seed.
_VERIFY_PARAMS = {"dk": ("k",), "an": ("p",), "boundary": ("k",), "countable": ("alpha", "K")}
_FAMILIES = ("dk_vertex", "dk_boundary", "dk_size", "an_cover")
DEFAULT_SEED = 20260816


def _main_lemma(centers: int, m: int) -> tuple[int, int]:
    """The exact integer sides of |S|**3 <= 16 * m**4: m = |B| for the square
    vertices in B, |A|**2 for the common-radius centers of A."""
    return centers**3, 16 * m**4


# name -> the module that defines it.  Each module loads when one of its
# names is first looked up (PEP 562), so `import squarelab` loads no numpy
# and no submodule.
_LAZY = {name: module for module, names in {
    "core_sets": (
        "BudgetError", "DoubledPoint", "FormatError", "IntSet1D", "ModeError", "OccupancyGrid",
        "ParameterError", "PointSet2D", "RangeError", "SquareLabError", "format_intset_text",
        "format_pointset_text", "make_intset", "parse_intset_text", "parse_pointset_text"),
    "constructions": (
        "CantorTruncation", "CountableBlock", "CountableTruncation", "default_a_sequence",
        "gen_AN", "gen_boundary_example", "gen_cantor_truncation",
        "gen_countable_truncation", "gen_Dk", "gen_vertex_example", "splice_En",
        "witness_radii", "witness_radii_AN"),
    "finders": ("CenterRows", "CenterWitness", "find_boundary_centers_2d",
                "find_centers_1d", "find_vertex_centers_2d"),
    "dimension_lab": ("RatioPoint", "SlopeStep", "covering_count_1d", "dyadic_box_count_2d",
                      "exponent_finite_diff", "falconer_ratios", "snap_to_grid"),
    "bounds_report": ("BoundCheck", "ExponentReport", "build_report", "check_main_lemma_1d",
                      "check_main_lemma_2d", "family_scan", "verify_construction"),
}.items() for name in names}

__all__ = [*_LAZY]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
