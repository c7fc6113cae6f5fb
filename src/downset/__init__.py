"""Downward-closed sets of natural vectors, represented by antichains."""

from .core import (
    Antichain,
    ComparisonOutcome,
    DimensionMismatch,
    Stats,
    VectorSetFormatError,
    compare_counted,
    format_vector_set,
    intersect_list,
    load_vector_set,
    meet,
    member_list,
    parse_vector_set,
    save_vector_set,
    union_list,
)
from .adaptive import BACKEND_NAMES, BackendChoice, choose_backend, get_backend

__all__ = [
    "Antichain",
    "BACKEND_NAMES",
    "BackendChoice",
    "ComparisonOutcome",
    "DimensionMismatch",
    "Stats",
    "VectorSetFormatError",
    "choose_backend",
    "compare_counted",
    "format_vector_set",
    "get_backend",
    "intersect_list",
    "load_vector_set",
    "meet",
    "member_list",
    "parse_vector_set",
    "save_vector_set",
    "union_list",
]

__version__ = "0.1.0"
