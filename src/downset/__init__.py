"""Downward-closed sets of natural vectors, represented by antichains."""

from .core import (
    Antichain,
    DimensionMismatch,
    Stats,
    VectorSetFormatError,
    format_vector_set,
    intersect_list,
    leq,
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
    "DimensionMismatch",
    "Stats",
    "VectorSetFormatError",
    "choose_backend",
    "format_vector_set",
    "get_backend",
    "intersect_list",
    "leq",
    "load_vector_set",
    "meet",
    "member_list",
    "parse_vector_set",
    "save_vector_set",
    "union_list",
]

__version__ = "0.2.0"
