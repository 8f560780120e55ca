"""Small shared utilities: argument validation, plain-text tables, and
the crash-safe JSONL append log (:mod:`repro.util.jsonl`)."""

from repro.util.validation import (
    require_positive,
    require_nonnegative,
    require_int,
    require_in_range,
    require_matrix,
)
from repro.util.tables import format_table

__all__ = [
    "require_positive",
    "require_nonnegative",
    "require_int",
    "require_in_range",
    "require_matrix",
    "format_table",
]
