"""Finite enriched-category engine.

Everything is an explicit finite table: categories, monoidal structure,
module actions, enriched categories. Every axiom is checked by exhausting
its instances, and every universal property is decided by exhaustive
search under an explicit budget. All such searches run on one backtracking
search, ``ecat.core._search``, which prunes a partial assignment as soon as
a constraint on it fails and spends one budget unit per node. Every public
search takes ``cap``: None for the ``ECAT_BUDGET`` default, an int for a
fresh budget of that many units, or a ``report.Budget`` to share, so that
one cap bounds a whole run.
"""

from ecat.report import BudgetExceeded, StructureError, ValidationReport, Violation

__all__ = [
    "BudgetExceeded",
    "StructureError",
    "ValidationReport",
    "Violation",
]
