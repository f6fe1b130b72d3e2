"""Validation reports and search budgets."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

DEFAULT_BUDGET = 10**6
BUDGET_ENV_VAR = "ECAT_BUDGET"


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


class BudgetExceeded(RuntimeError):
    """A search would spend more units than its budget's cap.

    A unit is one search node: one value tried for one variable of
    ``core._search``, or one candidate of a single-pool filter. Raised
    loudly instead of truncating, so completeness claims are never silently
    violated.
    """

    def __init__(self, what: str, bound: int):
        super().__init__(f"budget exceeded during {what} (cap {bound})")
        self.what = what
        self.bound = bound


class StructureError(ValueError):
    """Tables are not even index-consistent (out-of-range index, bad shape)."""


class Budget:
    """A mutable spend counter shared by nested searches.

    One unit is one search node: one value tried for one variable of
    ``core._search``, whether or not a constraint then rejects it, or one
    candidate tried by a single-pool filter: the internal-hom scan of
    ``actions.internal_hom``, the center-morphism scan of
    ``monoidal.drinfeld_center_z1`` and the terminal-family scan, the
    morphism scan of ``centers._terminal_bracket``. Nothing else spends.
    Searches that share one budget share its cap.

    Every public search takes ``cap``: None for the ``ECAT_BUDGET``
    default, an int for a fresh budget of that many units, or a Budget to
    spend from, so that one cap bounds a whole run (``Budget.of``).
    """

    __slots__ = ("cap", "used", "what")

    def __init__(self, cap: int | None = None, what: str = "search"):
        self.cap = default_budget() if cap is None else cap
        self.used = 0
        self.what = what

    @staticmethod
    def of(cap: int | Budget | None, what: str) -> Budget:
        """cap itself when it is a Budget, else a new Budget of cap units
        spent during what."""
        return cap if isinstance(cap, Budget) else Budget(cap, what)

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.cap:
            raise BudgetExceeded(self.what, self.cap)


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance: the law name plus the offending indices."""

    law: str
    instance: tuple
    detail: str = ""

    def render(self) -> str:
        msg = f"{self.law} at {self.instance}"
        return f"{msg}: {self.detail}" if self.detail else msg


@dataclass
class ValidationReport:
    subject: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, law: str, instance: tuple, detail: str = "") -> None:
        self.violations.append(Violation(law, instance, detail))

    def extend(self, other: "ValidationReport") -> None:
        self.violations.extend(other.violations)

    def laws(self) -> set[str]:
        return {v.law for v in self.violations}

    def render(self) -> str:
        if self.ok:
            return f"{self.subject}: valid"
        body = "\n".join("  " + v.render() for v in self.violations)
        return f"{self.subject}: {len(self.violations)} violation(s)\n{body}"
