"""Outside-in tracing of `ecat`: wrap public functions, record spans, unwrap.

`ecat` modules import each other's functions by name, so one function can be
bound in several namespaces. The tracer replaces every binding of a target
in every loaded `ecat.*` module (and the class attribute, for methods) with
a wrapper, and puts the originals back on exit. Spanned functions get a
span with a parent link; hot lookups are only counted.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# Functions that get a span. Metric names are "<module>.<function>.<stat>".
SPANNED = (
    "core.product_category",
    "monoidal.product_monoidal",
    "monoidal.product_lax",
    "monoidal.check_monoidal",
    "monoidal.check_braided",
    "monoidal.check_lax_monoidal_functor",
    "monoidal.drinfeld_center_z1",
    "actions.check_monoidal_module",
    "canonical.canonical_construction",
    "canonical.canonical_monoidal",
    "canonical.canonical_braided",
    "enriched.cartesian_product_enriched",
    "enriched.product_enriched_functor",
    "enriched.compose_enriched_functors",
    "enriched.check_enriched_functor",
    "enriched.check_enriched_nat",
    "enriched_monoidal.check_enriched_monoidal",
    "enriched_monoidal.associator_nat",
    "enriched_monoidal.check_enriched_braided",
    "centers.condition_star",
    "centers.e0_center",
    "centers.gamma1",
    "centers.gamma2",
    "centers.gamma1_of_canonical",
    "centers.gamma2_of_canonical",
    "centers.enriched_iso_search",
    "centers.verify_e0_universal",
    "centers.verify_e1_universal",
    "centers.verify_e2_universal",
)
# Spanned functions whose result size is recorded as "entries".
SIZED = ("core.product_category", "enriched.cartesian_product_enriched")
# Hot lookups: counted, never spanned.
COUNTED = (
    "core.FinCategory.hom",
    "monoidal.find_inverse",
    "actions.internal_hom",
)
BUDGET = "report.Budget.spend"
# Spanned functions that spend search budget themselves (or in unspanned
# helpers); each gets its own report.Budget.spent.<name> total.
BUDGETED = (
    "monoidal.drinfeld_center_z1",
    "canonical.canonical_construction",
    "centers.condition_star",
    "centers.gamma1",
    "centers.enriched_iso_search",
    "centers.verify_e0_universal",
    "centers.verify_e1_universal",
    "centers.verify_e2_universal",
)

WRAPPED_MARK = "_perfbench_wrapped"


def table_entries(obj) -> int:
    """Materialised table entries held directly by a dataclass result.

    Tuples and plain dicts count their length. Lazy mappings (such as a
    product compose view) hold no entries of their own, and nested
    structures are counted by the span that built them.
    """
    total = 0
    for value in vars(obj).values():
        if isinstance(value, (tuple, list)) or type(value) is dict:
            total += len(value)
    return total


def _ecat_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if name == "ecat" or name.startswith("ecat.")
    ]


def _resolve(target: str):
    """(owner, attribute, original) for 'module.func' or 'module.Class.method'."""
    parts = target.split(".")
    owner = sys.modules["ecat." + parts[0]]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Context manager that traces one region of `ecat` calls."""

    def __init__(self):
        self.spans = []  # [name, parent, start, end, child_s, budget, entries]
        self.counts = defaultdict(int)
        self.budget_total = 0
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- installing and removing wrappers --

    def __enter__(self):
        try:
            for target in SPANNED:
                self._install(target, self._span_wrapper)
            for target in COUNTED:
                self._install(target, self._count_wrapper)
            self._install(BUDGET, self._budget_wrapper)
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _install(self, target, make):
        owner, attr, original = _resolve(target)
        wrapper = make(target, original)
        setattr(wrapper, WRAPPED_MARK, True)
        if isinstance(owner, type):
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in _ecat_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def remove(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- wrappers --

    def _open(self, name):
        rec = [name, self._stack[-1] if self._stack else None, 0.0, 0.0, 0.0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()
        if rec[1] is not None:
            self.spans[rec[1]][4] += rec[3] - rec[2]

    @contextlib.contextmanager
    def span(self, name):
        """A span around a region of the runner, such as one stage."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _span_wrapper(self, name, fn):
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if sized:
                rec[6] = table_entries(result)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _budget_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def spend(budget, n=1):
            self.budget_total += n
            if stack:
                spans[stack[-1]][5] += n
            return fn(budget, n)

        return spend

    # -- results --

    def totals(self) -> dict:
        """Per-function totals: calls, self_s, entries and budget spent."""
        out = {
            name: {"calls": 0, "self_s": 0.0, "entries": 0, "budget": 0}
            for name in SPANNED
        }
        for name, _, start, end, child_s, budget, entries in self.spans:
            t = out.get(name)
            if t is None:  # a stage span opened by the runner
                continue
            t["calls"] += 1
            t["self_s"] += (end - start) - child_s
            t["budget"] += budget
            t["entries"] += entries or 0
        for name in COUNTED:
            out[name] = {"calls": self.counts[name]}
        return out

    def tree(self) -> list:
        """The spans merged by call path: one node per distinct stack of
        spanned functions, with call count, total and self seconds."""
        nodes, path_of, roots = {}, {}, []
        for sid, (name, parent, start, end, child_s, budget, _) in enumerate(self.spans):
            path = (path_of[parent] if parent is not None else ()) + (name,)
            path_of[sid] = path
            node = nodes.get(path)
            if node is None:
                node = nodes[path] = {
                    "name": name, "calls": 0, "total_s": 0.0, "self_s": 0.0,
                    "budget": 0, "children": [],
                }
                siblings = roots if parent is None else nodes[path[:-1]]["children"]
                siblings.append(node)
            node["calls"] += 1
            node["total_s"] += end - start
            node["self_s"] += (end - start) - child_s
            node["budget"] += budget
        return roots


def installed_wrappers() -> list:
    """Bindings in loaded `ecat` modules and classes that are still wrappers."""
    found = []
    for mod in _ecat_modules():
        name = mod.__name__
        for key, value in list(vars(mod).items()):
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{name}.{key}")
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    if getattr(member, WRAPPED_MARK, False):
                        found.append(f"{name}.{key}.{attr}")
    return found
