"""Every name a module of src/ecat imports is used in that module, and
every private module-level function or class of src/ecat is named by some
live code of src/ecat outside its own definition: code that is not itself
in such an unreferenced def. No def of src/ecat takes an
``UnderlyingResult``: an enriched category keeps its own. No module of
src/ecat but core.py calls ``FinCategory``: the others build categories
through core. No ``.get(...)`` of src/ecat keys by ``sorted(`` outside
``monoidal._half_braided_index``, the one table of half-braided objects.
Every ``.thin`` read of src/ecat outside the two base rules is gated by
``_is_monoidal`` or ``_thin_host``, and the composition sections that a
thin gate skips are called only by their own checker and their gated
callers. Budget is spent only by ``core._search`` and the single-pool filters
that ``report.Budget`` names, and made only by ``Budget.of``, so every
search entry point shares a Budget it is handed. What is built from an
instance is kept only by ``core.kept``: no other dict field is declared
with ``init=False``, ``._kept`` is read or written only inside ``kept``, and
nothing writes through ``vars(`` or ``.__dict__``.

Names listed in the package's __all__ are re-exported, so they count as
used in __init__.py.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ecat"


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list:
    """Imported names that no expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom a import b, c as d\nfrom __future__ import annotations\nd()\n"
    assert unused_imports(source) == [(1, "os"), (2, "b")]


def test_the_scan_exempts_names_in_all():
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_privates(sources: dict) -> list:
    """The (module, name) of each module-level function or class whose name
    starts with one underscore and that only dead code refers to.

    Code is live unless it lies in a reported def. A private def is live as
    soon as a name or attribute read in live code outside its own
    definition refers to it, in any of the modules. So a def named only by
    itself, by the defs of a dead chain or by a cycle of private defs that
    nothing else names is reported, not only the head of the chain.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    privates = [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    owner = {}  # id of a node inside a private def -> that def's node
    for _, node in privates:
        for inner in ast.walk(node):
            owner[id(inner)] = node
    readers = defaultdict(list)  # name -> the def of each read, None outside them
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                readers[node.id].append(owner.get(id(node)))
            elif isinstance(node, ast.Attribute):
                readers[node.attr].append(owner.get(id(node)))
    live = set()  # ids of the private defs found live so far
    grew = True
    while grew:
        grew = False
        for _, node in privates:
            if id(node) not in live and any(
                d is None or (d is not node and id(d) in live) for d in readers[node.name]
            ):
                live.add(id(node))
                grew = True
    return sorted((module, node.name) for module, node in privates if id(node) not in live)


def test_the_scan_finds_an_unreferenced_private_def():
    sources = {
        "a": "def _loop():\n    return _loop()\n\ndef _used():\n    pass\n\nclass _Dead:\n    pass\n",
        "b": "import a\n\ndef public():\n    return a._used()\n\ndef __dunder__():\n    pass\n",
    }
    assert unreferenced_privates(sources) == [("a", "_Dead"), ("a", "_loop")]


def test_the_scan_follows_dead_chains_and_cycles():
    # _head names _mid, which names _Tail; _ping and _pong name only each
    # other; _kept is named by a live private def, _live, and _live by
    # public code
    sources = {
        "a": (
            "def _head():\n    return _mid()\n\n"
            "def _mid():\n    return b._Tail()\n\n"
            "def _ping():\n    return _pong()\n\n"
            "def _pong():\n    return _ping()\n\n"
            "def _live():\n    return _kept\n"
        ),
        "b": "import a\n\nclass _Tail:\n    pass\n\ndef _kept():\n    pass\n\nX = a._live\n",
    }
    assert unreferenced_privates(sources) == [
        ("a", "_head"), ("a", "_mid"), ("a", "_ping"), ("a", "_pong"), ("b", "_Tail")
    ]


def test_no_unreferenced_private_defs():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def threaded_underlying(sources: dict) -> list:
    """The (module, def, parameter) of each parameter annotated with
    ``UnderlyingResult``, in a def at any depth. An enriched category keeps
    its underlying category, so no def needs it passed in."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None
            ]
            for p in params:
                if p.annotation and "UnderlyingResult" in ast.unparse(p.annotation):
                    found.append((module, node.name, p.arg))
    return sorted(found)


def test_the_scan_finds_a_threaded_underlying_category():
    sources = {
        "a": (
            "def f(e, u: UnderlyingResult | None = None):\n    pass\n\n"
            "class C:\n    def m(self, *, us: 'UnderlyingResult'):\n        pass\n\n"
            "def g(e, u, k: int) -> UnderlyingResult:\n    pass\n"
        ),
        "b": "import enriched\n\ndef h(ut: enriched.UnderlyingResult):\n    pass\n",
    }
    assert threaded_underlying(sources) == [("a", "f", "u"), ("a", "m", "us"), ("b", "h", "ut")]


def test_no_def_takes_an_underlying_category():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert threaded_underlying(sources) == []


def category_builders(sources: dict) -> list:
    """The (module, line) of each call of ``FinCategory`` outside
    ``core.py``. Every other module builds its categories through ``core``:
    ``labelled_category`` for categories of labelled morphisms, and
    ``product_category`` and the rest."""
    found = []
    for module, source in sources.items():
        if module == "core.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "FinCategory":
                    found.append((module, node.lineno))
    return sorted(found)


def test_the_scan_finds_a_category_built_outside_core():
    sources = {
        "core.py": "c = FinCategory(1, (0,), (0,), (0,), {(0, 0): 0})\n",
        "a.py": "def f(n, d, c, i, t):\n    return FinCategory(n, d, c, i, t)\n",
        "b.py": "import core\n\nx = core.FinCategory(1, d, c, i, t)\ny: FinCategory = x\n",
    }
    assert category_builders(sources) == [("a.py", 2), ("b.py", 3)]


def test_only_core_builds_a_category():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert category_builders(sources) == []


def sorted_key_lookups(sources: dict) -> list:
    """The (module, line) of each ``.get(...)`` call whose key calls
    ``sorted(`` outside ``monoidal._half_braided_index``, the one place that
    keys a half-braiding by its sorted components."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        exempt = set()
        if module == "monoidal.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "_half_braided_index":
                    exempt = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and id(node) not in exempt
                and any(
                    isinstance(n, ast.Call) and getattr(n.func, "id", None) == "sorted"
                    for arg in node.args for n in ast.walk(arg)
                )
            ):
                found.append((module, node.lineno))
    return sorted(found)


def test_the_scan_finds_a_sorted_key_lookup_outside_the_index():
    index = (
        "def _half_braided_index(pairs):\n"
        "    index = {}\n"
        "    return lambda x, c: index.get((x, tuple(sorted(c.items()))))\n"
    )
    sources = {
        "monoidal.py": index + "def f(d, c):\n    return d.get((0, tuple(sorted(c))))\n",
        "centers.py": "a = d.get(sorted(c))\nb = d.get(c, sorted(e))\nc = d.get(x)\n",
        "core.py": index,
    }
    assert sorted_key_lookups(sources) == [
        ("centers.py", 1), ("centers.py", 2), ("core.py", 3), ("monoidal.py", 5),
    ]


def test_only_the_half_braided_index_keys_by_sorted_components():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sorted_key_lookups(sources) == []


# the thin rules that _is_monoidal itself is decided by
BASE_THIN_RULES = {("core.py", "check_category"), ("monoidal.py", "check_monoidal")}
GATES = {"_is_monoidal", "_thin_host"}


def ungated_thin_reads(sources: dict) -> list:
    """The (module, line) of each ``.thin`` read in a function whose
    condition calls neither ``_is_monoidal`` nor ``_thin_host``, outside
    ``BASE_THIN_RULES``.

    A read's condition is the innermost statement that holds it (the test
    of an ``if`` or ``while``, not its body). A local name that the
    condition reads stands for the values assigned to it in the same
    function, so ``ok = _is_monoidal(m)`` then ``if c.thin and ok`` counts
    as gated.
    """
    found = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (module, fn.name) in BASE_THIN_RULES:
                continue
            assigned = defaultdict(list)  # local name -> the values assigned to it
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            assigned[target.id].append(node.value)
            for stmt in ast.walk(fn):
                if not isinstance(stmt, ast.stmt) or stmt is fn:
                    continue
                cond = stmt.test if isinstance(stmt, (ast.If, ast.While)) else stmt
                if isinstance(cond, ast.stmt) and any(
                    isinstance(n, ast.stmt) for n in ast.iter_child_nodes(cond)
                ):
                    continue  # a compound statement: its own statements are visited
                reads = [
                    n for n in ast.walk(cond)
                    if isinstance(n, ast.Attribute) and n.attr == "thin"
                    and isinstance(n.ctx, ast.Load)
                ]
                if reads and not _calls_a_gate(cond, assigned, set()):
                    found.update((module, n.lineno) for n in reads)
    return sorted(found)


def _calls_a_gate(node, assigned: dict, seen: set) -> bool:
    for n in ast.walk(node):
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) in GATES:
            return True
        if isinstance(n, ast.Name) and n.id in assigned and n.id not in seen:
            seen.add(n.id)
            if any(_calls_a_gate(v, assigned, seen) for v in assigned[n.id]):
                return True
    return False


def test_the_scan_finds_an_ungated_thin_read():
    sources = {
        "core.py": "def check_category(c):\n    if c.thin:\n        return 1\n",
        "a.py": (
            "def f(c, m):\n    if c.thin and _is_monoidal(m):\n        return 1\n"
            "    ok = _thin_host(e)\n    gated = c.thin and ok\n"
            "    if c.thin:\n        return 2\n"
        ),
        "b.py": (
            "def g(c, m):\n    while c.thin:\n        if _is_monoidal(m):\n            pass\n"
            "    return c.thin or _out_of_product(m)\n"
        ),
    }
    assert ungated_thin_reads(sources) == [("a.py", 6), ("b.py", 2), ("b.py", 5)]


def test_every_thin_read_is_gated():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert ungated_thin_reads(sources) == []


# each composition section a thin gate skips -> the (module, function) that
# may call it: its own checker and its gated callers
GATED_SECTIONS = {
    "_check_functor_composition": {
        ("core.py", "check_functor"), ("actions.py", "check_module"),
    },
    "_check_enriched_functor_composition": {
        ("enriched.py", "check_enriched_functor"),
        ("enriched_monoidal.py", "check_enriched_monoidal"),
        ("centers.py", "_comparison_report"),  # the verifiers' comparison functor
    },
    "_check_enriched_nat_squares": {
        ("enriched.py", "check_enriched_nat"), ("centers.py", "_nat_report"),
    },
}


def _callers(tree: ast.Module) -> dict:
    """The id of each node inside a module-level def -> that def's name."""
    return {
        id(n): fn.name
        for fn in tree.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for n in ast.walk(fn)
    }


def stray_section_calls(sources: dict) -> list:
    """The (module, line, section) of each call of a ``GATED_SECTIONS``
    section, by name or attribute, outside the module-level functions
    allowed to call it."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        caller = _callers(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in GATED_SECTIONS and (module, caller.get(id(node))) not in GATED_SECTIONS[name]:
                found.append((module, node.lineno, name))
    return sorted(found)


def test_the_scan_finds_a_stray_section_call():
    sources = {
        "core.py": (
            "def check_functor(fun):\n    _check_functor_composition(fun, r)\n\n"
            "def check_module(mod):\n    _check_functor_composition(mod.act, r)\n"
        ),
        "actions.py": (
            "def check_module(mod):\n    core._check_functor_composition(mod.act, r)\n\n"
            "def check_rlax(rl):\n    _check_functor_composition(rl.functor, r)\n"
            "    _check_enriched_functor_composition(f, r)\n"
        ),
        "enriched.py": "_check_enriched_functor_composition(f, r)\n",
    }
    assert stray_section_calls(sources) == [
        ("actions.py", 5, "_check_functor_composition"),
        ("actions.py", 6, "_check_enriched_functor_composition"),
        ("core.py", 5, "_check_functor_composition"),
        ("enriched.py", 1, "_check_enriched_functor_composition"),
    ]


def test_the_scan_catches_a_call_planted_in_the_sources():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    planted = sources["monoidal.py"] + "\n\ndef _f(m, r):\n    _check_functor_composition(m.tensor, r)\n"
    sources["monoidal.py"] = planted
    line = planted.rstrip("\n").count("\n") + 1
    assert stray_section_calls(sources) == [("monoidal.py", line, "_check_functor_composition")]


def test_composition_sections_are_called_only_by_their_checker_and_gated_caller():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert stray_section_calls(sources) == []


# the one exhaustive search and the single-pool filters that report.Budget
# names: each spends one unit per candidate it tries
SPENDERS = {
    ("core.py", "_search"),
    ("actions.py", "internal_hom"),
    ("monoidal.py", "drinfeld_center_z1"),
    ("centers.py", "_terminal_bracket"),
}


def stray_spends(sources: dict) -> list:
    """The (module, line) of each ``.spend(`` call outside the module-level
    functions of ``SPENDERS``: any other search is a call of ``_search``."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        caller = _callers(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "spend"
                and (module, caller.get(id(node))) not in SPENDERS
            ):
                found.append((module, node.lineno))
    return sorted(found)


def test_the_scan_finds_a_stray_spend():
    sources = {
        "core.py": (
            "def _search(n, d, c, budget):\n    budget.spend()\n\n"
            "def _functor_search(c, d, budget):\n    budget.spend(2)\n"
        ),
        "centers.py": (
            "def _terminal_bracket(c, budget):\n    budget.spend()\n\n"
            "def bracket_pair(em, budget):\n    for z in em:\n        budget.spend()\n"
        ),
        "report.py": "class Budget:\n    def spend(self, n=1):\n        self.used += n\n",
        "actions.py": "budget.spend()\n",
    }
    assert stray_spends(sources) == [("actions.py", 1), ("centers.py", 6), ("core.py", 5)]


def test_the_spend_scan_catches_a_spend_planted_in_the_sources():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    planted = sources["centers.py"] + (
        "\n\ndef _f(pool, budget):\n    for p in pool:\n        budget.spend()\n"
    )
    sources["centers.py"] = planted
    line = planted.rstrip("\n").count("\n") + 1
    assert stray_spends(sources) == [("centers.py", line)]


def test_only_the_search_and_the_named_filters_spend():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert stray_spends(sources) == []


def budget_builders(sources: dict) -> list:
    """The (module, line) of each call of ``Budget``, by name or attribute,
    outside ``Budget.of`` in report.py."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        allowed = set()
        if module == "report.py":
            allowed = {
                id(n)
                for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Budget"
                for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "of"
                for n in ast.walk(fn)
            }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "Budget":
                    found.append((module, node.lineno))
    return sorted(found)


def test_the_scan_finds_a_budget_made_outside_budget_of():
    sources = {
        "report.py": (
            "class Budget:\n    @staticmethod\n    def of(cap, what):\n"
            "        return cap if isinstance(cap, Budget) else Budget(cap, what)\n\n"
            "DEFAULT = Budget(1)\n"
        ),
        "core.py": "def f(c, cap=None):\n    return g(c, Budget.of(cap, 'f'))\n",
        "centers.py": "def h(e, budget=None):\n    budget = budget or report.Budget(None, 'h')\n",
    }
    assert budget_builders(sources) == [("centers.py", 2), ("report.py", 6)]


def test_the_budget_scan_catches_a_budget_planted_in_the_sources():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    planted = sources["centers.py"] + "\n\ndef _f(e, cap=None):\n    return Budget(cap, 'f')\n"
    sources["centers.py"] = planted
    line = planted.rstrip("\n").count("\n") + 1
    assert budget_builders(sources) == [("centers.py", line)]


def test_only_budget_of_makes_a_budget():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert budget_builders(sources) == []


# the methods that write to the dict they are called on
DICT_WRITES = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _instance_dict(node) -> bool:
    """Whether node is ``vars(...)`` or ``<expr>.__dict__``."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "vars"
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def stray_stores(sources: dict) -> list:
    """The (module, line, kind) of each store of built things outside
    ``core.kept``: a ``field`` declared ``init=False`` with a dict
    annotation or ``default_factory=dict`` under any name but ``_kept``
    ("field"); a read or write of ``._kept`` outside the def of ``kept`` in
    core.py ("_kept"); a write through ``vars(`` or ``.__dict__``, by
    subscript or by a writing dict method ("vars")."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        allowed = set()
        if module == "core.py":
            allowed = {
                id(n)
                for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "kept"
                for n in ast.walk(fn)
            }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id != "_kept"
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "field"
            ):
                kw = {k.arg: k.value for k in node.value.keywords}
                init = kw.get("init")
                factory = kw.get("default_factory")
                if (
                    isinstance(init, ast.Constant) and init.value is False
                    and (
                        ast.unparse(node.annotation).startswith("dict")
                        or getattr(factory, "id", None) == "dict"
                    )
                ):
                    found.append((module, node.lineno, "field"))
            elif isinstance(node, ast.Attribute) and node.attr == "_kept" and id(node) not in allowed:
                found.append((module, node.lineno, "_kept"))
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and _instance_dict(node.value)
            ) or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in DICT_WRITES
                and _instance_dict(node.func.value)
            ):
                found.append((module, node.lineno, "vars"))
    return sorted(found)


def test_the_scan_finds_a_stray_store():
    sources = {
        "core.py": (
            "def kept(build):\n    def get(obj):\n        return obj._kept[build]\n"
            "    return get\n\ndef f(o):\n    return o._kept\n"
        ),
        "a.py": (
            "@dataclass\nclass A:\n"
            "    _kept: dict = field(default_factory=dict, init=False, repr=False)\n"
            "    _memo: dict = field(default_factory=dict, init=False, compare=False)\n"
            "    names: tuple = field(default=(), init=False)\n"
            "    seen: dict = field(default_factory=dict)\n"
            "    cache: Mapping = field(default_factory=dict, init=False)\n"
        ),
        "b.py": (
            "def f(o, k, v):\n    vars(o)[k] = v\n    o.__dict__.update(k=v)\n"
            "    del o.__dict__[k]\n    return vars(o).get(k), o.__dict__[k]\n\n"
            "x = o._kept\n"
        ),
    }
    assert stray_stores(sources) == [
        ("a.py", 4, "field"), ("a.py", 7, "field"),
        ("b.py", 2, "vars"), ("b.py", 3, "vars"), ("b.py", 4, "vars"), ("b.py", 7, "_kept"),
        ("core.py", 7, "_kept"),
    ]


def test_the_store_scan_catches_a_store_planted_in_the_sources():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    planted = sources["centers.py"] + (
        "\n\n@dataclass\nclass _Memo:\n"
        "    memo: dict = field(default_factory=dict, init=False, compare=False)\n"
        "\n\ndef _f(res):\n    vars(res)['ev'] = res._kept\n"
    )
    sources["centers.py"] = planted
    last = planted.rstrip("\n").count("\n") + 1
    assert stray_stores(sources) == [
        ("centers.py", last - 4, "field"), ("centers.py", last, "_kept"), ("centers.py", last, "vars"),
    ]


def test_only_kept_keeps_what_is_built_from_an_instance():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert stray_stores(sources) == []
