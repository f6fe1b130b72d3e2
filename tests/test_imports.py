"""Every name a module of src/ecat imports is used in that module, and
every private module-level function or class of src/ecat is named by some
live code of src/ecat outside its own definition: code that is not itself
in such an unreferenced def. No def of src/ecat takes an
``UnderlyingResult``: an enriched category keeps its own. Every ``.thin``
read of src/ecat outside the two base rules is gated by ``_is_monoidal`` or
``_thin_host``, or is one of the listed sites whose gate is another verdict.
What is built from an instance is kept only by ``core.kept``: no other dict
field is declared with ``init=False``, ``._kept`` is read or written only
inside ``kept``, and nothing writes through ``vars(`` or ``.__dict__``.

Each row of ``RULES`` names a callee, the calls of it that it governs, the
sites allowed to make them and why; one scanner, ``stray_calls``, runs the
table. Only core.py calls ``FinCategory``; no ``.get(...)`` keys by
``sorted(`` outside ``monoidal._half_braided_index``, the one table of
half-braided objects; the composition and law sections that a thin gate
skips are called only by their own checker and their gated callers; Budget
is spent only by ``core._search`` and the single-pool filters that
``report.Budget`` names, and made only by ``Budget.of``; no ``_search(``
call passes no constraint, outside the two half-braiding enumerations that
still filter afterwards. Each rule has a synthetic and a planted-source
self-test, and each allowed site must still make its call.

Names listed in the package's __all__ are re-exported, so they count as
used in __init__.py.
"""

import ast
import functools
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ecat"


def _src() -> dict:
    """Each module of src/ecat by file name -> its source."""
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


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
    assert unreferenced_privates(_src()) == []


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
    assert threaded_underlying(_src()) == []


# the thin rules that _is_monoidal itself is decided by
BASE_THIN_RULES = {("core.py", "check_category"), ("monoidal.py", "check_monoidal")}
GATES = {"_is_monoidal", "_thin_host"}
# the sites whose .thin read is gated by another verdict -> that verdict
GATED_SITES = {
    ("actions.py", "_thin_rlax"): (
        "both modules act out of their products and pass check_module, and the"
        " background passes check_lax_monoidal_functor: every cell an r-lax law"
        " composes is typed once the candidate is"
    ),
    ("centers.py", "e0_center"): (
        "condition_star's verdict: every endofunctor and Z1 passed _typed_cells,"
        " which calls _thin_host"
    ),
}


def ungated_thin_reads(sources: dict) -> list:
    """The (module, line) of each ``.thin`` read in a function whose
    condition calls neither ``_is_monoidal`` nor ``_thin_host``, outside
    ``BASE_THIN_RULES``.

    The functions of ``GATED_SITES`` are gated by a verdict of their own,
    named there. A read's condition is the innermost statement that holds it
    (the test of an ``if`` or ``while``, not its body). A local name that the
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
            if (module, fn.name) in BASE_THIN_RULES or (module, fn.name) in GATED_SITES:
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
    assert ungated_thin_reads(_src()) == []


@pytest.mark.parametrize("site", sorted(GATED_SITES), ids=lambda s: f"{s[0]}:{s[1]}")
def test_each_listed_gate_site_reads_thin(site):
    # a listed site that no longer reads .thin is a stale exemption
    module, name = site
    tree = ast.parse((SRC / module).read_text())
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    assert any(isinstance(n, ast.Attribute) and n.attr == "thin" for n in ast.walk(fn))


# each composition or law section a thin gate skips -> the (module, def)
# that may call it: its own checker and its gated callers
GATED_SECTIONS = {
    "_check_functor_composition": {
        ("core.py", "check_functor"), ("actions.py", "check_module"),
    },
    "_check_enriched_functor_composition": {
        ("enriched.py", "check_enriched_functor"),
        ("enriched_monoidal.py", "check_enriched_monoidal"),
        ("centers.py", "_comparison_report"),  # the verifiers' comparison functor
    },
    # _rlax_search decides these laws from typing under _thin_rlax, and
    # otherwise runs check_rlax
    "_check_rlax_laws": {("actions.py", "check_rlax")},
}
# the one exhaustive search and the single-pool filters that report.Budget
# names: each spends one unit per candidate it tries
SPENDERS = {
    ("core.py", "_search"),
    ("actions.py", "internal_hom"),
    ("monoidal.py", "drinfeld_center_z1"),
    ("centers.py", "_terminal_bracket"),
}
# the searches that pass no constraint and filter afterwards: the
# half-braiding enumerations, whose laws are not yet placed at their
# variables
UNCONSTRAINED_SEARCHES = {
    ("monoidal.py", "enumerate_half_braidings"),
    ("enriched_monoidal.py", "enumerate_enriched_half_braidings"),
}


class Rule(NamedTuple):
    """Calls of callee, by name or attribute, that where accepts (every call
    when None) are made only at sites: a module, or a (module, def) pair
    whose def is a module-level function or a ``Class.method``."""

    callee: str
    sites: set
    reason: str
    where: Callable[[ast.Call], bool] | None = None


def _sorted_key(call: ast.Call) -> bool:
    """Whether an argument of call calls ``sorted(``."""
    return any(
        isinstance(n, ast.Call) and getattr(n.func, "id", None) == "sorted"
        for arg in call.args for n in ast.walk(arg)
    )


def _no_constraints(call: ast.Call) -> bool:
    """Whether a ``_search`` call passes ``()`` or ``[]`` as its constraints."""
    if len(call.args) > 2:
        arg = call.args[2]
    else:
        arg = next((k.value for k in call.keywords if k.arg == "constraints"), None)
    return isinstance(arg, (ast.Tuple, ast.List)) and not arg.elts


RULES = [
    Rule("FinCategory", {"core.py"},
         "every other module builds its categories through core: labelled_category"
         " for categories of labelled morphisms, product_category and the rest"),
    Rule("get", {("monoidal.py", "_half_braided_index")},
         "the one table of half-braided objects keys a half-braiding by its"
         " sorted components", _sorted_key),
    *(Rule(section, sites, "a section that a thin gate skips is called only by"
           " its own checker and its gated callers")
      for section, sites in GATED_SECTIONS.items()),
    Rule("spend", SPENDERS,
         "any other search is a call of _search, so that every search entry"
         " point spends from the Budget it is handed"),
    Rule("Budget", {("report.py", "Budget.of")},
         "every search entry point shares a Budget it is handed"),
    Rule("_search", UNCONSTRAINED_SEARCHES,
         "a search states each law at the variable where it becomes decidable,"
         " not in a filter after it", _no_constraints),
]


def _callers(tree: ast.Module) -> dict:
    """The id of each node inside a module-level def -> that def's name, or
    ``Class.method`` inside a method of a module-level class."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = [(fn.name, fn) for fn in tree.body if isinstance(fn, funcs)]
    defs += [
        (f"{cls.name}.{fn.name}", fn)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, funcs)
    ]
    return {id(n): name for name, fn in defs for n in ast.walk(fn)}


def _callee(call: ast.Call) -> str | None:
    """The name that call calls, by name or attribute."""
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


@functools.cache
def _call_sites(source: str) -> tuple:
    """The (callee, def, node) of each call of source; def is None outside
    the defs of ``_callers``."""
    tree = ast.parse(source)
    caller = _callers(tree)
    return tuple(
        (_callee(node), caller.get(id(node)), node)
        for node in ast.walk(tree) if isinstance(node, ast.Call)
    )


def _calls(sources: dict, rule: Rule):
    """The (module, def, line) of each call that rule governs."""
    for module, source in sources.items():
        for name, fn, node in _call_sites(source):
            if name == rule.callee and (rule.where is None or rule.where(node)):
                yield module, fn, node.lineno


def stray_calls(sources: dict, rules=RULES) -> list:
    """The (module, line, callee) of each call that a rule governs outside
    its sites."""
    return sorted(
        (module, line, rule.callee)
        for rule in rules
        for module, fn, line in _calls(sources, rule)
        if module not in rule.sites and (module, fn) not in rule.sites
    )


# each rule's synthetic sources, and the calls the scan must find in them
SYNTHETIC = {
    "FinCategory": ({
        "core.py": "c = FinCategory(1, (0,), (0,), (0,), {(0, 0): 0})\n",
        "a.py": "def f(n, d, c, i, t):\n    return FinCategory(n, d, c, i, t)\n",
        "b.py": "import core\n\nx = core.FinCategory(1, d, c, i, t)\ny: FinCategory = x\n",
    }, [("a.py", 2, "FinCategory"), ("b.py", 3, "FinCategory")]),
    "get": ({
        "monoidal.py": (
            "def _half_braided_index(pairs):\n    index = {}\n"
            "    return lambda x, c: index.get((x, tuple(sorted(c.items()))))\n"
            "def f(d, c):\n    return d.get((0, tuple(sorted(c))))\n"
        ),
        "centers.py": "a = d.get(sorted(c))\nb = d.get(c, sorted(e))\nc = d.get(x)\n",
        "core.py": (
            "def _half_braided_index(pairs):\n    index = {}\n"
            "    return lambda x, c: index.get((x, tuple(sorted(c.items()))))\n"
        ),
    }, [
        ("centers.py", 1, "get"), ("centers.py", 2, "get"), ("core.py", 3, "get"),
        ("monoidal.py", 5, "get"),
    ]),
    "sections": ({
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
    }, [
        ("actions.py", 5, "_check_functor_composition"),
        ("actions.py", 6, "_check_enriched_functor_composition"),
        ("core.py", 5, "_check_functor_composition"),
        ("enriched.py", 1, "_check_enriched_functor_composition"),
    ]),
    "spend": ({
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
    }, [("actions.py", 1, "spend"), ("centers.py", 6, "spend"), ("core.py", 5, "spend")]),
    "Budget": ({
        "report.py": (
            "class Budget:\n    @staticmethod\n    def of(cap, what):\n"
            "        return cap if isinstance(cap, Budget) else Budget(cap, what)\n\n"
            "DEFAULT = Budget(1)\n"
        ),
        "core.py": "def f(c, cap=None):\n    return g(c, Budget.of(cap, 'f'))\n",
        "centers.py": "def h(e, budget=None):\n    budget = budget or report.Budget(None, 'h')\n",
    }, [("centers.py", 2, "Budget"), ("report.py", 6, "Budget")]),
    "_search": ({
        "monoidal.py": (
            "def enumerate_half_braidings(m, x, budget):\n"
            "    return _search(2, d, (), budget)\n"
        ),
        "actions.py": (
            "def _rlax_search(r, budget):\n"
            "    laws = [(3, lawful)]\n"
            "    a = _search(4, domain, laws, budget)\n"
            "    b = core._search(4, domain, (), budget)\n"
            "    return _search(4, domain, constraints=[], budget=budget)\n"
        ),
        "core.py": "def _nat_search(f, g, budget):\n    return _search(n, d, [(0, c)], budget)\n",
    }, [("actions.py", 4, "_search"), ("actions.py", 5, "_search")]),
}
# a call of each callee planted in a module of src/ecat, in a def of its own
PLANTED = {
    "FinCategory": ("centers.py", "def _f(n):\n    return FinCategory(n, (), (), (), {})\n"),
    "get": ("centers.py", "def _f(d, c):\n    return d.get(tuple(sorted(c)))\n"),
    "_check_functor_composition": (
        "monoidal.py", "def _f(m, r):\n    _check_functor_composition(m.tensor, r)\n"),
    "_check_enriched_functor_composition": (
        "centers.py", "def _f(f, r):\n    _check_enriched_functor_composition(f, r)\n"),
    "_check_rlax_laws": ("centers.py", "def _f(rl, r):\n    _check_rlax_laws(rl, r)\n"),
    "spend": ("centers.py", "def _f(pool, budget):\n    for p in pool:\n        budget.spend()\n"),
    "Budget": ("centers.py", "def _f(e, cap=None):\n    return Budget(cap, 'f')\n"),
    "_search": (
        "centers.py", "def _f(domain, budget):\n    return list(_search(2, domain, (), budget))\n"),
}


@pytest.mark.parametrize("name", SYNTHETIC)
def test_the_scan_finds_the_stray_calls_of_a_rule(name):
    sources, want = SYNTHETIC[name]
    assert stray_calls(sources) == want


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.callee)
def test_the_scan_catches_a_call_planted_in_the_sources(rule):
    sources = _src()
    module, planted = PLANTED[rule.callee]
    sources[module] += "\n\n" + planted
    line = sources[module].rstrip("\n").count("\n") + 1  # the call ends each plant
    assert stray_calls(sources) == [(module, line, rule.callee)]


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.callee)
def test_each_call_a_rule_governs_is_at_one_of_its_sites(rule):
    assert stray_calls(_src(), [rule]) == [], rule.reason


@pytest.mark.parametrize("rule, site", [
    pytest.param(rule, site, id=f"{rule.callee}-{':'.join(site) if isinstance(site, tuple) else site}")
    for rule in RULES for site in sorted(rule.sites, key=str)
])
def test_each_allowed_site_still_makes_the_call(rule, site):
    # a site that no longer makes the call it is allowed is a stale exemption
    made = {(module, fn) for module, fn, _ in _calls(_src(), rule)}
    assert site in {module for module, _ in made} | made


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
    sources = _src()
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
    assert stray_stores(_src()) == []
