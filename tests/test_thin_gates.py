"""The one thin-category rule of check_category, check_monoidal,
check_braided, check_module and check_enriched, against the frozen
exhaustive oracles of tests/helpers.py.

On a thin category each checker decides its remaining laws from typing once
the structures it is built on pass their own checks. Every case below must
report what the oracle reports, or raise its exception type and message:
valid inputs, every one-entry mistyped cell of a thin fixture, categories
that fail check_category, tensors and actions that do not come out of a
product, and the non-thin fixtures, where a count of compositions shows
that no gate fires. check_functor, whose composition section check_module
skips on a thin carrier, is compared with its frozen body the same way.
"""

import dataclasses
from collections.abc import Mapping

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecat.actions import check_module, self_module
from ecat.canonical import canonical_construction
from ecat.core import FinCategory, Functor, check_category, check_functor, product_category
from ecat.enriched import check_enriched
from ecat.monoidal import BraidedStructure, check_braided, check_monoidal, product_monoidal
from ecat.report import StructureError

from helpers import (
    chain3_monoidal,
    exhaustive_check_braided,
    exhaustive_check_category,
    exhaustive_check_enriched,
    exhaustive_check_functor,
    exhaustive_check_module,
    exhaustive_check_monoidal,
    identity_braiding,
    lattice2_monoidal,
    lattice4_monoidal,
    lattice8_monoidal,
    meet_semilattice_monoidal,
    meet_semilattices,
    semion_braiding,
    sign_monoidal,
    thin_enriched,
    z2_discrete_monoidal,
)

CHECKS = {
    "category": (check_category, exhaustive_check_category),
    "monoidal": (check_monoidal, exhaustive_check_monoidal),
    "braided": (check_braided, exhaustive_check_braided),
    "module": (check_module, exhaustive_check_module),
    "enriched": (check_enriched, exhaustive_check_enriched),
}

BRAIDED = {
    "z2": lambda: identity_braiding(z2_discrete_monoidal()),
    "lattice2": lambda: identity_braiding(lattice2_monoidal()),
    "chain3": lambda: identity_braiding(chain3_monoidal()),
    "lattice4": lambda: identity_braiding(lattice4_monoidal()),
    "semion": semion_braiding,
    "sign": lambda: identity_braiding(sign_monoidal()),
    "sign-x-z2": lambda: identity_braiding(
        product_monoidal(sign_monoidal(), z2_discrete_monoidal())
    ),
    "sign-x-lattice2": lambda: identity_braiding(
        product_monoidal(sign_monoidal(), lattice2_monoidal())
    ),
}
THIN = ("z2", "lattice2", "chain3", "lattice4")
NON_THIN = ("semion", "sign", "sign-x-z2", "sign-x-lattice2")


def _inputs(b: BraidedStructure) -> dict:
    """What each checker reads, built on the braided fixture b. The
    enriched category is the canonical one of the self-module, or, on a
    thin base without internal homs, the one whose homs are all the unit."""
    m = b.host
    try:
        e = canonical_construction(self_module(m)).enriched
    except StructureError:
        e = thin_enriched(m, list(m.base.objects()), lambda x, y: m.unit)
    return {
        "category": m.base,
        "monoidal": m,
        "braided": b,
        "module": self_module(m),
        "enriched": e,
    }


def _outcome(check, x):
    """The violations check reports, or the type and message it raises."""
    try:
        return check(x).violations
    except Exception as exc:
        return type(exc), str(exc)


def _assert_as_oracle(kind, x):
    check, oracle = CHECKS[kind]
    got = _outcome(check, x)
    assert got == _outcome(oracle, x), kind
    return got


# --- one-entry changes of the tables each checker reads ---


def _items(table) -> list:
    return list(table.items()) if isinstance(table, Mapping) else list(enumerate(table))


def _set(table, key, g):
    if isinstance(table, Mapping):
        return {**dict(table), key: g}
    cells = list(table)
    cells[key] = g
    return tuple(cells)


MONOIDAL_TABLES = ("associator", "left_unitor", "right_unitor", "tensor")


def _monoidal_table(m, table):
    return m.tensor.mor_map if table == "tensor" else getattr(m, table)


def _monoidal_with(m, table, key, g):
    if table == "tensor":
        tensor = dataclasses.replace(m.tensor, mor_map=_set(m.tensor.mor_map, key, g))
        return dataclasses.replace(m, tensor=tensor)
    return dataclasses.replace(m, **{table: _set(getattr(m, table), key, g)})


def _tables(kind, x) -> dict:
    """The tables of x that a one-entry change is made in, by name: its own
    cells and those of the monoidal base it is built on."""
    own = {
        "category": lambda: {"compose": x.compose, "identity": x.identity},
        "monoidal": lambda: {},
        "braided": lambda: {"braiding": x.braiding},
        "module": lambda: {
            "oplax_assoc": x.oplax_assoc, "oplax_unitor": x.oplax_unitor, "act": x.act.mor_map,
        },
        "enriched": lambda: {"ident": x.ident, "comp": x.comp},
    }[kind]()
    if kind != "category":
        m = x if kind == "monoidal" else x.host if kind == "braided" else x.base
        own.update({f"base-{t}": _monoidal_table(m, t) for t in MONOIDAL_TABLES})
    return own


def _with(kind, x, table, key, g):
    """x with entry key of the named table set to g."""
    if table.startswith("base-"):
        if kind == "monoidal":
            return _monoidal_with(x, table[5:], key, g)
        field = "host" if kind == "braided" else "base"
        m = _monoidal_with(getattr(x, field), table[5:], key, g)
        return dataclasses.replace(x, **{field: m})
    if table == "act":
        act = dataclasses.replace(x.act, mor_map=_set(x.act.mor_map, key, g))
        return dataclasses.replace(x, act=act)
    return dataclasses.replace(x, **{table: _set(getattr(x, table), key, g)})


def _cells_category(kind, x) -> FinCategory:
    """The category whose morphisms the tables of x hold."""
    return {
        "category": lambda: x,
        "monoidal": lambda: x.base,
        "braided": lambda: x.host.base,
        "module": lambda: x.carrier,
        "enriched": lambda: x.base.base,
    }[kind]()


def _mistyped(c, f, k):
    """The k-th morphism of c (cyclically) of another type than f, or None."""
    alts = [g for g in c.morphisms() if (c.dom[g], c.cod[g]) != (c.dom[f], c.cod[f])]
    return alts[k % len(alts)] if alts else None


def _same_typed(c, f):
    return [g for g in c.hom(c.dom[f], c.cod[f]) if g != f]


@pytest.mark.parametrize("kind", CHECKS)
@pytest.mark.parametrize("name", THIN)
def test_every_mistyped_cell_of_a_thin_fixture_is_reported_as_by_the_oracle(name, kind):
    x = _inputs(BRAIDED[name]())[kind]
    c = _cells_category(kind, x)
    outcomes = []
    for table, cells in _tables(kind, x).items():
        for k, (key, f) in enumerate(_items(cells)):
            g = _mistyped(c, f, k)
            if g is not None:
                outcomes.append(_assert_as_oracle(kind, _with(kind, x, table, key, g)))
    assert any(outcomes)


@settings(deadline=None, max_examples=40)
@given(meet_semilattices(), st.sampled_from(list(CHECKS)), st.data())
def test_a_mistyped_cell_of_a_meet_semilattice_is_reported_as_by_the_oracle(masks, kind, data):
    x = _inputs(identity_braiding(meet_semilattice_monoidal(masks)))[kind]
    assert _assert_as_oracle(kind, x) == []
    c = _cells_category(kind, x)
    table, cells = data.draw(st.sampled_from(list(_tables(kind, x).items())))
    k = data.draw(st.integers(0, len(cells) - 1))
    key, f = _items(cells)[k]
    g = _mistyped(c, f, k)
    assume(g is not None)
    _assert_as_oracle(kind, _with(kind, x, table, key, g))


# --- inputs the gates must leave to the loops ---


def _on_category(b: BraidedStructure, c: FinCategory) -> dict:
    """The inputs of b moved onto c, a category with b's objects and
    morphisms: the tensor keeps its tables and is moved onto
    product_category(c, c), the enriched category keeps its cells."""
    m = b.host
    tensor = Functor(product_category(c, c), c, m.tensor.obj_map, m.tensor.mor_map)
    mc = dataclasses.replace(m, base=c, tensor=tensor)
    e = _inputs(b)["enriched"]
    return {
        "category": c,
        "monoidal": mc,
        "braided": dataclasses.replace(b, host=mc),
        "module": self_module(mc),
        "enriched": dataclasses.replace(e, base=mc),
    }


def _broken_categories(c: FinCategory) -> dict:
    """c with a composite left out, and with a composite of a pair that
    does not compose."""
    f = next(f for f in c.morphisms() if f not in c.identity)
    key = (c.identity[c.cod[f]], f)
    left_out = {k: h for k, h in c.compose.items() if k != key}
    g = next(g for g in c.morphisms() if c.cod[g] != c.dom[f])
    return {
        "compose-totality": dataclasses.replace(c, compose=left_out),
        "compose-partiality": dataclasses.replace(c, compose={**c.compose, (f, g): f}),
    }


@pytest.mark.parametrize("name", ["lattice2", "chain3", "lattice4"])
def test_a_thin_category_that_fails_check_category_decides_nothing(name):
    b = BRAIDED[name]()
    for law, c in _broken_categories(b.host.base).items():
        assert c.thin and law in exhaustive_check_category(c).laws()
        for kind, x in _on_category(b, c).items():
            _assert_as_oracle(kind, x)


def _relabeled(fun: Functor) -> Functor:
    """fun on a copy of its source whose morphisms are numbered backwards:
    still a functor, but its tables are no longer read by the mixed-radix
    index of a product."""
    s = fun.source
    last = s.n_morphisms - 1
    source = FinCategory(
        s.n_objects,
        tuple(s.dom[last - f] for f in s.morphisms()),
        tuple(s.cod[last - f] for f in s.morphisms()),
        tuple(last - f for f in s.identity),
        {(last - g, last - f): last - h for (g, f), h in s.compose.items()},
    )
    mor_map = tuple(fun.mor_map[last - f] for f in s.morphisms())
    return dataclasses.replace(fun, source=source, mor_map=mor_map)


@pytest.mark.parametrize("name", THIN)
def test_a_tensor_or_action_out_of_another_source_decides_nothing(name):
    b = BRAIDED[name]()
    m = b.host
    tensor = _relabeled(m.tensor)
    assert check_functor(tensor).ok
    mr = dataclasses.replace(m, tensor=tensor)
    e = _inputs(b)["enriched"]
    moved = {
        "monoidal": mr,
        "braided": dataclasses.replace(b, host=mr),
        "module": dataclasses.replace(self_module(m), base=mr),
        "enriched": dataclasses.replace(e, base=mr),
    }
    for kind, x in moved.items():
        _assert_as_oracle(kind, x)
    mod = self_module(m)
    act = _relabeled(mod.act)
    assert check_functor(act).ok
    outcomes = _assert_as_oracle("module", dataclasses.replace(mod, act=act))
    if name != "z2":  # z2 has identities only, so every source reads alike
        assert outcomes, "the loops report or raise on the misread action"


# --- check_functor, split for check_module's gate, against its frozen body ---


def _changed_mor_maps(fun: Functor) -> list:
    """fun with one mor_map entry set to another morphism of its type, to
    one of another type, and past the last morphism, and fun with its last
    entry left out."""
    d = fun.target
    changed = []
    for k, f in enumerate(fun.mor_map):
        for g in _same_typed(d, f)[:1] + [_mistyped(d, f, k)]:
            if g is not None:
                changed.append(dataclasses.replace(fun, mor_map=_set(fun.mor_map, k, g)))
    changed.append(dataclasses.replace(fun, mor_map=_set(fun.mor_map, 0, d.n_morphisms)))
    changed.append(dataclasses.replace(fun, mor_map=tuple(fun.mor_map)[:-1]))
    return changed


@pytest.mark.parametrize("name", THIN + NON_THIN + ("lattice8",))
def test_check_functor_reports_as_its_frozen_body(name):
    """On the tensor of each fixture, which is also its self-module's
    action, on the tensor over a relabelled source, and on their one-entry
    changes that keep the typing and that break it."""
    m = lattice8_monoidal() if name == "lattice8" else BRAIDED[name]().host
    laws = set()
    for fun in (m.tensor, _relabeled(m.tensor)):
        for x in (fun, *_changed_mor_maps(fun)):
            got = _outcome(check_functor, x)
            assert got == _outcome(exhaustive_check_functor, x)
            if isinstance(got, list):
                laws.update(v.law for v in got)
    assert "functor-identity" in laws
    # only a category with two objects has mistyped changes, and only one
    # with two parallel morphisms has same-typed ones
    assert ("functor-dom" in laws) == ("functor-cod" in laws) == (m.base.n_objects > 1)
    assert ("functor-composition" in laws) == (name in NON_THIN)


# --- the non-thin fixtures: no gate fires ---


@pytest.fixture
def compositions(monkeypatch):
    """A list that gets one entry per FinCategory.comp call."""
    calls = []
    comp = FinCategory.comp

    def counting(c, g, f):
        calls.append(None)
        return comp(c, g, f)

    monkeypatch.setattr(FinCategory, "comp", counting)
    return calls


def _compositions(calls, check, x) -> int:
    del calls[:]
    _outcome(check, x)
    return len(calls)


def _counts(calls, kind, x) -> tuple:
    """The compositions of the library check and of its oracle on x, after
    a first run of each has filled the kept verdicts and inverse memos."""
    check, oracle = CHECKS[kind]
    assert _outcome(check, x) == _outcome(oracle, x), kind
    return _compositions(calls, check, x), _compositions(calls, oracle, x)


@pytest.mark.parametrize("kind", CHECKS)
@pytest.mark.parametrize("name", THIN + NON_THIN)
def test_valid_fixtures_pass_and_only_thin_ones_skip_compositions(name, kind, compositions):
    x = _inputs(BRAIDED[name]())[kind]
    assert _assert_as_oracle(kind, x) == []
    got, want = _counts(compositions, kind, x)
    assert want > 0
    if name not in THIN:
        assert got == want, (got, want)
    elif kind == "module":
        assert got == 0, got  # the action's composition law is decided too
    else:
        assert got < want, (got, want)


def test_the_lattice8_self_module_passes_and_composes_nothing(compositions):
    x = self_module(lattice8_monoidal())
    assert _assert_as_oracle("module", x) == []
    got, want = _counts(compositions, "module", x)
    assert got == 0 < want, (got, want)


@pytest.mark.parametrize("kind", CHECKS)
@pytest.mark.parametrize("name", NON_THIN)
def test_same_typed_changes_of_a_non_thin_fixture_compose_as_the_oracle(name, kind, compositions):
    x = _inputs(BRAIDED[name]())[kind]
    c = _cells_category(kind, x)
    laws = set()
    for table, cells in _tables(kind, x).items():
        for key, f in _items(cells):
            for g in _same_typed(c, f)[:1]:
                changed = _with(kind, x, table, key, g)
                got, want = _counts(compositions, kind, changed)
                assert got == want, (table, key)
                outcome = _outcome(CHECKS[kind][1], changed)
                if isinstance(outcome, list):
                    laws.update(v.law for v in outcome)
    if name == "semion":
        assert laws, "some change is reported"
