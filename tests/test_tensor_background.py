"""check_enriched_monoidal decides the tensor background from a validated
braided base; compared with the exhaustive oracle that always re-checks it."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecat.enriched
from ecat.actions import monoidal_self_module
from ecat.canonical import canonical_monoidal
from ecat.core import FinCategory, Functor, check_category, product_category
from ecat.enriched import cartesian_product_enriched, check_enriched_functor
from ecat.enriched_monoidal import (
    check_enriched_monoidal,
    one_object_enriched_monoidal,
    reversed_enriched_monoidal,
)
from ecat.monoidal import (
    AlgebraObject,
    BraidedStructure,
    MonoidalCategory,
    braided_tensor_lax_structure,
    check_braided,
    check_monoidal,
)
from ecat.report import StructureError

from helpers import (
    chain3_monoidal,
    exhaustive_check_enriched_monoidal,
    identity_braiding,
    lattice2_monoidal,
    lattice4_monoidal,
    preorder_enriched_monoidal,
    semion_enriched_monoidal,
    sign_algebra,
    sign_monoidal,
    z2_discrete_monoidal,
)


def _sign_ast(mult, unit):
    alg = sign_algebra(mult, unit)
    return one_object_enriched_monoidal(alg, identity_braiding(alg.host))


def _canonical(build):
    return canonical_monoidal(monoidal_self_module(identity_braiding(build())))


def _valid():
    valid = {
        "sign-ast-00": _sign_ast(0, 0),
        "sign-ast-11": _sign_ast(1, 1),
        "preorder": preorder_enriched_monoidal(),
        "semion": semion_enriched_monoidal(),
        "canonical-lattice2": _canonical(lattice2_monoidal),
        "canonical-lattice4": _canonical(lattice4_monoidal),
        "canonical-chain3": _canonical(chain3_monoidal),
        "canonical-z2": _canonical(z2_discrete_monoidal),
    }
    for name in ("sign-ast-11", "preorder", "semion"):
        valid["reversed-" + name] = reversed_enriched_monoidal(valid[name])
    return valid


VALID = _valid()
SMALL = ("sign-ast-11", "preorder", "semion", "canonical-lattice2", "reversed-semion")


def _same_as_oracle(em):
    """Assert that check_enriched_monoidal reports what the oracle reports,
    violation for violation, or raises the oracle's exception type. Returns
    the oracle's report, or None when it raises."""
    try:
        want = exhaustive_check_enriched_monoidal(em)
    except Exception as err:
        with pytest.raises(Exception) as got:
            check_enriched_monoidal(em)
        assert type(got.value) is type(err)
        return None
    assert check_enriched_monoidal(em).violations == want.violations
    return want


# --- one-entry mutations of the tables an enriched monoidal category reads ---

TABLES = (
    "associator",
    "left-unitor",
    "right-unitor",
    "tensor",
    "background",
    "base-braiding",
    "base-associator",
    "base-left-unitor",
    "base-right-unitor",
)


def _entries(em, table):
    """The (key, morphism) entries of one table of em."""
    m = em.host.base
    return list({
        "associator": lambda: em.associator.items(),
        "left-unitor": lambda: enumerate(em.left_unitor),
        "right-unitor": lambda: enumerate(em.right_unitor),
        "tensor": lambda: em.tensor.components.items(),
        "background": lambda: em.tensor.background.mult.items(),
        "base-braiding": lambda: em.braiding.braiding.items(),
        "base-associator": lambda: m.associator.items(),
        "base-left-unitor": lambda: enumerate(m.left_unitor),
        "base-right-unitor": lambda: enumerate(m.right_unitor),
    }[table]())


def _set(table, key, g):
    if isinstance(table, tuple):
        return table[:key] + (g,) + table[key + 1:]
    return {**table, key: g}


def _over_base(em, m, braiding):
    """em moved onto the base m with the given braiding cells; the tensor
    background is the one pinned by that braiding, when it can be built."""
    b = BraidedStructure(m, braiding, em.braiding.symmetric_flag)
    host = dataclasses.replace(em.host, base=m)
    try:
        background = braided_tensor_lax_structure(b)
    except (KeyError, IndexError, StructureError):
        background = em.tensor.background
    tensor = dataclasses.replace(
        em.tensor,
        background=background,
        source=cartesian_product_enriched(host, host),
        target=host,
    )
    return dataclasses.replace(em, host=host, braiding=b, tensor=tensor)


def _with_entry(em, table, key, g):
    """A copy of em with one entry of one table set to g."""
    if table == "associator":
        return dataclasses.replace(em, associator=_set(em.associator, key, g))
    if table in ("left-unitor", "right-unitor"):
        field = table.replace("-", "_")
        return dataclasses.replace(em, **{field: _set(getattr(em, field), key, g)})
    if table == "tensor":
        tensor = dataclasses.replace(em.tensor, components=_set(em.tensor.components, key, g))
        return dataclasses.replace(em, tensor=tensor)
    if table == "background":
        bg = em.tensor.background
        bg = dataclasses.replace(bg, mult=_set(dict(bg.mult), key, g))
        return dataclasses.replace(em, tensor=dataclasses.replace(em.tensor, background=bg))
    m = em.host.base
    if table == "base-braiding":
        return _over_base(em, m, _set(em.braiding.braiding, key, g))
    if table == "base-associator":
        m = dataclasses.replace(m, associator=_set(dict(m.associator), key, g))
    else:
        field = table[len("base-"):].replace("-", "_")
        m = dataclasses.replace(m, **{field: _set(tuple(getattr(m, field)), key, g)})
    return _over_base(em, m, em.braiding.braiding)


def _same_typed(c, f):
    return [g for g in c.hom(c.dom[f], c.cod[f]) if g != f]


def _mistyped(c, f):
    """The first morphism of another type than f, as a list (empty if none)."""
    return [g for g in c.morphisms() if (c.dom[g], c.cod[g]) != (c.dom[f], c.cod[f])][:1]


def _changed(c, f):
    """Every other morphism of f's type, and one of another type."""
    return _same_typed(c, f) + _mistyped(c, f)


def _laws(em, table, replacements, step=1):
    """Compare the one-entry mutations of table (of every step-th entry)
    with the oracle; return the laws the oracle reported on them."""
    c = em.host.base.base
    laws = set()
    for key, f in _entries(em, table)[::step]:
        for g in replacements(c, f):
            want = _same_as_oracle(_with_entry(em, table, key, g))
            if want is not None:
                laws.update(want.laws())
    return laws


@pytest.mark.parametrize("name", VALID)
def test_check_enriched_monoidal_matches_oracle_on_valid_inputs(name):
    assert _same_as_oracle(VALID[name]).ok


@pytest.mark.parametrize("name", SMALL + ("canonical-z2",))
@pytest.mark.parametrize("table", ["associator", "left-unitor", "right-unitor"])
def test_check_enriched_monoidal_matches_oracle_on_coherence_element_mutations(name, table):
    em = VALID[name]
    assert _laws(em, table, _changed)


@pytest.mark.parametrize("name", ["semion", "canonical-lattice4"])
def test_check_enriched_monoidal_matches_oracle_on_tensor_component_mutations(name):
    em = VALID[name]
    # lattice-4 has 256 components and is thin: every change mistypes one
    mistyped = _laws(em, "tensor", _mistyped, step=1 if name == "semion" else 37)
    assert mistyped == {"tensor:enriched-functor-typing"}
    if name == "semion":
        assert "tensor:enriched-functor-composition" in _laws(em, "tensor", _same_typed)


@pytest.mark.parametrize("name", ["sign-ast-00", "semion"])
def test_check_enriched_monoidal_matches_oracle_on_background_mutations(name):
    laws = _laws(VALID[name], "background", _same_typed, step=3)
    assert "tensor-background-convention" in laws


@pytest.mark.parametrize("name", ["sign-ast-11", "semion"])
def test_check_enriched_monoidal_matches_oracle_on_base_braiding_mutations(name):
    # semion's other braiding (phase 3 at (1, 1)) passes check_braided, so
    # the shortcut decides its background; every other change fails it
    laws = _laws(VALID[name], "base-braiding", _changed)
    assert any(law.startswith("base:") for law in laws)


def test_check_enriched_monoidal_matches_oracle_on_base_associator_mutations():
    # A brute-force search over semion, sign, z2, lattice-2, chain-3 and
    # three product bases found no one-entry change of a base associator
    # that passes check_braided: each entry meets isomorphisms on one side
    # only of some hexagon. So these take the full path, and a base unitor
    # shows below why check_monoidal is one of the shortcut's conditions.
    em = VALID["semion"]
    laws = _laws(em, "base-associator", _same_typed)
    assert "base:hexagon-1" in laws


def test_check_enriched_monoidal_needs_the_base_to_pass_check_monoidal():
    # check_braided reads no unitor, so a wrong base unitor passes it; the
    # full check then reports the background's unitality, which the shortcut
    # would have skipped.
    em = VALID["semion"]
    mutated = _with_entry(em, "base-left-unitor", 1, 5)
    m = mutated.host.base
    assert check_braided(mutated.braiding).ok
    assert check_category(m.base).ok
    assert check_monoidal(m).laws() == {"triangle"}
    assert "tensor:lax-left-unitality" in _same_as_oracle(mutated).laws()
    # every same-typed base unitor change matches the oracle too
    _laws(em, "base-left-unitor", _same_typed)
    _laws(em, "base-right-unitor", _same_typed)


def test_check_enriched_monoidal_needs_the_base_to_be_a_category():
    # Found by brute force over one-object bases with two morphisms: the
    # identity law fails (0 . 1 = 0), yet the base passes check_monoidal and
    # check_braided, and the background breaks left unitality.
    c = FinCategory(1, (0, 0), (0, 0), (0,), {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1})
    tensor = Functor(product_category(c, c), c, (0,), (0, 1, 0, 1))
    m = MonoidalCategory(c, tensor, 0, {(0, 0, 0): 0}, (1,), (0,))
    b = BraidedStructure(m, {(0, 0): 0}, False)
    assert not check_category(c).ok
    assert check_monoidal(m).ok and check_braided(b).ok
    em = one_object_enriched_monoidal(AlgebraObject(m, 0, 0, 0), b)
    assert "tensor:lax-left-unitality" in _same_as_oracle(em).laws()


def test_check_enriched_monoidal_needs_the_tensor_out_of_the_product():
    # Keep only the composites with an identity in the tensor's source: the
    # sign tensor that sends (g, g) to g then passes as a functor out of it,
    # and the base passes check_monoidal, but it is no functor out of the
    # product.
    m = sign_monoidal()
    src = m.tensor.source
    ids = set(src.identity)
    src = dataclasses.replace(
        src, compose={k: v for k, v in src.compose.items() if ids.intersection(k)}
    )
    m = dataclasses.replace(m, tensor=Functor(src, m.base, (0,), (0, 1, 1, 1)))
    b = identity_braiding(m)
    assert check_monoidal(m).ok and check_braided(b).ok
    em = one_object_enriched_monoidal(AlgebraObject(m, 0, 0, 0), b)
    assert "tensor:functor-composition" in _same_as_oracle(em).laws()


class _Stop(Exception):
    pass


class _GetRaises(dict):
    """An associator table whose ``get`` raises; indexing still works."""

    def get(self, key, default=None):
        raise _Stop


def test_check_enriched_monoidal_falls_back_when_a_condition_raises():
    # check_monoidal reads the base associator through ``get``; the rest of
    # the check indexes it, so the report must not change.
    em = VALID["semion"]
    m = em.host.base
    m = dataclasses.replace(m, associator=_GetRaises(m.associator))
    mutated = _over_base(em, m, em.braiding.braiding)
    with pytest.raises(_Stop):
        check_monoidal(m)
    assert _same_as_oracle(mutated).ok


@pytest.mark.parametrize(
    "table", ["associator", "left-unitor", "base-associator", "base-left-unitor"]
)
def test_check_enriched_monoidal_raises_where_the_oracle_raises(table):
    em = VALID["semion"]
    m = em.host.base
    if table == "associator":
        assoc = dict(em.associator)
        del assoc[(1, 0, 1)]
        broken = dataclasses.replace(em, associator=assoc)
    elif table == "left-unitor":
        broken = dataclasses.replace(em, left_unitor=em.left_unitor[:1])
    elif table == "base-associator":
        assoc = dict(m.associator)
        del assoc[(1, 0, 1)]
        broken = _over_base(em, dataclasses.replace(m, associator=assoc), em.braiding.braiding)
    else:
        m = dataclasses.replace(m, left_unitor=m.left_unitor[:1])
        broken = _over_base(em, m, em.braiding.braiding)
    assert _same_as_oracle(broken) is None  # the oracle raised


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(SMALL), st.sampled_from(TABLES), st.data())
def test_check_enriched_monoidal_matches_oracle_on_drawn_mutations(name, table, data):
    em = VALID[name]
    c = em.host.base.base
    key, f = data.draw(st.sampled_from(_entries(em, table)))
    g = data.draw(st.sampled_from([g for g in c.morphisms() if g != f]))
    _same_as_oracle(_with_entry(em, table, key, g))


@pytest.mark.parametrize("name", VALID)
def test_check_enriched_monoidal_does_not_recheck_the_tensor_background(name, monkeypatch):
    calls = []
    check = ecat.enriched.check_lax_monoidal_functor

    def counting(f):
        calls.append(f)
        return check(f)

    monkeypatch.setattr(ecat.enriched, "check_lax_monoidal_functor", counting)
    em = VALID[name]
    assert check_enriched_monoidal(em).ok
    assert calls == []
    check_enriched_functor(em.tensor)  # the binding counted is the one it calls
    assert len(calls) == 1
