"""check_enriched_monoidal decides the tensor background and the
associator's background from a validated braided base, and on a thin base
the associator's naturality from typing; compared with the exhaustive oracle
that always re-checks the backgrounds, builds the composites eagerly and
enumerates both routes of every naturality square."""

import dataclasses
import itertools
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ecat.enriched
import ecat.enriched_monoidal
import ecat.monoidal
from ecat.actions import monoidal_self_module
from ecat.canonical import canonical_monoidal
from ecat.centers import e0_center
from ecat.core import FinCategory, Functor, check_category, product_category
from ecat.enriched import (
    EnrichedCategory,
    cartesian_product_enriched,
    check_enriched_functor,
    check_enriched_nat,
)
from ecat.enriched_monoidal import (
    EnrichedBraidedCategory,
    braiding_nat,
    check_enriched_monoidal,
    check_enriched_monoidal_functor,
    identity_enriched_monoidal_functor,
    one_object_enriched_monoidal,
    reversed_enriched_monoidal,
)
from ecat.monoidal import (
    AlgebraObject,
    BraidedStructure,
    LaxMonoidalFunctor,
    MonoidalCategory,
    _is_monoidal,
    braided_tensor_lax_structure,
    check_braided,
    check_lax_monoidal_nat,
    check_monoidal,
)
from ecat.report import StructureError, ValidationReport, Violation

from helpers import (
    chain2_enriched,
    chain3_monoidal,
    eager_compose_lax,
    exhaustive_associator_nat,
    exhaustive_check_enriched_monoidal,
    identity_braiding,
    lattice2_monoidal,
    lattice4_monoidal,
    lattice8_monoidal,
    meet_semilattice_monoidal,
    meet_semilattices,
    preorder_enriched_monoidal,
    semion_enriched_monoidal,
    sign_algebra,
    sign_monoidal,
    z2_discrete_monoidal,
    z2_enriched,
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
ALL = {
    **VALID,
    "e0-chain2": e0_center(chain2_enriched(), 10**6).category,
    "e0-z2": e0_center(z2_enriched(), 10**6).category,
}


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


@pytest.mark.parametrize("name", ALL)
def test_check_enriched_monoidal_matches_oracle_on_valid_inputs(name):
    assert _same_as_oracle(ALL[name]).ok


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


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("table", ["associator", "left-unitor", "right-unitor", "tensor"])
def test_check_enriched_monoidal_matches_oracle_on_seeded_mutations(name, table):
    # Up to four entries of the table, each replaced by up to two of the
    # other morphisms of its type and one of another type, drawn with a
    # seed fixed per case. A same-typed change of a coherence element
    # passes every section before the naturality squares, so it reaches the
    # associator nat; a tensor change fails the tensor laws first.
    em = ALL[name]
    c = em.host.base.base
    rng = random.Random(f"{name}/{table}")
    entries = _entries(em, table)
    for key, f in rng.sample(entries, min(4, len(entries))):
        same = _same_typed(c, f)
        for g in rng.sample(same, min(2, len(same))) + _mistyped(c, f):
            _same_as_oracle(_with_entry(em, table, key, g))


def _counting_exhaustive_nat(monkeypatch) -> list:
    """Patch the exhaustive enriched-nat check seen by
    check_enriched_monoidal to record the object count of each source."""
    calls = []
    check = ecat.enriched_monoidal.check_enriched_nat

    def counting(n):
        calls.append(n.source.source.n_objects)
        return check(n)

    monkeypatch.setattr(ecat.enriched_monoidal, "check_enriched_nat", counting)
    return calls


# The braided fixtures: semion and its reverse (over the anti-braiding)
# are braided and not symmetric, the others symmetric. s3 has no braiding
# (test_s3_has_no_braiding_components), and lattice-8's eager composites
# hold 262,144 mult cells each, too slow for this suite.
BRAIDED = {
    "semion": VALID["semion"],
    "reversed-semion": VALID["reversed-semion"],
    "preorder": VALID["preorder"],
    "canonical-z2": VALID["canonical-z2"],
    "canonical-lattice2": VALID["canonical-lattice2"],
    "canonical-lattice4": VALID["canonical-lattice4"],
    "canonical-chain3": VALID["canonical-chain3"],
}


@pytest.mark.parametrize("name", BRAIDED)
def test_the_associator_background_is_a_monoidal_nat_on_every_braided_base(name):
    # Joyal–Street: in a braided monoidal category the associator is a
    # monoidal nat between the two composites of the tensor with its
    # mid-swap cells, so check_enriched_monoidal need not check it. Checked
    # here on the eager composites, in full.
    em = BRAIDED[name]
    assert check_monoidal(em.host.base).ok and check_braided(em.braiding).ok
    assert check_lax_monoidal_nat(exhaustive_associator_nat(em).background).ok


def test_canonical_lattice8_passes_check_enriched_monoidal():
    assert check_enriched_monoidal(_canonical(lattice8_monoidal)).ok


def _residuated(masks):
    """Whether every pair x, y of the masks has a largest z with z & x
    included in y, that is an internal hom [x, y] of the self-module."""
    for x, y in itertools.product(masks, repeat=2):
        below = [z for z in masks if z & x & ~y == 0]
        if not any(all(w & ~z == 0 for w in below) for z in below):
            return False
    return True


@settings(deadline=None, max_examples=15)
@given(meet_semilattices())
@example([0, 1, 2, 3])
@example([0, 1, 2, 4, 7])  # 1 -> 0 has no residual: 2 and 4 are both maximal
def test_meet_semilattice_canonical_categories_are_enriched_monoidal(masks):
    # the canonical construction exists exactly on residuated draws
    if not _residuated(masks):
        with pytest.raises(StructureError, match="internal hom missing"):
            _canonical(lambda: meet_semilattice_monoidal(masks))
        return
    em = _canonical(lambda: meet_semilattice_monoidal(masks))
    report = check_enriched_monoidal(em)
    assert report.ok
    if len(masks) <= 4:
        assert report.violations == exhaustive_check_enriched_monoidal(em).violations


# --- the thin-base rule for the associator ---

THIN = (
    "preorder",
    "reversed-preorder",
    "canonical-lattice2",
    "canonical-lattice4",
    "canonical-chain3",
    "canonical-z2",
    "e0-chain2",
    "e0-z2",
)


def test_the_thin_base_rule_applies_to_the_thin_fixtures_only():
    # so the oracle tests on the other fixtures check the associator nat
    for name, em in ALL.items():
        assert em.host.base.base.thin == (name in THIN), name


@pytest.mark.parametrize("name", THIN)
def test_a_thin_base_builds_no_associator_nat(name, monkeypatch):
    calls = _counting_exhaustive_nat(monkeypatch)
    squares = []
    square = ecat.enriched._nat_square

    def recording(nat, x, y):
        squares.append(nat.source.source.n_objects)
        return square(nat, x, y)

    def unbuilt(em):
        raise AssertionError("the associator nat is built")

    monkeypatch.setattr(ecat.enriched, "_nat_square", recording)
    monkeypatch.setattr(ecat.enriched_monoidal, "associator_nat", unbuilt)
    em = ALL[name]
    assert check_enriched_monoidal(em).ok
    n = em.host.n_objects
    assert calls == [n, n]  # the two unitors only, never the n**3 cube
    assert len(squares) == 2 * n * n and set(squares) == {n}


@pytest.mark.parametrize("name", sorted(set(ALL) - set(THIN)))
def test_a_non_thin_base_checks_the_associator_nat(name, monkeypatch):
    calls = _counting_exhaustive_nat(monkeypatch)
    em = ALL[name]
    assert check_enriched_monoidal(em).ok
    n = em.host.n_objects
    assert calls == [n**3, n, n]


@pytest.mark.parametrize("name", THIN)
def test_a_negative_associator_element_on_a_thin_base_is_reported_as_by_the_oracle(name):
    # f - |mor B| would read as f wherever it indexes a table; the typing
    # loop reports it out of range instead of reading it
    em = ALL[name]
    c = em.host.base.base
    key, f = _entries(em, "associator")[-1]
    mutated = _with_entry(em, "associator", key, f - c.n_morphisms)
    report = check_enriched_monoidal(mutated)
    assert [(v.law, v.instance) for v in report.violations] == [("associator-typing", key)]
    assert report.violations == exhaustive_check_enriched_monoidal(mutated).violations


def test_a_failed_associator_square_matches_the_oracle(monkeypatch):
    em = VALID["semion"]
    c = em.host.base.base
    key, f = _entries(em, "associator")[5]
    mutated = _with_entry(em, "associator", key, _same_typed(c, f)[0])
    calls = _counting_exhaustive_nat(monkeypatch)
    report = check_enriched_monoidal(mutated)
    assert "associator:enriched-nat-square" in report.laws()
    assert calls == [8, 2, 2]
    assert report.violations == exhaustive_check_enriched_monoidal(mutated).violations


def test_a_dirty_earlier_section_still_checks_the_associator_nat(monkeypatch):
    # a wrong tensor component: the associator is checked in full
    em = VALID["semion"]
    c = em.host.base.base
    key, f = _entries(em, "tensor")[3]
    mutated = _with_entry(em, "tensor", key, _same_typed(c, f)[0])
    calls = _counting_exhaustive_nat(monkeypatch)
    report = check_enriched_monoidal(mutated)
    assert "tensor:enriched-functor-composition" in report.laws()
    assert calls == [8, 2, 2]


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


def test_the_base_verdict_is_decided_once_per_monoidal_category(monkeypatch):
    calls = []
    check = ecat.monoidal.check_monoidal

    def counting(m):
        calls.append(m)
        return check(m)

    # the binding _is_monoidal calls; the underlying monoidal category, built
    # afresh on every check, goes through ecat.enriched_monoidal's binding
    monkeypatch.setattr(ecat.monoidal, "check_monoidal", counting)
    em = _canonical(lattice4_monoidal)
    m = em.host.base
    for _ in range(3):
        assert check_enriched_monoidal(em).ok
    assert calls == [m] and calls[0] is m
    del calls[:]
    assert _is_monoidal(m) and calls == []
    copy = dataclasses.replace(m)
    assert copy == m and _is_monoidal(copy)
    assert len(calls) == 1 and calls[0] is copy
    broken = _with_entry(em, "base-left-unitor", 0, 1).host.base
    assert not _is_monoidal(broken)
    assert _is_monoidal(m)


def test_kept_verdicts_are_a_field_that_replace_starts_empty():
    m = lattice4_monoidal()
    # set in __init__, so a verdict written later adds no instance attribute
    assert vars(m)["_kept"] == {}
    assert _is_monoidal(m) and m._kept == {_is_monoidal.__wrapped__: True}
    copy = dataclasses.replace(m)
    assert copy == m and copy._kept == {}
    (f,) = [f for f in dataclasses.fields(MonoidalCategory) if f.name == "_kept"]
    assert not (f.init or f.compare or f.repr)
    assert "_kept" not in repr(m)


def test_the_pinned_background_is_built_once_per_braided_structure(monkeypatch):
    # the build makes one lazy table of mult cells; record the b it builds for
    builds = []
    table = ecat.monoidal.LazyPairTable

    def counting(n, entry):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "braided_tensor_lax_structure":
            builds.append(frame.f_locals["b"])
        return table(n, entry)

    em = _canonical(lattice4_monoidal)
    # a copy of the braiding has built nothing yet
    em = dataclasses.replace(em, braiding=dataclasses.replace(em.braiding))
    monkeypatch.setattr(ecat.monoidal, "LazyPairTable", counting)
    for _ in range(3):
        assert check_enriched_monoidal(em).ok
    assert builds == [em.braiding] and builds[0] is em.braiding
    copy = dataclasses.replace(em.braiding)
    assert braided_tensor_lax_structure(copy) == em.tensor.background
    assert len(builds) == 2 and builds[1] is copy


# --- readers of lazy composite mult cells behave as on the eager build ---


def _outcome(run):
    """The violations run() reports, or the type and message it raises."""
    try:
        return ("report", tuple(run().violations))
    except Exception as err:
        return ("raise", type(err).__name__, str(err))


def _composite_readers(em):
    """Checks that build composites of em's tensor and read their mult
    cells: the associator fallback, the braiding nat and the coherence nats
    of the identity monoidal functor."""
    e = em.host
    braiding_el = {
        (x, y): e.one(em.t(x, y)) for x, y in itertools.product(e.objects(), repeat=2)
    }
    eb = EnrichedBraidedCategory(em, braiding_el, True)
    return [
        lambda: check_enriched_monoidal(em),
        lambda: check_enriched_nat(braiding_nat(eb)),
        lambda: check_enriched_monoidal_functor(identity_enriched_monoidal_functor(em)),
    ]


@pytest.mark.parametrize("name", ["preorder", "semion"])
@pytest.mark.parametrize("table", ["base-braiding", "background"])
def test_composite_readers_raise_or_report_as_the_eager_composites_did(
    name, table, monkeypatch
):
    # A mistyped base braiding cell cannot be pinned into a background, so
    # the tensor keeps its old one and the check raises or reports before
    # any composite; a mistyped background cell makes the composite mult
    # cells uncomposable, and each reader raises the error, and the
    # message, that the eager build raised.
    em = VALID[name]
    c = em.host.base.base
    lazy = ecat.enriched.compose_lax
    kinds = set()
    for key, f in _entries(em, table):
        for g in _mistyped(c, f):
            for run in _composite_readers(_with_entry(em, table, key, g)):
                monkeypatch.setattr(ecat.enriched, "compose_lax", eager_compose_lax)
                want = _outcome(run)
                monkeypatch.setattr(ecat.enriched, "compose_lax", lazy)
                assert _outcome(run) == want
                kinds.add(want[0])
    assert "raise" in kinds


# --- the thin gate: the tensor's composition law decided from typing ---

THIN_VALID = [name for name in THIN if name in VALID]


def _over_host(em, host):
    """em on another host, its tensor moved onto the host's cartesian square."""
    tensor = dataclasses.replace(
        em.tensor, source=cartesian_product_enriched(host, host), target=host
    )
    return dataclasses.replace(em, host=host, tensor=tensor)


def _ungated(em):
    """Changes of em under which the thin gate must not fire: a mistyped
    host composition element (the first and the last), a mistyped host
    identity element, a mistyped background cell, and a background that is
    not the pinned one although it is a lax monoidal functor."""
    e = em.host
    c = e.base.base
    bg = em.tensor.background
    out = {}
    for i in (0, -1):
        key, f = list(e.comp.items())[i]
        comp = _set(e.comp, key, _mistyped(c, f)[0])
        out[f"comp{key}"] = _over_host(em, dataclasses.replace(e, comp=comp))
    key, f = list(e.ident.items())[-1]
    ident = _set(e.ident, key, _mistyped(c, f)[0])
    out[f"ident{key}"] = _over_host(em, dataclasses.replace(e, ident=ident))
    key, f = _entries(em, "background")[-1]
    out[f"background{key}"] = _with_entry(em, "background", key, _mistyped(c, f)[0])
    lax = dataclasses.replace(bg, direction="lax")
    out["lax-background"] = dataclasses.replace(
        em, tensor=dataclasses.replace(em.tensor, background=lax)
    )
    return out


@pytest.mark.parametrize("name", THIN_VALID)
def test_the_thin_gate_does_not_fire_where_a_host_or_background_cell_is_wrong(name):
    # each change is reported (or raised on) exactly as by the oracle, which
    # reads every square; the mistyped host compositions show the ones the
    # gate would skip
    outcomes = {}
    for label, em in _ungated(VALID[name]).items():
        want = _outcome(lambda: exhaustive_check_enriched_monoidal(em))
        assert _outcome(lambda: check_enriched_monoidal(em)) == want, label
        outcomes[label] = want
    assert outcomes["lax-background"] == (
        "report", (Violation("tensor-background-convention", ()),)
    )
    assert all(want != ("report", ()) for want in outcomes.values())


def _tensor_reads(monkeypatch, em) -> list:
    """Record each read of a mult cell of em's tensor background and of a
    composition cell of the tensor's source."""
    reads = []
    m2, comp = LaxMonoidalFunctor.m2, EnrichedCategory.c

    def counting_m2(f, x, y):
        if f is em.tensor.background:
            reads.append(("m2", x, y))
        return m2(f, x, y)

    def counting_c(e, x, y, z):
        if e is em.tensor.source:
            reads.append(("c", x, y, z))
        return comp(e, x, y, z)

    monkeypatch.setattr(LaxMonoidalFunctor, "m2", counting_m2)
    monkeypatch.setattr(EnrichedCategory, "c", counting_c)
    return reads


@pytest.mark.parametrize("name", THIN_VALID)
def test_a_thin_base_reads_no_square_of_the_tensor_composition_law(name, monkeypatch):
    em = VALID[name]
    reads = _tensor_reads(monkeypatch, em)
    assert check_enriched_monoidal(em).ok
    assert reads == []
    # the bindings counted are the ones the composition loop reads
    report = ValidationReport("enriched functor")
    ecat.enriched._check_enriched_functor_composition(em.tensor, report)
    assert report.ok
    n = em.tensor.source.n_objects
    assert sum(r[0] == "c" for r in reads) == sum(r[0] == "m2" for r in reads) == n**3


def test_a_non_thin_base_reads_every_square_of_the_tensor_composition_law(monkeypatch):
    em = VALID["semion"]
    reads = _tensor_reads(monkeypatch, em)
    assert check_enriched_monoidal(em).ok
    n = em.tensor.source.n_objects
    assert sum(r[0] == "c" for r in reads) >= n**3
