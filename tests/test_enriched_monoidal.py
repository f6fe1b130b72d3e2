import dataclasses
import itertools

import pytest

from ecat.enriched import (
    EnrichedNat,
    check_enriched_nat,
    underlying_category,
)
from ecat.enriched_monoidal import (
    EnrichedBraidedCategory,
    EnrichedHalfBraiding,
    check_enriched_braided,
    check_enriched_half_braiding,
    check_enriched_monoidal,
    check_enriched_monoidal_functor,
    check_enriched_monoidal_nat,
    check_enriched_symmetric,
    enumerate_enriched_half_braidings,
    identity_enriched_monoidal_functor,
    one_object_enriched_monoidal,
    one_object_enriched_monoidal_functor,
    reversed_enriched_monoidal,
    underlying_monoidal,
)
from ecat.monoidal import (
    check_braided,
    check_half_braiding,
    check_monoidal,
    identity_lax,
    identity_lax_nat,
    inv,
    reversed_monoidal,
)
from ecat.report import StructureError

from helpers import (
    anti_braided_reversal,
    identity_braiding,
    lattice4_monoidal,
    preorder_enriched_monoidal,
    semion_braiding,
    semion_enriched_monoidal,
    semion_monoidal,
    sign_algebra,
    sign_monoidal,
)


def sign_ast(mult, unit):
    alg = sign_algebra(mult, unit)
    return one_object_enriched_monoidal(alg, identity_braiding(alg.host))


def test_semion_base_is_braided_not_symmetric():
    b = semion_braiding()
    assert check_monoidal(b.host).ok
    assert check_braided(b).ok
    forced = dataclasses.replace(b, symmetric_flag=True)
    rep = check_braided(forced)
    assert any(v.law == "symmetry" for v in rep.violations)


@pytest.mark.parametrize("mult,unit", [(0, 0), (1, 1)])
def test_one_object_from_commutative_algebra(mult, unit):
    em = sign_ast(mult, unit)
    assert check_enriched_monoidal(em).ok


def test_one_object_from_broken_algebra_reported():
    alg = sign_algebra(1, 0)
    em = one_object_enriched_monoidal(alg, identity_braiding(alg.host))
    rep = check_enriched_monoidal(em)
    assert not rep.ok


def test_preorder_enriched_monoidal_valid():
    assert check_enriched_monoidal(preorder_enriched_monoidal()).ok


def test_semion_self_enrichment_valid():
    assert check_enriched_monoidal(semion_enriched_monoidal()).ok


def test_background_convention_mismatch_reported():
    em = sign_ast(0, 0)
    bg = em.tensor.background
    cells = dict(bg.mult)
    cells[(0, 0)] = 1 - cells[(0, 0)]
    bad_bg = dataclasses.replace(bg, mult=cells)
    bad = dataclasses.replace(
        em, tensor=dataclasses.replace(em.tensor, background=bad_bg)
    )
    rep = check_enriched_monoidal(bad)
    assert any(v.law == "tensor-background-convention" for v in rep.violations)


def test_mistyped_tensor_cell_reported_not_raised():
    from ecat.actions import monoidal_self_module
    from ecat.canonical import canonical_monoidal

    m = lattice4_monoidal()
    em = canonical_monoidal(monoidal_self_module(identity_braiding(m)))
    c = m.base
    cells = dict(em.tensor.components)
    key = (1 * 4 + 2, 3 * 4 + 3)
    cell = cells[key]
    cells[key] = next(
        f for f in c.morphisms() if (c.dom[f], c.cod[f]) != (c.dom[cell], c.cod[cell])
    )
    bad = dataclasses.replace(em, tensor=dataclasses.replace(em.tensor, components=cells))
    rep = check_enriched_monoidal(bad)
    assert [(v.law, v.instance) for v in rep.violations] == [
        ("tensor:enriched-functor-typing", key)
    ]


def test_extraction_validation_consistency():
    for em in (sign_ast(1, 1), preorder_enriched_monoidal(), semion_enriched_monoidal()):
        assert check_enriched_monoidal(em).ok
        assert check_monoidal(underlying_monoidal(em)).ok


def test_underlying_of_semion_enrichment_is_the_semion_category():
    um = underlying_monoidal(semion_enriched_monoidal())
    assert um == semion_monoidal()


@pytest.mark.parametrize(
    "build", [lambda: sign_ast(1, 1), preorder_enriched_monoidal, semion_enriched_monoidal]
)
def test_reversed_is_enriched_monoidal(build):
    em = build()
    rev = reversed_enriched_monoidal(em)
    assert check_enriched_monoidal(rev).ok


@pytest.mark.parametrize(
    "build", [lambda: sign_ast(0, 0), preorder_enriched_monoidal, semion_enriched_monoidal]
)
def test_reversed_twice_is_identity(build):
    em = build()
    assert reversed_enriched_monoidal(reversed_enriched_monoidal(em)) == em


@pytest.mark.parametrize("mult,unit", [(0, 0), (1, 1)])
def test_reversed_one_object_is_itself(mult, unit):
    em = sign_ast(mult, unit)
    assert reversed_enriched_monoidal(em) == em


def test_underlying_of_reversed_is_reversed_underlying():
    em = semion_enriched_monoidal()
    assert underlying_monoidal(reversed_enriched_monoidal(em)) == reversed_monoidal(
        underlying_monoidal(em)
    )


def test_reversed_with_anti_braiding_is_ill_defined():
    em = semion_enriched_monoidal()
    bad = anti_braided_reversal(em)
    rep = check_enriched_monoidal(bad)
    assert not rep.ok
    assert any(v.law.startswith("tensor:") for v in rep.violations)


def test_identity_functor_valid():
    for em in (sign_ast(1, 1), preorder_enriched_monoidal(), semion_enriched_monoidal()):
        assert check_enriched_monoidal_functor(identity_enriched_monoidal_functor(em)).ok


def test_one_object_functor_from_algebra_map():
    src, tgt = sign_ast(0, 0), sign_ast(1, 1)
    fhat = identity_lax(src.host.base)
    good = one_object_enriched_monoidal_functor(src, tgt, fhat, 1, 1)
    assert check_enriched_monoidal_functor(good).ok
    bad_unit = one_object_enriched_monoidal_functor(src, tgt, fhat, 1, 0)
    assert not check_enriched_monoidal_functor(bad_unit).ok


def test_functor_tensor_coherence_mismatch_reported():
    em = sign_ast(1, 1)
    f = identity_enriched_monoidal_functor(em)
    bad = dataclasses.replace(f, f2={(0, 0): 1 - f.f2[(0, 0)]})
    rep = check_enriched_monoidal_functor(bad)
    assert not rep.ok


def test_identity_nat_valid():
    em = sign_ast(1, 1)
    f = identity_enriched_monoidal_functor(em)
    xi = EnrichedNat(
        identity_lax_nat(f.functor.background),
        f.functor,
        f.functor,
        {0: em.host.one(0)},
    )
    assert check_enriched_monoidal_nat(xi, f, f).ok


def test_broken_underlying_monoidality_reported():
    em = sign_ast(0, 0)
    f = identity_enriched_monoidal_functor(em)
    xi = EnrichedNat(
        identity_lax_nat(f.functor.background), f.functor, f.functor, {0: 1}
    )
    rep = check_enriched_monoidal_nat(xi, f, f)
    assert check_enriched_nat(xi).ok
    assert not rep.ok
    assert any(v.law.startswith("underlying:monoidal-nat") for v in rep.violations)


def test_one_object_nats_are_characterized_by_unit_coherences():
    # a transformation between one-object functors is valid exactly when its
    # single component is G0 composed with the inverse of F0 downstairs
    src, tgt = sign_ast(0, 0), sign_ast(1, 1)
    fhat = identity_lax(src.host.base)
    f = one_object_enriched_monoidal_functor(src, tgt, fhat, 1, 1)
    um = underlying_monoidal(tgt)
    u = underlying_category(tgt.host)
    f0_mor = u.index[(0, 0, f.f0)]
    expected = u.elements[um.base.comp(f0_mor, inv(um, f0_mor))][2]
    for el in range(tgt.host.base.base.n_morphisms):
        if el not in [e for _, _, e in u.elements]:
            continue
        xi = EnrichedNat(
            identity_lax_nat(fhat), f.functor, f.functor, {0: el}
        )
        ok = check_enriched_monoidal_nat(xi, f, f).ok
        assert ok == (el == expected)


def test_enriched_braided_one_object_symmetric():
    em = sign_ast(1, 1)
    eb = EnrichedBraidedCategory(em, {(0, 0): em.host.one(0)}, True)
    assert check_enriched_braided(eb).ok
    assert check_enriched_symmetric(eb).ok


def test_enriched_braided_preorder():
    em = preorder_enriched_monoidal()
    el = em.associator[(0, 0, 0)]
    eb = EnrichedBraidedCategory(
        em, {p: el for p in itertools.product(range(2), repeat=2)}, True
    )
    assert check_enriched_braided(eb).ok
    assert check_enriched_symmetric(eb).ok


def test_enriched_braided_needs_symmetric_base():
    em = semion_enriched_monoidal()
    eb = EnrichedBraidedCategory(em, {}, False)
    with pytest.raises(StructureError):
        check_enriched_braided(eb)


def test_symmetric_flag_required_for_symmetry_check():
    em = sign_ast(1, 1)
    eb = EnrichedBraidedCategory(em, {(0, 0): em.host.one(0)}, False)
    rep = check_enriched_symmetric(eb)
    assert any(v.law == "symmetric-flag" for v in rep.violations)


def test_half_braidings_one_object():
    em = sign_ast(1, 1)
    found = enumerate_enriched_half_braidings(em, 0)
    assert [h.components for h in found] == [{0: em.host.one(0)}]


def test_half_braidings_thin_at_most_one_per_object():
    em = preorder_enriched_monoidal()
    for x in range(2):
        found = enumerate_enriched_half_braidings(em, x)
        assert len(found) <= 1


def test_unit_object_always_has_a_half_braiding():
    for em in (sign_ast(0, 0), preorder_enriched_monoidal(), semion_enriched_monoidal()):
        found = enumerate_enriched_half_braidings(em, em.unit_obj)
        assert found


def test_enumerated_half_braidings_pass_both_axiom_families():
    em = semion_enriched_monoidal()
    um = underlying_monoidal(em)
    total = 0
    for x in range(2):
        for hb in enumerate_enriched_half_braidings(em, x):
            total += 1
            assert check_enriched_half_braiding(em, hb).ok
            from ecat.enriched_monoidal import underlying_half_braiding

            assert check_half_braiding(um, underlying_half_braiding(em, hb)).ok
    assert total > 0


def test_half_braiding_with_wrong_component_rejected():
    em = semion_enriched_monoidal()
    found = enumerate_enriched_half_braidings(em, 1)
    assert found
    hb = found[0]
    broken = EnrichedHalfBraiding(
        1, {z: (el // 4) * 4 + (el + 1) % 4 for z, el in hb.components.items()}
    )
    assert not check_enriched_half_braiding(em, broken).ok
