import dataclasses
import itertools

import pytest

from ecat.core import Functor, iso_search, product_category
from ecat.monoidal import (
    AlgebraObject,
    BraidedStructure,
    HalfBraidingOrd,
    LaxMonoidalFunctor,
    anti_braiding,
    braided_tensor_lax_structure,
    check_algebra,
    check_braided,
    check_braided_lax_functor,
    check_half_braiding,
    check_lax_monoidal_functor,
    check_lax_monoidal_nat,
    check_monoidal,
    check_rigid,
    compose_lax,
    drinfeld_center_z1,
    enumerate_half_braidings,
    find_left_dual,
    identity_lax,
    identity_lax_nat,
    muger_center_z2,
    muger_centralizer,
    product_monoidal,
    reversed_monoidal,
    strict_monoidal,
    swap_lax,
    unit_pick_lax,
)
from ecat.report import StructureError

from helpers import (
    chain3_monoidal,
    delooping_monoidal,
    identity_braiding,
    lattice2_monoidal,
    lattice4_monoidal,
    s3_discrete_monoidal,
    semion_braiding,
    semion_monoidal,
    sign_monoidal,
    z2_discrete_monoidal,
)

DELOOPINGS = [
    lambda: delooping_monoidal(3),
    lambda: delooping_monoidal(4),
    lambda: delooping_monoidal(2, 2),
]
ALL_MONOIDAL = [
    lattice2_monoidal,
    lattice4_monoidal,
    z2_discrete_monoidal,
    s3_discrete_monoidal,
    sign_monoidal,
    *DELOOPINGS,
]


@pytest.mark.parametrize("build", ALL_MONOIDAL)
def test_fixtures_are_monoidal(build):
    assert check_monoidal(build()).ok


def test_mutated_associator_is_reported():
    m = sign_monoidal()
    bad = dict(m.associator)
    bad[(0, 0, 0)] = 1  # the non-identity endomorphism
    report = check_monoidal(
        type(m)(m.base, m.tensor, m.unit, bad, m.left_unitor, m.right_unitor)
    )
    assert not report.ok
    assert "pentagon" in report.laws() or "triangle" in report.laws()


@pytest.mark.parametrize("g", [9, 14, -1, -9])
def test_an_out_of_range_associator_cell_is_a_typing_violation(g):
    # lattice-4 has 9 morphisms: 9 and 14 used to end the typing read in a
    # bare IndexError, and a negative cell was read from the end of the table
    m = lattice4_monoidal()
    assert m.base.n_morphisms == 9
    bad = {**m.associator, (1, 2, 3): g}
    report = check_monoidal(
        type(m)(m.base, m.tensor, m.unit, bad, m.left_unitor, m.right_unitor)
    )
    assert [(v.law, v.instance) for v in report.violations] == [
        ("associator-typing", (1, 2, 3))
    ]
    assert "out of range" in report.violations[0].detail


def test_mutated_unitor_is_reported():
    m = sign_monoidal()
    report = check_monoidal(
        type(m)(m.base, m.tensor, m.unit, m.associator, (1,), m.right_unitor)
    )
    assert not report.ok
    assert "triangle" in report.laws() or "unitor-naturality" in report.laws()


def test_product_monoidal_valid():
    p = product_monoidal(lattice2_monoidal(), sign_monoidal())
    assert check_monoidal(p).ok
    assert p.base.n_objects == 2


def test_reversed_monoidal():
    m = lattice4_monoidal()
    r = reversed_monoidal(m)
    assert check_monoidal(r).ok
    assert r.t_obj(1, 2) == m.t_obj(2, 1)
    rr = reversed_monoidal(r)
    assert rr.tensor.obj_map == m.tensor.obj_map
    assert rr.associator == m.associator


@pytest.mark.parametrize(
    "build", [lattice2_monoidal, lattice4_monoidal, z2_discrete_monoidal, sign_monoidal]
)
def test_identity_braiding_valid(build):
    b = identity_braiding(build())
    assert check_braided(b).ok


def test_sign_braiding_forced_trivial():
    # with strict structure the hexagon forces c = c . c, so c must be e
    m = sign_monoidal()
    bad = BraidedStructure(m, {(0, 0): 1})
    report = check_braided(bad)
    assert not report.ok
    assert "hexagon-1" in report.laws()


def test_s3_has_no_braiding_components():
    # a braiding needs a morphism x@y -> y@x; discrete nonabelian groups lack one
    m = s3_discrete_monoidal()
    missing = [
        (x, y)
        for x, y in itertools.product(m.base.objects(), repeat=2)
        if len(m.base.hom(m.t_obj(x, y), m.t_obj(y, x))) == 0
    ]
    assert missing


def test_anti_braiding():
    b = identity_braiding(lattice2_monoidal())
    ab = anti_braiding(b)
    assert check_braided(ab).ok


def test_identity_lax_and_composition():
    m = lattice2_monoidal()
    i = identity_lax(m)
    assert check_lax_monoidal_functor(i).ok
    assert check_lax_monoidal_functor(compose_lax(i, i)).ok
    assert check_lax_monoidal_nat(identity_lax_nat(i)).ok


def test_unit_pick_and_swap():
    m, n = lattice2_monoidal(), sign_monoidal()
    u = unit_pick_lax(m)
    assert check_lax_monoidal_functor(u).ok
    s = swap_lax(m, n)
    assert check_lax_monoidal_functor(s).ok


def test_meet_is_lax_functor_to_sign_fails_typing():
    # a deliberately ill-typed cell must be reported, not crash
    m = sign_monoidal()
    i = identity_lax(m)
    bad = LaxMonoidalFunctor(m, m, i.functor, 1, i.mult, "lax")
    report = check_lax_monoidal_functor(bad)
    assert not report.ok


def test_mutated_mult_cell_reported():
    m = sign_monoidal()
    i = identity_lax(m)
    mult = dict(i.mult)
    mult[(0, 0)] = 1
    bad = LaxMonoidalFunctor(m, m, i.functor, i.unit_cell, mult, "lax")
    report = check_lax_monoidal_functor(bad)
    assert not report.ok
    assert report.laws() & {"lax-associativity", "lax-left-unitality", "lax-right-unitality"}


def test_oplax_direction_is_refused():
    m = lattice4_monoidal()
    i = identity_lax(m)
    op = LaxMonoidalFunctor(m, m, i.functor, i.unit_cell, i.mult, "oplax")
    with pytest.raises(StructureError, match="unknown direction 'oplax'"):
        check_lax_monoidal_functor(op)


def test_braided_tensor_lax_structure():
    # the tensor of a braided monoidal category is strong monoidal
    # (Joyal–Street), symmetric or not; check_enriched_monoidal relies on it
    braidings = [
        identity_braiding(build())
        for build in [
            lattice2_monoidal, z2_discrete_monoidal, sign_monoidal,
            lattice4_monoidal, chain3_monoidal,
        ]
    ]
    for b in braidings + [semion_braiding()]:
        f = braided_tensor_lax_structure(b)
        assert check_lax_monoidal_functor(f).ok


def test_braided_lax_functor_check():
    m = lattice2_monoidal()
    b = identity_braiding(m)
    assert check_braided_lax_functor(identity_lax(m), b, b).ok


def test_sign_algebras():
    # hand computation: unit and mult must coincide, so exactly (e,e) and (g,g)
    m = sign_monoidal()
    good = [
        (mult, unit)
        for mult in (0, 1)
        for unit in (0, 1)
        if check_algebra(AlgebraObject(m, 0, mult, unit)).ok
    ]
    assert good == [(0, 0), (1, 1)]


def test_commutative_algebra_flag():
    m = sign_monoidal()
    b = identity_braiding(m)
    alg = AlgebraObject(m, 0, 1, 1, commutative_flag=True)
    assert check_algebra(alg, b).ok
    with pytest.raises(StructureError):
        check_algebra(alg)


def test_half_braidings_sign():
    # tensor condition forces gamma = gamma + gamma, so only e survives
    m = sign_monoidal()
    hbs = enumerate_half_braidings(m, 0)
    assert len(hbs) == 1
    assert hbs[0].components == {0: 0}


def test_half_braiding_mutation_reported():
    m = sign_monoidal()
    report = check_half_braiding(m, HalfBraidingOrd(0, {0: 1}))
    assert not report.ok
    assert "half-braiding-tensor" in report.laws() or "half-braiding-unit" in report.laws()


@pytest.mark.parametrize(
    "build,n_expected",
    [(lattice2_monoidal, 2), (z2_discrete_monoidal, 2), (sign_monoidal, 1)],
)
def test_drinfeld_center_sizes(build, n_expected):
    z = drinfeld_center_z1(build())
    assert z.monoidal.base.n_objects == n_expected
    assert check_monoidal(z.monoidal).ok
    assert check_braided(z.braided).ok
    assert check_lax_monoidal_functor(z.forgetful).ok


def test_z1_of_discrete_z2_is_discrete_z2():
    m = z2_discrete_monoidal()
    z = drinfeld_center_z1(m)
    found = iso_search(z.monoidal.base, m.base, cap=10**6)
    assert found is not None
    # the iso also matches tensor tables after relabeling
    for i, j in itertools.product(z.monoidal.base.objects(), repeat=2):
        assert found.obj_map[z.monoidal.t_obj(i, j)] == m.t_obj(
            found.obj_map[i], found.obj_map[j]
        )


def test_z1_of_lattice2_is_lattice2():
    m = lattice2_monoidal()
    z = drinfeld_center_z1(m)
    found = iso_search(z.monoidal.base, m.base, cap=10**6)
    assert found is not None


def test_z1_of_sign_keeps_both_endomorphisms():
    z = drinfeld_center_z1(sign_monoidal())
    assert z.monoidal.base.n_morphisms == 2
    assert z.braided.symmetric_flag


@pytest.mark.parametrize("build", DELOOPINGS, ids=["B(Z/3)", "B(Z/4)", "B(Z/2xZ/2)"])
def test_z1_of_a_delooping_has_one_object_and_every_morphism(build):
    """B(A) of an abelian group A has one half-braiding, the trivial one,
    and every element of A respects it, as for sign_monoidal, B(Z/2)."""
    m = build()
    z = drinfeld_center_z1(m)
    assert not m.base.thin
    assert (z.monoidal.base.n_objects, z.monoidal.base.n_morphisms) == (1, m.base.n_morphisms)
    assert check_braided(z.braided).ok and z.braided.symmetric_flag


def test_z1_names_the_half_braiding_it_cannot_find():
    m = semion_monoidal()
    bad = dataclasses.replace(m, associator={**m.associator, (0, 0, 0): 1})
    with pytest.raises(StructureError, match=r"tensor .* not recognized at \(0, 0\)"):
        drinfeld_center_z1(bad)
    m = sign_monoidal()
    with pytest.raises(StructureError, match="unit half-braiding not recognized"):
        drinfeld_center_z1(dataclasses.replace(m, associator={(0, 0, 0): 1}))


def test_muger_center_symmetric_fixture_is_everything():
    for build in [lattice2_monoidal, z2_discrete_monoidal, sign_monoidal]:
        m = build()
        b = identity_braiding(m)
        sub, subbraid, incl = muger_center_z2(b)
        assert sub.base.n_objects == m.base.n_objects
        assert check_monoidal(sub).ok
        assert check_braided(subbraid).ok
        assert subbraid.symmetric_flag
        assert check_lax_monoidal_functor(incl).ok


def test_muger_centralizer_of_unit_is_everything():
    m = lattice4_monoidal()
    b = identity_braiding(m)
    sub, _, _ = muger_centralizer(b, [m.unit])
    assert sub.base.n_objects == 4


def test_rigidity():
    report, witnesses = check_rigid(z2_discrete_monoidal())
    assert report.ok
    assert witnesses[1][0].dual == 1  # -1 is its own inverse in Z/2
    report2, _ = check_rigid(sign_monoidal())
    assert report2.ok
    report3, _ = check_rigid(lattice2_monoidal())
    assert not report3.ok  # 0 has no dual: hom(1, 0 meet d) is empty
    assert "left-dual" in report3.laws()


def test_find_left_dual_witnesses_in_sign():
    m = sign_monoidal()
    w = find_left_dual(m, 0)
    assert w is not None
    # zigzag forces ev + coev = e, checked by hand
    assert (w.ev + w.coev) % 2 == 0
