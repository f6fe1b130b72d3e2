import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecat.actions import (
    _rlax_search,
    all_internal_homs,
    check_monoidal_module,
    check_rlax,
    check_xilax_nat,
    compose_rlax,
    identity_rlax,
    internal_hom,
    monoidal_self_module,
    self_module,
    terminal_module,
)
from ecat.canonical import (
    canonical_braided,
    canonical_construction,
    canonical_monoidal,
    carrier_identification,
    check_braided_module,
    coev,
    enriched_functor_from_rlax,
    enriched_nat_from_xilax,
    enumerate_enriched_functors,
    enumerate_rlax,
    monoidal_cells_from_enriched,
    realize,
    rlax_from_enriched_functor,
    underline,
    verify_canonical_2functor,
    xilax_from_enriched_nat,
)
from ecat.core import check_functor, enumerate_nat_transfs
from ecat.enriched import (
    EnrichedNat,
    _enriched_functor_search,
    check_enriched,
    check_enriched_functor,
    check_enriched_nat,
    identity_enriched_functor,
    underlying_category,
)
from ecat.enriched_monoidal import (
    check_enriched_braided,
    check_enriched_monoidal,
    check_enriched_symmetric,
)
from ecat.monoidal import anti_braiding, identity_lax, identity_lax_nat
from ecat.report import Budget, BudgetExceeded, StructureError
from helpers import (
    identity_braiding,
    lattice2_monoidal,
    lattice4_monoidal,
    lattice8_monoidal,
    lattice_adjunction,
    semion_braiding,
    thin_category,
    thin_monoidal,
    z2_discrete_monoidal,
)


def lattice2_can():
    return canonical_construction(self_module(lattice2_monoidal()))


def lattice4_can():
    return canonical_construction(self_module(lattice4_monoidal()))


def z2_can():
    return canonical_construction(self_module(z2_discrete_monoidal()))


# --- hom objects against independent residuation oracles ---


def test_lattice2_homs_match_residuation():
    can = lattice2_can()
    for x, y in itertools.product(range(2), repeat=2):
        expected = 1 if x <= y else y
        assert can.hom(x, y).hom_obj == expected


def test_lattice4_homs_match_residuation():
    # Boolean implication on bitmasks: x => y is (~x | y) & 3.
    can = lattice4_can()
    for x, y in itertools.product(range(4), repeat=2):
        assert can.hom(x, y).hom_obj == (~x | y) & 3


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=2, max_value=5))
def test_chain_homs_match_residuation(n):
    m = thin_monoidal(thin_category(n, lambda x, y: x <= y), min, n - 1)
    can = canonical_construction(self_module(m))
    for x, y in itertools.product(range(n), repeat=2):
        expected = n - 1 if x <= y else y
        assert can.hom(x, y).hom_obj == expected


def test_z2_homs_are_group_division():
    can = z2_can()
    for x, y in itertools.product(range(2), repeat=2):
        assert can.hom(x, y).hom_obj == (x + y) % 2


def test_terminal_module_homs_are_top():
    can = canonical_construction(terminal_module(lattice4_monoidal()))
    assert can.hom(0, 0).hom_obj == 3


# --- the construction yields valid enriched categories ---


@pytest.mark.parametrize(
    "make", [lattice2_can, lattice4_can, z2_can], ids=["lattice2", "lattice4", "z2"]
)
def test_canonical_is_valid_enriched(make):
    assert check_enriched(make().enriched).ok


@pytest.mark.parametrize(
    "make", [lattice2_can, lattice4_can, z2_can], ids=["lattice2", "lattice4", "z2"]
)
def test_carrier_identification_is_isomorphism(make):
    can = make()
    ident = carrier_identification(can)
    assert check_functor(ident).ok
    assert ident.obj_map == tuple(range(can.module.carrier.n_objects))
    assert sorted(ident.mor_map) == list(range(ident.target.n_morphisms))


@pytest.mark.parametrize(
    "make", [lattice2_can, lattice4_can, z2_can], ids=["lattice2", "lattice4", "z2"]
)
def test_underline_realize_are_inverse(make):
    can = make()
    c = can.module.carrier
    u = underlying_category(can.enriched)
    for f in c.morphisms():
        x, y = c.dom[f], c.cod[f]
        assert realize(can, x, y, underline(can, f)) == f
    for x, y, el in u.elements:
        assert underline(can, realize(can, x, y, el)) == el


def test_coev_splits_evaluation():
    can = lattice4_can()
    mod = can.module
    c = mod.carrier
    for a, x in itertools.product(range(4), repeat=2):
        ax = mod.a_obj(a, x)
        ev = can.hom(x, ax).ev
        assert c.comp(ev, mod.a_mor(coev(can, a, x), c.identity[x])) == c.identity[ax]


# --- the correspondence between r-lax functors and enriched functors ---


def correspondence_cases():
    m2 = lattice2_monoidal()
    z2 = z2_discrete_monoidal()
    can2 = lattice2_can()
    canz = z2_can()
    cant = canonical_construction(terminal_module(m2))
    return [
        (can2, can2, identity_lax(m2)),
        (canz, canz, identity_lax(z2)),
        (can2, cant, identity_lax(m2)),
        # along the right adjoint lattice-4 -> lattice-2, not an identity
        (lattice4_can(), can2, lattice_adjunction()[0].right),
    ]


@pytest.mark.parametrize(
    "case", range(4), ids=["lattice2", "z2", "to-terminal", "lattice4-to-lattice2"]
)
def test_one_cell_correspondence_is_bijective(case):
    src, tgt, r = correspondence_cases()[case]
    rls = enumerate_rlax(r, src, tgt, cap=10**7)
    efs = enumerate_enriched_functors(r, src, tgt, cap=10**7)
    assert len(rls) == len(efs) > 0
    images = set()
    for rl in rls:
        ef = enriched_functor_from_rlax(rl, src, tgt)
        assert check_enriched_functor(ef).ok
        back = rlax_from_enriched_functor(ef, src, tgt)
        assert back.functor == rl.functor and back.beta == rl.beta
        images.add((ef.obj_map, tuple(sorted(ef.components.items()))))
    assert len(images) == len(rls)
    for ef in efs:
        rl = rlax_from_enriched_functor(ef, src, tgt)
        assert check_rlax(rl).ok
        back = enriched_functor_from_rlax(rl, src, tgt)
        assert back.obj_map == ef.obj_map and back.components == ef.components
        assert (ef.obj_map, tuple(sorted(ef.components.items()))) in images


def test_identity_rlax_gives_identity_enriched_functor():
    can = lattice2_can()
    ef = enriched_functor_from_rlax(identity_rlax(can.module), can, can)
    ideal = identity_enriched_functor(can.enriched)
    assert ef.obj_map == ideal.obj_map
    assert ef.components == ideal.components


def test_correspondence_preserves_composition():
    can = lattice2_can()
    r = identity_lax(lattice2_monoidal())
    rls = enumerate_rlax(r, can, can, cap=10**7)
    for f, g in itertools.product(rls, repeat=2):
        gf = compose_rlax(g, f)
        lhs = enriched_functor_from_rlax(gf, can, can)
        ef, eg = (enriched_functor_from_rlax(h, can, can) for h in (f, g))
        assert lhs.obj_map == tuple(eg.obj_map[x] for x in ef.obj_map)


@pytest.mark.parametrize(
    "make_m", [lattice2_monoidal, z2_discrete_monoidal], ids=["lattice2", "z2"]
)
def test_canonical_construction_is_2functor(make_m):
    m = make_m()
    can = canonical_construction(self_module(m))
    rep = verify_canonical_2functor([(can, can, identity_lax(m))], cap=10**7)
    assert rep.ok, rep.render()


# --- the correspondence on 2-cells ---


@pytest.mark.parametrize(
    "make_m", [lattice2_monoidal, z2_discrete_monoidal], ids=["lattice2", "z2"]
)
def test_two_cell_correspondence_is_bijective(make_m):
    m = make_m()
    can = canonical_construction(self_module(m))
    r = identity_lax(m)
    rih = identity_lax_nat(r)
    e, b = can.enriched, can.enriched.base
    for f1, f2 in itertools.product(enumerate_rlax(r, can, can, cap=10**7), repeat=2):
        ef1 = enriched_functor_from_rlax(f1, can, can)
        ef2 = enriched_functor_from_rlax(f2, can, can)
        xis = [
            xi
            for xi in enumerate_nat_transfs(f1.functor, f2.functor, cap=10**7)
            if check_xilax_nat(f1, f2, rih, xi).ok
        ]
        pools = [
            b.base.hom(b.unit, e.hom(ef1.on_obj(x), ef2.on_obj(x)))
            for x in range(e.n_objects)
        ]
        nats = [
            n
            for combo in itertools.product(*pools)
            if check_enriched_nat(
                n := EnrichedNat(rih, ef1, ef2, dict(enumerate(combo)))
            ).ok
        ]
        assert len(xis) == len(nats)
        for xi in xis:
            n = enriched_nat_from_xilax(rih, xi, ef1, ef2, can)
            assert check_enriched_nat(n).ok
            assert xilax_from_enriched_nat(n, f1, f2, can).components == xi.components
        for n in nats:
            xi = xilax_from_enriched_nat(n, f1, f2, can)
            assert check_xilax_nat(f1, f2, rih, xi).ok
            back = enriched_nat_from_xilax(rih, xi, ef1, ef2, can)
            assert back.components == n.components


# --- the monoidal and braided upgrades ---


@pytest.mark.parametrize(
    "make_m", [lattice2_monoidal, lattice4_monoidal], ids=["lattice2", "lattice4"]
)
def test_canonical_monoidal_is_valid(make_m):
    m = make_m()
    mm = monoidal_self_module(identity_braiding(m))
    em = canonical_monoidal(mm)
    assert check_enriched_monoidal(em).ok
    assert em.unit_obj == m.unit
    for x, y in itertools.product(range(m.base.n_objects), repeat=2):
        assert em.t(x, y) == m.t_obj(x, y)


@pytest.mark.parametrize(
    "make_m", [lattice2_monoidal, lattice4_monoidal], ids=["lattice2", "lattice4"]
)
def test_monoidal_extraction_round_trip(make_m):
    mm = monoidal_self_module(identity_braiding(make_m()))
    can = canonical_construction(mm.module)
    em = canonical_monoidal(mm, can)
    assert monoidal_cells_from_enriched(em, can) == mm


@pytest.mark.parametrize(
    "make_m", [lattice2_monoidal, lattice4_monoidal], ids=["lattice2", "lattice4"]
)
def test_canonical_braided_is_symmetric(make_m):
    b = identity_braiding(make_m())
    mm = monoidal_self_module(b)
    eb = canonical_braided(mm, b, symmetric=True)
    assert check_enriched_braided(eb).ok
    assert check_enriched_symmetric(eb).ok


def test_semion_self_action_is_not_a_braided_module():
    # The self-action only passes the braided compatibility square when
    # every object is transparent, which fails for the semion braiding.
    b = semion_braiding()
    mm = monoidal_self_module(b)
    assert check_monoidal_module(mm).ok
    rep = check_braided_module(mm, b)
    assert not rep.ok
    assert all(v.law == "braided-module-square" for v in rep.violations)
    with pytest.raises(StructureError):
        canonical_braided(mm, b)


def test_mismatched_carrier_braiding_fails_the_square():
    b = semion_braiding()
    rep = check_braided_module(monoidal_self_module(b), anti_braiding(b))
    assert not rep.ok
    assert rep.violations[0].law == "braided-module-square"


# --- one budget per run ---


def _spent(stage) -> int:
    b = Budget(10**7)
    stage(b)
    return b.used


def _lattice4_cells():
    return monoidal_self_module(identity_braiding(lattice4_monoidal()))


def _internal_hom_spends(mod) -> list:
    """What each internal-hom search of mod spends on a budget of its own."""
    objs = list(mod.carrier.objects())
    return [_spent(lambda b: internal_hom(mod, x, y, b)) for x in objs for y in objs]


def _two_functor_spends() -> list:
    """What the two enumerations of the lattice-4 2-functoriality check
    spend on a budget each."""
    can, r = lattice4_can(), identity_lax(lattice4_monoidal())
    return [
        _spent(lambda b: _rlax_search(r, can.module, can.module, b)),
        _spent(lambda b: list(_enriched_functor_search(r, can.enriched, can.enriched, b))),
    ]


# Each run reads its cap from ECAT_BUDGET, but verify_canonical_2functor,
# which is passed it.
ONE_BUDGET_RUNS = {
    "canonical_construction": (
        lambda cap: canonical_construction(self_module(lattice4_monoidal())),
        lambda: _internal_hom_spends(self_module(lattice4_monoidal())),
    ),
    "all_internal_homs": (
        lambda cap: all_internal_homs(self_module(lattice4_monoidal())),
        lambda: _internal_hom_spends(self_module(lattice4_monoidal())),
    ),
    "canonical_monoidal": (
        lambda cap: canonical_monoidal(_lattice4_cells()),
        lambda: _internal_hom_spends(_lattice4_cells().module),
    ),
    "canonical_braided": (
        lambda cap: canonical_braided(_lattice4_cells(), _lattice4_cells().base_braiding),
        lambda: _internal_hom_spends(_lattice4_cells().module),
    ),
    "verify_canonical_2functor": (
        lambda cap: verify_canonical_2functor(
            [(lattice4_can(), lattice4_can(), identity_lax(lattice4_monoidal()))], cap
        ),
        _two_functor_spends,
    ),
}


@pytest.mark.parametrize("name", ONE_BUDGET_RUNS)
def test_one_cap_bounds_every_search_of_the_run(name, monkeypatch):
    run, spends = ONE_BUDGET_RUNS[name]
    spends = spends()
    total = sum(spends)
    assert max(spends) < total - 1
    monkeypatch.setenv("ECAT_BUDGET", str(total))
    run(total)  # the searches share one budget of exactly their sum
    for cap in (max(spends), total - 1):
        monkeypatch.setenv("ECAT_BUDGET", str(cap))
        with pytest.raises(BudgetExceeded):
            run(cap)


def test_ecat_budget_bounds_the_lattice8_canonical_construction(monkeypatch):
    mod = self_module(lattice8_monoidal())
    assert max(_internal_hom_spends(mod)) <= 27
    monkeypatch.setenv("ECAT_BUDGET", "27")
    with pytest.raises(BudgetExceeded):
        canonical_construction(mod)
