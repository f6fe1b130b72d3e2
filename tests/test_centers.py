import dataclasses
import functools
import inspect
import itertools
import sys

import pytest

from ecat import actions, canonical, centers, core, enriched, enriched_monoidal, monoidal
from ecat.centers import (
    braided_tables,
    bracket_family,
    bracket_pair,
    check_bracket_terminal,
    compare_e0_routes,
    condition_star,
    e0_center,
    e0_ev,
    e0_center_via_module,
    enriched_iso_search,
    enumerate_identity_background_functors,
    evaluation_action,
    gamma1,
    gamma1_evaluation_action,
    gamma1_of_canonical,
    gamma2,
    gamma2_evaluation_action,
    gamma2_of_canonical,
    tensor_action,
    trivial_action,
    trivial_monoidal_action,
    verify_e0_universal,
    verify_e1_universal,
    verify_e2_universal,
)
from ecat.actions import ModuleAction, MonoidalModuleCells, terminal_module
from ecat.actions import all_internal_homs, internal_hom, monoidal_self_module, self_module
from ecat.canonical import (
    canonical_braided,
    canonical_construction,
    canonical_monoidal,
    enumerate_enriched_functors,
    enumerate_rlax,
    verify_canonical_2functor,
)
from ecat.core import (
    Functor,
    NatTransf,
    enumerate_functors,
    enumerate_nat_transfs,
    identity_functor,
    iso_search,
    product_category,
    terminal_category,
)
from ecat.enriched import (
    EnrichedCategory,
    EnrichedNat,
    _enriched_functor_search,
    check_enriched,
    check_enriched_nat,
    underlying_category,
)
from ecat.enriched_monoidal import (
    EnrichedBraidedCategory,
    check_enriched_braided,
    check_enriched_monoidal,
    check_enriched_symmetric,
    enumerate_enriched_half_braidings,
    underlying_half_braiding,
    underlying_monoidal,
)
from ecat.monoidal import (
    LaxMonoidalNat,
    MonoidalCategory,
    drinfeld_center_z1,
    enumerate_half_braidings,
    identity_lax,
    is_transparent,
    muger_center_z2,
    product_monoidal,
    strict_monoidal,
)
from ecat.report import Budget, BudgetExceeded, StructureError, ValidationReport

from helpers import (
    chain2,
    chain2_enriched,
    delooping_monoidal,
    eager_braided_tensor_lax_structure,
    eager_gamma1_cells,
    exhaustive_bracket_pair,
    identity_braiding,
    lattice2_monoidal,
    lattice4_monoidal,
    lattice4_self_enriched,
    lattice8_self_enriched,
    preorder_enriched_monoidal,
    semion_enriched_monoidal,
    semion_monoidal,
    sign_enriched,
    sign_monoidal,
    thin_enriched,
    trivial_base_enriched,
    z2_discrete_monoidal,
    z2_enriched,
)

CAP = 500_000


def preorder_braiding_el(em):
    e = em.host
    return {
        (x, y): e.one(em.t(x, y))
        for x, y in itertools.product(range(e.n_objects), repeat=2)
    }


# --- E0: endofunctors of the lattice-2 chain ---


def test_e0_chain2_has_three_monotone_endofunctors():
    res = e0_center(chain2_enriched(), CAP)
    maps = sorted(f.obj_map for f in res.witnesses["functors"])
    assert maps == [(0, 0), (0, 1), (1, 1)]


def test_e0_chain2_brackets_match_meet_formula():
    e = chain2_enriched()
    res = e0_center(e, CAP)
    functors = res.witnesses["functors"]
    fwd = res.witnesses["z1"].forgetful

    def heyting(a, b):
        return 1 if a <= b else 0

    for i, j in itertools.product(range(len(functors)), repeat=2):
        oracle = min(
            heyting(functors[i].on_obj(x), functors[j].on_obj(x))
            for x in range(2)
        )
        carrier = fwd.on_obj(res.witnesses["brackets"][(i, j)].obj)
        assert carrier == oracle


def test_e0_chain2_named_bracket_values():
    e = chain2_enriched()
    res = e0_center(e, CAP)
    fwd = res.witnesses["z1"].forgetful
    idx = {f.obj_map: i for i, f in enumerate(res.witnesses["functors"])}
    ident, c0, c1 = idx[(0, 1)], idx[(0, 0)], idx[(1, 1)]

    def val(i, j):
        return fwd.on_obj(res.witnesses["brackets"][(i, j)].obj)

    assert val(ident, c1) == 1
    assert val(c1, c0) == 0
    assert val(ident, ident) == 1


def test_e0_category_passes_validators():
    # lattice-8 takes about 9 s (2-vCPU x86): the thin gates leave the
    # functor check of the underlying tensor and the typing of its 27^4 cells
    builds = (
        chain2_enriched, z2_enriched, trivial_base_enriched, lattice4_self_enriched,
        lattice8_self_enriched,
    )
    sizes = []
    for build in builds:
        res = e0_center(build(), CAP)
        assert check_enriched_monoidal(res.category).ok
        sizes.append(res.category.host.n_objects)
    assert sizes[-2:] == [9, 27]  # the lattice-4 and lattice-8 E0 centers


def test_e0_hom_elements_count_natural_transformations():
    """Center-base elements of [F, G] biject with the enriched naturals."""
    e = chain2_enriched()
    m = e.base
    c = m.base
    res = e0_center(e, CAP)
    host = res.category.host
    z1 = res.witnesses["z1"]
    zc = z1.monoidal.base
    functors = res.witnesses["functors"]
    for i, j in itertools.product(range(len(functors)), repeat=2):
        fF, fG = functors[i], functors[j]
        idnat = LaxMonoidalNat(
            fF.background, fG.background,
            NatTransf(
                fF.background.functor, fG.background.functor,
                tuple(c.identity[b] for b in c.objects()),
            ),
        )
        pools = [
            sorted(c.hom(m.unit, e.hom(fF.on_obj(x), fG.on_obj(x))))
            for x in range(e.n_objects)
        ]
        nats = sum(
            check_enriched_nat(
                EnrichedNat(idnat, fF, fG, dict(enumerate(combo)))
            ).ok
            for combo in itertools.product(*pools)
        )
        assert nats == len(zc.hom(z1.monoidal.unit, host.hom(i, j)))


def test_e0_trivial_base_is_a_point():
    res = e0_center(trivial_base_enriched(), CAP)
    assert res.category.host.n_objects == 1


def test_e0_of_the_zero_object_category_is_its_terminal_center_object():
    # the bracket search with no component variables: a family is a center
    # object alone, and the terminal family is the terminal object of Z1
    e = EnrichedCategory(lattice2_monoidal(), 0, {}, {}, {})
    budget = Budget(CAP)
    res = centers.e0_center(e, budget)
    host = res.category.host
    assert (host.n_objects, host.hom_obj, res.witnesses["unit_obj"]) == (1, {(0, 0): 1}, 0)
    assert budget.used == 12


def test_e0_center_refuses_an_invalid_enriched_category():
    e = sign_enriched(1, 1)
    assert check_enriched(e).laws() == {"enriched-left-unit", "enriched-right-unit"}
    with pytest.raises(StructureError, match="enriched-left-unit"):
        e0_center(e, CAP)
    with pytest.raises(StructureError, match="enriched-left-unit"):
        verify_e0_universal(e, trivial_action(e), CAP)
    assert e0_center(sign_enriched(1, 0), CAP).category.host.n_objects == 1


def test_bracket_terminality_certificates_recheck():
    for e in (chain2_enriched(), z2_enriched()):
        res = e0_center(e, CAP)
        for br in res.witnesses["brackets"].values():
            assert check_bracket_terminal(br).ok


def test_mutated_bracket_certificate_rejected():
    e0_bracket = e0_center(chain2_enriched(), CAP).witnesses["brackets"][(0, 0)]
    e1_bracket = gamma1(preorder_enriched_monoidal(), CAP).witnesses["brackets"][(0, 0)]
    for br in (e0_bracket, e1_bracket):
        others = [
            o for o in br.objects
            if (o.z_obj, o.components) != (br.obj, br.components)
        ]
        assert others, "fixture should admit a non-terminal family"
        bad = dataclasses.replace(
            br, obj=others[0].z_obj, components=others[0].components
        )
        rep = check_bracket_terminal(bad)
        assert not rep.ok


def test_condition_star_reports_every_pair():
    star = condition_star(chain2_enriched(), CAP)
    n = len(star.functors)
    assert set(star.brackets) == set(itertools.product(range(n), repeat=2))
    assert all(br is not None for br in star.brackets.values())


# --- E0: the two presentations agree ---


def lattice2_self_cells():
    m = lattice2_monoidal()
    return monoidal_self_module(identity_braiding(m))


def z2_self_cells():
    m = z2_discrete_monoidal()
    return monoidal_self_module(identity_braiding(m))


def sign_x_lattice2_self_cells():
    m = product_monoidal(sign_monoidal(), lattice2_monoidal())
    return monoidal_self_module(identity_braiding(m))


def bz3_x_lattice2_self_cells():
    m = product_monoidal(delooping_monoidal(3), lattice2_monoidal())
    return monoidal_self_module(identity_braiding(m))


def terminal_cells():
    t = terminal_category()
    m = strict_monoidal(t, Functor(product_category(t, t), t, (0,), (0,)), 0)
    return MonoidalModuleCells(
        terminal_module(m), identity_braiding(m), m, {(0, 0, 0, 0): 0}, 0
    )


def test_e0_routes_agree_on_module_fixtures():
    for cells in (
        lattice2_self_cells(), z2_self_cells(), terminal_cells(),
        sign_x_lattice2_self_cells(), bz3_x_lattice2_self_cells(),
    ):
        mod = cells.module
        direct = e0_center(e0_host_of(mod), CAP)
        via = e0_center_via_module(mod, CAP)
        out = compare_e0_routes(direct, via, CAP)
        assert out["iso"] is not None
        assert out["tensor_ok"] and out["unit_ok"]


def e0_host_of(mod: ModuleAction):
    return canonical_construction(mod, Budget(CAP, "host")).enriched


def test_both_e0_routes_refuse_the_sign_x_z2_self_module():
    """Z1(sign x z2) is not Z1(sign) x Z1(z2): the self-module is valid, yet
    neither route finds an E0 center, so the routes agree that none exists."""
    cells = monoidal_self_module(
        identity_braiding(product_monoidal(sign_monoidal(), z2_discrete_monoidal()))
    )
    assert actions.check_monoidal_module(cells).ok
    with pytest.raises(StructureError, match="no terminal half-braided family for pairs"):
        e0_center(e0_host_of(cells.module), CAP)
    with pytest.raises(StructureError, match=r"internal hom missing for pair \(0, 0\)"):
        e0_center_via_module(cells.module, CAP)


def test_e0_center_via_module_refuses_a_weakly_associative_module_before_searching():
    mod = dataclasses.replace(self_module(lattice2_monoidal()), strongly_associative=False)
    with pytest.raises(StructureError, match="needs strong associativity"):
        e0_center_via_module(mod, 1)


# --- universal-property verifiers ---


def test_verify_e0_on_designated_fixtures():
    for e in (chain2_enriched(), sign_enriched(2, 0)):
        res = e0_center(e, CAP)
        for act in (evaluation_action(res, e), trivial_action(e)):
            out = verify_e0_universal(e, act, CAP, res)
            assert out.report.ok and out.uniqueness_count == 1
    # the sign-2 center has 8 objects and its underlying category is not thin
    u = underlying_category(res.category.host)
    assert (res.category.host.n_objects, u.cat.n_morphisms, u.cat.thin) == (8, 128, False)
    em = preorder_enriched_monoidal()
    out = verify_e0_universal(em.host, tensor_action(em), CAP)
    assert out.report.ok and out.uniqueness_count == 1


def test_verify_e0_on_discrete_group_fixture():
    e = z2_enriched()
    res = e0_center(e, CAP)
    for act in (evaluation_action(res, e), trivial_action(e)):
        out = verify_e0_universal(e, act, CAP, res)
        assert out.report.ok and out.uniqueness_count == 1


def test_verify_e0_rejects_wrong_unit():
    em = preorder_enriched_monoidal()
    act = tensor_action(em)
    bad = dataclasses.replace(act, unit_obj=1)
    try:
        out = verify_e0_universal(em.host, bad, CAP)
    except StructureError:
        return
    assert not out.report.ok


def test_verify_e1_on_designated_fixtures():
    em = preorder_enriched_monoidal()
    res = gamma1(em, CAP)
    acts = (
        gamma1_evaluation_action(res, em),
        trivial_monoidal_action(em),
        tensor_action(em, preorder_braiding_el(em)),
    )
    for act in acts:
        out = verify_e1_universal(em, act, CAP, res)
        assert out.report.ok and out.uniqueness_count == 1


def test_verify_e2_on_designated_fixtures():
    em = preorder_enriched_monoidal()
    eb = EnrichedBraidedCategory(em, preorder_braiding_el(em), True)
    res = gamma2(eb, CAP)
    acts = (
        gamma2_evaluation_action(res, eb),
        trivial_monoidal_action(em),
        tensor_action(em, preorder_braiding_el(em)),
    )
    for act in acts:
        out = verify_e2_universal(eb, act, CAP, res)
        assert out.report.ok and out.uniqueness_count == 1


def _one_violation(*args, **kwargs):
    rep = ValidationReport("stub")
    rep.add("stub-law", (0,), "stub detail")
    return rep


def _e0_verification():
    e = chain2_enriched()
    return verify_e0_universal(e, trivial_action(e), CAP, e0_center(e, CAP))


def _e1_verification():
    em = preorder_enriched_monoidal()
    return verify_e1_universal(em, trivial_monoidal_action(em), CAP, gamma1(em, CAP))


def _e2_verification():
    em = preorder_enriched_monoidal()
    eb = EnrichedBraidedCategory(em, preorder_braiding_el(em), True)
    return verify_e2_universal(eb, trivial_monoidal_action(em), CAP, gamma2(eb, CAP))


@pytest.mark.parametrize(
    "check, prefixes",
    [
        # the background is checked once, and the comparison functor's
        # report starts with its background's
        pytest.param("check_lax_monoidal_functor",
                     ["background-functor-", "comparison-functor-"],
                     id="check_lax_monoidal_functor-background-functor-"),
        # the comparison functor's check, whose composition law typing may
        # decide; the ids keep the names of the checks these run
        pytest.param("_comparison_report", ["comparison-functor-"],
                     id="check_enriched_functor-comparison-functor-"),
        # rho's nat check, run where typing does not decide rho: here the
        # center's action on its host is not known to be typed
        pytest.param("check_enriched_nat", ["rho-"], id="check_enriched_nat-rho-"),
    ],
)
@pytest.mark.parametrize(
    "verify", [_e0_verification, _e1_verification, _e2_verification],
    ids=["e0", "e1", "e2"],
)
def test_verifier_reports_functor_violation(monkeypatch, verify, check, prefixes):
    monkeypatch.setattr(centers, check, _one_violation)
    if check == "check_enriched_nat":
        monkeypatch.setattr(centers, "_ev_typed", lambda res: False)
    out = verify()
    assert not out.ok
    assert [(v.law, v.instance, v.detail) for v in out.report.violations] == [
        (prefix + "stub-law", (0,), "stub detail") for prefix in prefixes
    ]


# --- the E1 center ---


def test_gamma1_preorder_structure():
    em = preorder_enriched_monoidal()
    res = gamma1(em, CAP)
    assert check_enriched_braided(res.category).ok
    assert check_enriched_symmetric(res.category).ok
    carriers = sorted(x for x, _ in res.witnesses["objects"])
    assert carriers == [0, 1]


def test_gamma1_bracket_pair_certificates_recheck():
    em = preorder_enriched_monoidal()
    res = gamma1(em, CAP)
    for br in res.witnesses["brackets"].values():
        assert check_bracket_terminal(br).ok


def test_gamma1_braiding_factors_the_half_braidings():
    em = preorder_enriched_monoidal()
    res = gamma1(em, CAP)
    c = em.host.base.base
    _, _, z2incl = res.witnesses["z2"]
    objs = res.witnesses["objects"]
    t1 = res.witnesses["tensor_obj"]
    brackets = res.witnesses["brackets"]
    for i, j in itertools.product(range(len(objs)), repeat=2):
        br = brackets[(t1[(i, j)], t1[(j, i)])]
        lifted = c.comp(
            br.zeta, z2incl.on_mor(res.category.braiding_el[(i, j)])
        )
        assert lifted == objs[j][1].components[objs[i][0]]


def test_gamma1_underlying_embeds_fully_in_z1_of_underlying():
    em = preorder_enriched_monoidal()
    res = gamma1(em, CAP)
    um = underlying_monoidal(em)
    z1u = drinfeld_center_z1(um, Budget(CAP, "underlying center"))
    z1_index = {
        (x, tuple(sorted(hb.components.items()))): i
        for i, (x, hb) in enumerate(z1u.object_data)
    }
    img = []
    for x, ehb in res.witnesses["objects"]:
        hbu = underlying_half_braiding(em, ehb)
        img.append(z1_index[(x, tuple(sorted(hbu.components.items())))])
    ug = underlying_category(res.category.host.host)
    zc = z1u.monoidal.base
    for i, j in itertools.product(range(len(img)), repeat=2):
        ours = len(ug.cat.hom(i, j))
        theirs = len(zc.hom(img[i], img[j]))
        assert ours == theirs


def test_gamma1_of_canonical_on_module_fixtures():
    for cells in (
        lattice2_self_cells(), z2_self_cells(), terminal_cells(),
        sign_x_lattice2_self_cells(), bz3_x_lattice2_self_cells(),
    ):
        out = gamma1_of_canonical(cells, CAP)
        assert out["iso"] is not None
        assert out["strict"]


def test_iso_search_refuses_other_object_counts_and_bases():
    point = thin_enriched(lattice2_monoidal(), [0], lambda x, y: 1)
    chain = chain2_enriched()
    # an injective functor exists, but it misses an object
    assert next(_enriched_functor_search(
        identity_lax(point.base), point, chain, Budget(CAP), iso=True
    ))
    assert enriched_iso_search(point, chain, Budget(CAP)) is None
    assert enriched_iso_search(chain, point, Budget(CAP)) is None
    assert enriched_iso_search(chain, z2_enriched(), Budget(CAP)) is None
    assert enriched_iso_search(chain, chain, Budget(CAP)) is not None


def test_gamma1_of_canonical_searches_through_the_guarded_iso_search(monkeypatch):
    searched = []

    def spy(e1, e2, budget):
        searched.append((e1, e2))
        return enriched_iso_search(e1, e2, budget)

    monkeypatch.setattr(centers, "enriched_iso_search", spy)
    out = gamma1_of_canonical(lattice2_self_cells(), CAP)
    host = out["gamma1"].category.host.host
    assert searched == [(host, out["module_side"].enriched)]
    assert out["iso"] is not None


# --- the E2 center ---


def test_gamma2_is_transparent_subcategory_of_underlying():
    em = preorder_enriched_monoidal()
    eb = EnrichedBraidedCategory(em, preorder_braiding_el(em), True)
    res = gamma2(eb, CAP)
    bs = res.witnesses["underlying_braiding"]
    allobj = list(bs.host.base.objects())
    expected = tuple(x for x in allobj if is_transparent(bs, x, allobj))
    assert res.witnesses["objects"] == expected


def test_gamma2_idempotent_on_symmetric_fixtures():
    em = preorder_enriched_monoidal()
    eb = EnrichedBraidedCategory(em, preorder_braiding_el(em), True)
    once = gamma2(eb, CAP)
    twice = gamma2(once.category, CAP)
    assert braided_tables(once.category) == braided_tables(twice.category)


def test_gamma2_of_symmetric_fixture_is_itself():
    em = preorder_enriched_monoidal()
    eb = EnrichedBraidedCategory(em, preorder_braiding_el(em), True)
    res = gamma2(eb, CAP)
    assert braided_tables(res.category) == braided_tables(eb)


def test_gamma2_of_canonical_on_module_fixtures():
    for cells in (
        lattice2_self_cells(), z2_self_cells(), terminal_cells(),
        sign_x_lattice2_self_cells(), bz3_x_lattice2_self_cells(),
    ):
        br = cells.base_braiding
        out = gamma2_of_canonical(cells, br, CAP)
        assert out["tables_equal"]


# --- one budget bounds a whole run ---


def _budgets_made(monkeypatch) -> list:
    """Record every Budget constructed from now on."""
    made = []
    init = Budget.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Budget, "__init__", recording)
    return made


@pytest.mark.parametrize(
    "run",
    [
        lambda cap: gamma1(preorder_enriched_monoidal(), cap),
        lambda cap: gamma1_of_canonical(lattice2_self_cells(), cap),
        lambda cap: gamma2_of_canonical(
            lattice2_self_cells(), lattice2_self_cells().base_braiding, cap
        ),
    ],
    ids=["gamma1", "gamma1_of_canonical", "gamma2_of_canonical"],
)
def test_a_run_makes_one_budget(run, monkeypatch):
    made = _budgets_made(monkeypatch)
    run(CAP)
    assert len(made) == 1 and made[0].cap == CAP and made[0].used > 0


def _preorder_braided():
    em = preorder_enriched_monoidal()
    return EnrichedBraidedCategory(em, preorder_braiding_el(em), True)


# Each verifier run without a center: the center (E0, E1; the E2 center
# searches nothing) and the mediator search, with the check that runs it.
VERIFIER_RUNS = {
    "e0": (
        lambda cap: verify_e0_universal(chain2_enriched(), trivial_action(chain2_enriched()), cap),
        lambda b: centers.e0_center(chain2_enriched(), b),
        lambda res: centers._E0Check(chain2_enriched(), trivial_action(chain2_enriched()), res),
    ),
    "e1": (
        lambda cap: verify_e1_universal(
            preorder_enriched_monoidal(), trivial_monoidal_action(preorder_enriched_monoidal()), cap
        ),
        lambda b: centers.gamma1(preorder_enriched_monoidal(), b),
        lambda res: centers._E1Check(
            preorder_enriched_monoidal(), trivial_monoidal_action(preorder_enriched_monoidal()), res
        ),
    ),
    "e2": (
        lambda cap: verify_e2_universal(
            _preorder_braided(), trivial_monoidal_action(preorder_enriched_monoidal()), cap
        ),
        None,
        None,
    ),
}


@pytest.mark.parametrize("name", VERIFIER_RUNS)
def test_a_verifier_run_makes_one_budget(name, monkeypatch):
    made = _budgets_made(monkeypatch)
    out = VERIFIER_RUNS[name][0](CAP)
    assert out.report.ok and out.uniqueness_count == 1
    assert len(made) == 1 and made[0].cap == CAP and made[0].used > 0


@pytest.mark.parametrize("name", ["e0", "e1"])
def test_one_cap_bounds_a_verifier_run(name):
    run, center, check = VERIFIER_RUNS[name]
    b = Budget(CAP)
    res = center(b)
    spends = [b.used]
    b = Budget(CAP)
    assert check(res).run(b).uniqueness_count == 1
    spends.append(b.used)
    total = sum(spends)
    assert max(spends) < total - 1
    assert run(total).uniqueness_count == 1  # one budget of exactly the sum
    for cap in (max(spends), total - 1):
        with pytest.raises(BudgetExceeded):
            run(cap)


def _search_inputs() -> dict:
    """Small inputs for every public search entry point, built afresh."""
    cells = lattice2_self_cells()
    em = preorder_enriched_monoidal()
    chain = chain2_enriched()
    c2 = chain2()
    e1 = gamma1(em, CAP)
    return {
        "lat2": lattice2_monoidal(),
        "chain": chain,
        "em": em,
        "cells": cells,
        "can": canonical_construction(cells.module),
        "c2": c2,
        "idf": identity_functor(c2),
        "star": condition_star(chain, CAP),
        "pair": (e1.witnesses["z2"], *e1.witnesses["objects"][:2]),
        "direct": e0_center(e0_host_of(cells.module), CAP),
        "via": e0_center_via_module(cells.module, CAP),
        "budget": Budget(CAP),
    }


# Every public search entry point, by module and name, called on the inputs
# above. bracket_family and bracket_pair take no default budget, so they are
# handed one.
SEARCH_ENTRY_POINTS = {
    "core.enumerate_functors": lambda i: enumerate_functors(i["c2"], i["c2"]),
    "core.enumerate_nat_transfs": lambda i: enumerate_nat_transfs(i["idf"], i["idf"]),
    "core.iso_search": lambda i: iso_search(i["c2"], i["c2"]),
    "monoidal.enumerate_half_braidings": lambda i: enumerate_half_braidings(i["lat2"], 0),
    "monoidal.drinfeld_center_z1": lambda i: drinfeld_center_z1(i["lat2"]),
    "enriched_monoidal.enumerate_enriched_half_braidings": (
        lambda i: enumerate_enriched_half_braidings(i["em"], 0)
    ),
    "actions.internal_hom": lambda i: internal_hom(i["cells"].module, 0, 1),
    "actions.all_internal_homs": lambda i: all_internal_homs(i["cells"].module),
    "canonical.canonical_construction": lambda i: canonical_construction(i["cells"].module),
    "canonical.canonical_monoidal": lambda i: canonical_monoidal(i["cells"]),
    "canonical.canonical_braided": (
        lambda i: canonical_braided(i["cells"], i["cells"].base_braiding)
    ),
    "canonical.enumerate_rlax": (
        lambda i: enumerate_rlax(identity_lax(i["lat2"]), i["can"], i["can"])
    ),
    "canonical.enumerate_enriched_functors": (
        lambda i: enumerate_enriched_functors(identity_lax(i["lat2"]), i["can"], i["can"])
    ),
    "canonical.verify_canonical_2functor": (
        lambda i: verify_canonical_2functor([(i["can"], i["can"], identity_lax(i["lat2"]))])
    ),
    "centers.enumerate_identity_background_functors": (
        lambda i: enumerate_identity_background_functors(i["chain"], i["chain"])
    ),
    "centers.bracket_family": lambda i: bracket_family(
        i["chain"], i["star"].functors[0], i["star"].functors[1], i["star"].z1, i["budget"]
    ),
    "centers.condition_star": lambda i: condition_star(i["chain"]),
    "centers.e0_center": lambda i: e0_center(i["chain"]),
    "centers.enriched_iso_search": lambda i: enriched_iso_search(i["chain"], i["chain"]),
    "centers.e0_center_via_module": lambda i: e0_center_via_module(i["cells"].module),
    "centers.compare_e0_routes": lambda i: compare_e0_routes(i["direct"], i["via"]),
    "centers.bracket_pair": lambda i: bracket_pair(i["em"], *i["pair"], i["budget"]),
    "centers.gamma1": lambda i: gamma1(i["em"]),
    "centers.gamma1_of_canonical": lambda i: gamma1_of_canonical(i["cells"]),
    "centers.gamma2": lambda i: gamma2(_preorder_braided()),
    "centers.gamma2_of_canonical": (
        lambda i: gamma2_of_canonical(i["cells"], i["cells"].base_braiding)
    ),
    "centers.verify_e0_universal": (
        lambda i: verify_e0_universal(i["chain"], trivial_action(i["chain"]))
    ),
    "centers.verify_e1_universal": (
        lambda i: verify_e1_universal(i["em"], trivial_monoidal_action(i["em"]))
    ),
    "centers.verify_e2_universal": lambda i: verify_e2_universal(
        _preorder_braided(), trivial_monoidal_action(i["em"])
    ),
}


def test_every_public_search_entry_point_is_guarded():
    """Every public function of src/ecat that takes a cap or a budget is
    listed, so a new one cannot slip past the guard below."""
    found = {
        f"{module.__name__.split('.')[1]}.{name}"
        for module in (core, monoidal, enriched, enriched_monoidal, actions, canonical, centers)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
        and not name.startswith("_")
        and {"cap", "budget"} & set(inspect.signature(fn).parameters)
    }
    assert found <= set(SEARCH_ENTRY_POINTS)


@pytest.mark.parametrize("name", SEARCH_ENTRY_POINTS)
def test_a_search_entry_point_makes_at_most_one_budget(name, monkeypatch):
    inputs = _search_inputs()
    made = _budgets_made(monkeypatch)
    SEARCH_ENTRY_POINTS[name](inputs)
    assert len(made) <= 1


def _parameters(name: str) -> set:
    module, fname = name.split(".")
    return set(inspect.signature(getattr(sys.modules[f"ecat.{module}"], fname)).parameters)


def test_every_search_entry_point_takes_cap_but_the_bracket_searches():
    """Only the two bracket searches, run inside a center, take a budget;
    every other entry point takes cap: None, an int or a Budget."""
    takes_budget = {name for name in SEARCH_ENTRY_POINTS if "budget" in _parameters(name)}
    assert takes_budget == {"centers.bracket_family", "centers.bracket_pair"}


@pytest.mark.parametrize("name", [n for n in SEARCH_ENTRY_POINTS if "cap" in _parameters(n)])
def test_a_search_entry_point_handed_a_budget_spends_only_from_it(name, monkeypatch):
    inputs = _search_inputs()
    fname = name.split(".")[1]
    b = Budget(CAP)
    monkeypatch.setitem(globals(), fname, functools.partial(globals()[fname], cap=b))
    made = _budgets_made(monkeypatch)
    spent_from = set()
    spend = Budget.spend

    def recording(self, n=1):
        spent_from.add(id(self))
        spend(self, n)

    monkeypatch.setattr(Budget, "spend", recording)
    SEARCH_ENTRY_POINTS[name](inputs)
    assert made == [] and spent_from <= {id(b)}


def test_an_e0_center_builds_its_evaluation_action_once(monkeypatch):
    # the build makes one cartesian product of the center's host and e
    products = []
    product = centers.cartesian_product_enriched

    def counting(a, b):
        products.append((a, b))
        return product(a, b)

    monkeypatch.setattr(centers, "cartesian_product_enriched", counting)
    e = chain2_enriched()
    res = e0_center(e, CAP)
    for act in (evaluation_action(res, e), trivial_action(e)):
        assert verify_e0_universal(e, act, CAP, res).uniqueness_count == 1
    assert sum(a is res.category.host and b is e for a, b in products) == 1
    assert e0_ev(res) is evaluation_action(res, e).odot
    copy = dataclasses.replace(res)
    assert res == copy and res._kept and not copy._kept  # the store is not compared


@pytest.mark.parametrize("level", ["E1", "E2"])
def test_a_center_builds_its_evaluation_functor_once(monkeypatch, level):
    """The evaluation action and both verifier runs share one acting
    composite, and a lattice-4 run reads at most the 2·|la|·nM f2 cells that
    the induced half-braidings and rho need."""
    composed, swaps = [], []
    compose = centers.compose_enriched_functors
    mid_swap = centers._el_mid_swap

    def composing(g, f):
        composed.append(g)
        return compose(g, f)

    def swapping(*args):
        swaps.append(args)
        return mid_swap(*args)

    monkeypatch.setattr(centers, "compose_enriched_functors", composing)
    monkeypatch.setattr(centers, "_el_mid_swap", swapping)
    b = identity_braiding(lattice4_monoidal())
    eb = canonical_braided(monoidal_self_module(b), b, symmetric=True)
    em = eb.host
    if level == "E1":
        res, subject = gamma1(em, CAP), em
        act, verify = gamma1_evaluation_action(res, em), verify_e1_universal
    else:
        res, subject = gamma2(eb, CAP), eb
        act, verify = gamma2_evaluation_action(res, eb), verify_e2_universal
    assert verify(subject, act, CAP, res).uniqueness_count == 1
    n_la, n_m = res.category.host.host.n_objects, em.host.n_objects
    assert (n_la, n_m) == (4, 4)
    assert 0 < len(swaps) <= 2 * n_la * n_m < len(act.f2)
    assert verify(subject, trivial_monoidal_action(em), CAP, res).uniqueness_count == 1
    # besides the action, the verdict that types rho's source through it
    assert res._kept == {e0_ev.__wrapped__: act.odot, centers._ev_typed.__wrapped__: True}
    assert sum(g is em.tensor for g in composed) == 1
    assert e0_ev(res) is act.odot
    copy = dataclasses.replace(res)
    assert res == copy and not copy._kept  # the store is not compared


def test_an_enriched_monoidal_category_builds_its_underlying_once(monkeypatch):
    # the build tabulates its tensor once; record the em it builds for
    built = []
    bifunctor = enriched_monoidal.labelled_bifunctor

    def counting(*args):
        built.append(sys._getframe(1).f_locals["em"])
        return bifunctor(*args)

    monkeypatch.setattr(enriched_monoidal, "labelled_bifunctor", counting)
    em = preorder_enriched_monoidal()
    eb = EnrichedBraidedCategory(em, preorder_braiding_el(em), True)
    assert check_enriched_monoidal(em).ok
    assert check_enriched_braided(eb).ok
    assert len(gamma1(em, CAP).witnesses["objects"]) == 2
    assert len(built) == 1 and built[0] is em
    copy = dataclasses.replace(em)
    assert copy == em and check_enriched_monoidal(copy).ok
    assert len(built) == 2 and built[1] is copy
    # a build that raises is not kept, so the next read raises again
    bad = dataclasses.replace(em, associator={k: -1 for k in em.associator})
    for _ in range(2):
        with pytest.raises(StructureError):
            underlying_monoidal(bad)
    assert len(built) == 4 and not bad._kept


def test_an_enriched_category_builds_its_underlying_once(monkeypatch):
    # the build numbers its elements once, with e.one as the identity
    built = []
    number = enriched.labelled_category

    def counting(n, elements, identity, compose):
        built.append(identity.__self__)
        return number(n, elements, identity, compose)

    monkeypatch.setattr(enriched, "labelled_category", counting)
    em = preorder_enriched_monoidal()
    eb = EnrichedBraidedCategory(em, preorder_braiding_el(em), True)
    assert check_enriched_monoidal(em).ok
    assert check_enriched_braided(eb).ok
    res1 = gamma1(em, CAP)
    gamma2(eb, CAP)
    act = gamma1_evaluation_action(res1, em)
    assert verify_e1_universal(em, act, CAP, res1).report.ok
    assert sum(e is em.host for e in built) == 1
    assert len({id(e) for e in built}) == len(built)  # one build per instance
    e = em.host
    copy = dataclasses.replace(e)
    assert copy == e and not copy._kept
    assert underlying_category(copy) is underlying_category(copy)
    assert underlying_category(copy) == underlying_category(e)
    assert sum(b is copy for b in built) == 1
    # a build that raises is not kept, so the next read raises again
    bad = dataclasses.replace(e, ident={x: -1 for x in e.objects()})
    before = len(built)
    for _ in range(2):
        with pytest.raises(KeyError):
            underlying_category(bad)
    assert len(built) == before + 2 and not bad._kept


def _gamma1_stage_spends(em) -> list:
    """What each half-braiding enumeration and bracket-pair search of
    gamma1(em) spends on a budget of its own."""
    res = gamma1(em, CAP)
    spends = []
    for x in em.host.objects():
        b = Budget(CAP)
        enumerate_enriched_half_braidings(em, x, b)
        spends.append(b.used)
    objs = res.witnesses["objects"]
    for oi, oj in itertools.product(objs, repeat=2):
        b = Budget(CAP)
        bracket_pair(em, res.witnesses["z2"], oi, oj, b)
        spends.append(b.used)
    return spends


def _spent(stage) -> int:
    b = Budget(CAP)
    stage(b)
    return b.used


def _gamma1_of_canonical_stage_spends(cells) -> list:
    """What each stage of gamma1_of_canonical(cells) spends on a budget of
    its own: canonical construction, E1 center, carrier center, canonical
    construction on the module side, isomorphism search."""
    out = gamma1_of_canonical(cells, CAP)
    em = canonical_monoidal(cells, canonical_construction(cells.module, Budget(CAP)))
    can_b = out["module_side"]
    host = out["gamma1"].category.host.host
    return [
        _spent(lambda b: canonical_construction(cells.module, b)),
        sum(_gamma1_stage_spends(em)),
        _spent(lambda b: drinfeld_center_z1(cells.carrier_monoidal, b)),
        _spent(lambda b: canonical_construction(can_b.module, b)),
        _spent(
            lambda b: next(_enriched_functor_search(
                identity_lax(host.base), host, can_b.enriched, b, iso=True
            ))
        ),
    ]


@pytest.mark.parametrize(
    "run, spends",
    [
        (gamma1, lambda: _gamma1_stage_spends(preorder_enriched_monoidal())),
        (gamma1_of_canonical, lambda: _gamma1_of_canonical_stage_spends(lattice2_self_cells())),
    ],
    ids=["gamma1", "gamma1_of_canonical"],
)
def test_one_cap_bounds_the_sum_of_the_stages(run, spends):
    spends = spends()
    arg = preorder_enriched_monoidal() if run is gamma1 else lattice2_self_cells()
    total = sum(spends)
    assert max(spends) < total - 1
    run(arg, total)  # the stages share one budget of exactly their sum
    for cap in (max(spends), total - 1):
        with pytest.raises(BudgetExceeded):
            run(arg, cap)


# --- valid inputs without a center ---


def test_the_valid_semion_category_has_no_e1_and_no_e0_center():
    """The semion enriched monoidal category passes its check, yet its
    Müger center holds only the unit, which has no morphism into
    hom(0, 1) = 1: no pair has a terminal bracket pair, and no pair of the
    8 endofunctors of its host has a terminal family."""
    em = semion_enriched_monoidal()
    assert check_enriched_monoidal(em).ok
    with pytest.raises(StructureError, match=r"^no terminal bracket pair at \(0, 1\)$"):
        gamma1(em, CAP)
    star = condition_star(em.host, CAP)
    assert len(star.functors) == 8 and len(star.brackets) == 64
    assert all(b is None for b in star.brackets.values())
    pairs = sorted(star.brackets)
    with pytest.raises(StructureError) as info:
        e0_center(em.host, CAP)
    assert str(info.value) == f"no terminal half-braided family for pairs {pairs}"


# --- the input contract: what an invalid input makes each construction do ---


def _contract_inputs(name: str) -> dict:
    """The inputs of the four unvalidated constructions on a named fixture:
    the preorder enriched monoidal fixture, the semion base and its
    self-module, and the lattice-2, sign and z2 bases with the canonical
    categories of their self-modules. (The E1 center of the semion
    enriched monoidal category does not exist: no pair of its objects has a
    terminal bracket pair.)"""
    if name == "preorder":
        em = preorder_enriched_monoidal()
        return {
            "gamma1": em,
            "gamma2": EnrichedBraidedCategory(em, preorder_braiding_el(em), True),
        }
    if name == "semion":
        m = semion_monoidal()
        return {"drinfeld_center_z1": m, "canonical_construction": self_module(m)}
    b = identity_braiding(
        {"lattice2": lattice2_monoidal, "sign": sign_monoidal, "z2": z2_discrete_monoidal}[name]()
    )
    cells = monoidal_self_module(b)
    return {
        "drinfeld_center_z1": b.host,
        "canonical_construction": cells.module,
        "gamma1": canonical_monoidal(cells),
        "gamma2": canonical_braided(cells, b, symmetric=True),
    }


CONTRACT_RUNS = {
    "drinfeld_center_z1": drinfeld_center_z1,
    "canonical_construction": canonical_construction,
    "gamma1": lambda em: gamma1(em, CAP),
    "gamma2": lambda eb: gamma2(eb, CAP),
}


def _contract_tables(run: str, x) -> tuple:
    """The tables of x whose entries are changed, by name, and the category
    whose morphisms those entries are."""
    if run == "drinfeld_center_z1":
        return {
            "associator": x.associator, "left_unitor": x.left_unitor,
            "right_unitor": x.right_unitor, "tensor": x.tensor.mor_map,
        }, x.base
    if run == "canonical_construction":
        return {
            "oplax_assoc": x.oplax_assoc, "oplax_unitor": x.oplax_unitor,
            "act": x.act.mor_map,
        }, x.carrier
    em = x.host if run == "gamma2" else x
    tables = {
        "ident": em.host.ident, "comp": em.host.comp, "tensor": em.tensor.components,
        "associator": em.associator, "left_unitor": em.left_unitor,
        "right_unitor": em.right_unitor,
    }
    if run == "gamma2":
        tables["braiding_el"] = x.braiding_el
    return tables, em.host.base.base


def _set_entry(table, key, g):
    if isinstance(table, dict):
        return {**table, key: g}
    cells = list(table)
    cells[key] = g
    return tuple(cells)


def _contract_with(run: str, x, table: str, key, g):
    """x with entry key of the named table set to g."""
    def functor_with(fun):
        return dataclasses.replace(fun, mor_map=_set_entry(fun.mor_map, key, g))

    if run == "drinfeld_center_z1" and table == "tensor":
        return dataclasses.replace(x, tensor=functor_with(x.tensor))
    if run == "canonical_construction" and table == "act":
        return dataclasses.replace(x, act=functor_with(x.act))
    if run in ("drinfeld_center_z1", "canonical_construction") or table == "braiding_el":
        return dataclasses.replace(x, **{table: _set_entry(getattr(x, table), key, g)})
    em = x.host if run == "gamma2" else x
    if table in ("ident", "comp"):
        host = dataclasses.replace(em.host, **{table: _set_entry(getattr(em.host, table), key, g)})
        em = dataclasses.replace(em, host=host)
    elif table == "tensor":
        tensor = dataclasses.replace(
            em.tensor, components=_set_entry(dict(em.tensor.components), key, g)
        )
        em = dataclasses.replace(em, tensor=tensor)
    else:
        em = dataclasses.replace(em, **{table: _set_entry(getattr(em, table), key, g)})
    return dataclasses.replace(x, host=em) if run == "gamma2" else em


def _replacements(c, f, k) -> list:
    """Every other morphism of c typed as f, then the k-th (cyclically) of
    another type, if there is one."""
    same = [g for g in c.hom(c.dom[f], c.cod[f]) if g != f]
    other = [g for g in c.morphisms() if (c.dom[g], c.cod[g]) != (c.dom[f], c.cod[f])]
    return same + ([other[k % len(other)]] if other else [])


def _contract_outcome(run, x) -> str:
    """"." for a result, "S" for StructureError, "K" for KeyError;
    anything else escapes."""
    try:
        run(x)
    except StructureError:
        return "S"
    except KeyError:
        return "K"
    return "."


CONTRACT = {
    ("preorder", "gamma1"): {
        "ident": "KK",
        "comp": "SSSSSSSS",
        "tensor": "SSSSSS.SS.SS.SSS",
        "associator": "SSSSSSSS",
        "left_unitor": "SS",
        "right_unitor": "SS",
    },
    ("preorder", "gamma2"): {
        "ident": "KK",
        "comp": "SS.S...S",
        "tensor": "SSSS.S.S..SS...S",
        "associator": "SSSSSSSS",
        "left_unitor": "SS",
        "right_unitor": "SS",
        "braiding_el": "KKKK",
    },
    ("semion", "drinfeld_center_z1"): {
        "associator": "SSSSSSSSSSSSSSSSSSSSSSSSSSSS...S",
        "left_unitor": "SSSSSSSS",
        "right_unitor": "SSSSSSSS",
        "tensor": (
            "S.SSSSSSSSSSSSSSSSSSKKKSKKKSKKKSSSSS...K...K...KKKKS...K...K...K"
            "SSSS...K...K...KKKKS...K...K...KSSSS...K...K...KKKKS...K...K...K"
            "SSSSKKKSKKKSKKKSS.SS..SS...S.S.SKKKS...K...K...K..SS...K...K...K"
            "KKKS...K...K...K...S...K...K...KKKKS...K...K...K.S.S...K...K...K"
        ),
    },
    ("semion", "canonical_construction"): {
        "oplax_assoc": "...S...S...S...S...S...S...S...S",
        "oplax_unitor": "...K...K",
        "act": (
            "SSSS............SSSS............SSSS............SSSS............"
            "SSSS............SSSS............SSSS............SSSS............"
            "SSSS............SSSS............SSSS............SSSS............"
            "SSSS............SSSS............SSSS............SSSS............"
        ),
    },
    ("lattice2", "drinfeld_center_z1"): {
        "associator": "SSSSSSSS",
        "left_unitor": "SS",
        "right_unitor": "SS",
        "tensor": "SSSSSSSSK",
    },
    ("lattice2", "canonical_construction"): {
        "oplax_assoc": "..SS.SSK",
        "oplax_unitor": "KK",
        "act": "SSSSSSSS.",
    },
    ("lattice2", "gamma1"): {
        "ident": "KK",
        "comp": "SSSSSSSS",
        "tensor": "SSSSSS.SS.SS.SSS",
        "associator": "SSSSSSSS",
        "left_unitor": "SS",
        "right_unitor": "SS",
    },
    ("lattice2", "gamma2"): {
        "ident": "KK",
        "comp": "SS.S...S",
        "tensor": "SSSS.S.S..SS...S",
        "associator": "SSSSSSSS",
        "left_unitor": "SS",
        "right_unitor": "SS",
        "braiding_el": "KKKK",
    },
    ("sign", "drinfeld_center_z1"): {
        "associator": "S",
        "left_unitor": "S",
        "right_unitor": "S",
        "tensor": ".SS.",
    },
    ("sign", "canonical_construction"): {
        "oplax_assoc": ".",
        "oplax_unitor": ".",
        "act": "S.S.",
    },
    ("sign", "gamma1"): {
        "ident": "S",
        "comp": "S",
        "tensor": ".",
        "associator": "S",
        "left_unitor": "S",
        "right_unitor": "S",
    },
    ("sign", "gamma2"): {
        "ident": "S",
        "comp": "S",
        "tensor": ".",
        "associator": ".",
        "left_unitor": ".",
        "right_unitor": ".",
        "braiding_el": ".",
    },
    ("z2", "drinfeld_center_z1"): {
        "associator": "SSSSSSSS",
        "left_unitor": "SS",
        "right_unitor": "SS",
        "tensor": "SSSS",
    },
    ("z2", "canonical_construction"): {
        "oplax_assoc": "SSSSSSSS",
        "oplax_unitor": "KK",
        "act": "SSSS",
    },
    ("z2", "gamma1"): {
        "ident": "KK",
        "comp": "SSSSSSSS",
        "tensor": "SSS.SS.SS.SS.SSS",
        "associator": "SSSSSSSS",
        "left_unitor": "SS",
        "right_unitor": "SS",
    },
    ("z2", "gamma2"): {
        "ident": "KK",
        "comp": "S......S",
        "tensor": "S....S....S....S",
        "associator": "SSSSSSSS",
        "left_unitor": "SS",
        "right_unitor": "SS",
        "braiding_el": "KKKK",
    },
}


@pytest.mark.parametrize("name, run", list(CONTRACT), ids=lambda v: v)
def test_one_entry_mutations_keep_the_input_contract(name, run):
    """gamma1, gamma2, canonical_construction and drinfeld_center_z1 do not
    validate their input. Each one-entry change of a table of a valid
    input, one character per change in table order, gives a result, a
    StructureError or a KeyError, as pinned."""
    x = _contract_inputs(name)[run]
    assert _contract_outcome(CONTRACT_RUNS[run], x) == "."
    tables, c = _contract_tables(run, x)
    got = {}
    for table, cells in tables.items():
        items = cells.items() if isinstance(cells, dict) else enumerate(cells)
        got[table] = "".join(
            _contract_outcome(CONTRACT_RUNS[run], _contract_with(run, x, table, key, g))
            for k, (key, f) in enumerate(items)
            for g in _replacements(c, f, k)
        )
    assert got == CONTRACT[(name, run)]


@pytest.mark.parametrize(
    "name, run", [key for key in CONTRACT if key[1] in ("gamma1", "gamma2")], ids=lambda v: v
)
def test_one_entry_mutations_match_the_eager_background_and_bracket_oracles(
    name, run, monkeypatch
):
    """Each one-entry change of the contract, run once as it is and once
    with the eager tensor background and the per-candidate bracket squares
    of the frozen oracles, gives an equal result or raises the same error."""
    x = _contract_inputs(name)[run]
    tables, c = _contract_tables(run, x)
    changes = [
        _contract_with(run, x, table, key, g)
        for table, cells in tables.items()
        for k, (key, f) in enumerate(
            cells.items() if isinstance(cells, dict) else enumerate(cells)
        )
        for g in _replacements(c, f, k)
    ]

    def outcome(y):
        try:
            res = CONTRACT_RUNS[run](y)
            dict(res.category.host.tensor.components)
            return res
        except (StructureError, KeyError) as err:
            return type(err), str(err)

    got = [outcome(y) for y in changes]
    monkeypatch.setattr(
        centers, "braided_tensor_lax_structure", eager_braided_tensor_lax_structure
    )
    monkeypatch.setattr(centers, "bracket_pair", exhaustive_bracket_pair)
    assert got == [outcome(y) for y in changes]


# the tensor changes of CONTRACT that gamma1 returns on and whose cells
# raise when read, by position in the "tensor" string
LAZY_TENSOR_RAISES = {"preorder": (6, 9, 12), "lattice2": (6, 9, 12), "z2": (3, 6, 9, 12)}


@pytest.mark.parametrize("name", LAZY_TENSOR_RAISES)
def test_a_gamma1_tensor_cell_that_cannot_be_computed_raises_when_read(name):
    """gamma1 computes its tensor cells when they are read. On each tensor
    change pinned "." in CONTRACT but not before, gamma1 returns, and
    reading its cells in key order raises what the frozen eager cell loop
    raised, of the same type and with the same message."""
    x = _contract_inputs(name)["gamma1"]
    tables, c = _contract_tables("gamma1", x)
    changes = [
        _contract_with("gamma1", x, "tensor", key, g)
        for k, (key, f) in enumerate(tables["tensor"].items())
        for g in _replacements(c, f, k)
    ]
    for pos in LAZY_TENSOR_RAISES[name]:
        assert CONTRACT[(name, "gamma1")]["tensor"][pos] == "."
        y = changes[pos]
        res = gamma1(y, CAP)
        with pytest.raises((StructureError, KeyError)) as eager:
            eager_gamma1_cells(y, res)
        with pytest.raises(eager.type) as lazy:
            dict(res.category.host.tensor.components)
        assert (type(lazy.value), str(lazy.value)) == (eager.type, str(eager.value))
