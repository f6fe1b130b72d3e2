"""The one backtracking search against the enumerations it replaced.

Every enumeration in ecat now runs on core._search. The exhaustive_* oracles
in helpers.py are the bodies it replaced, each of which tried every
combination of its pools and filtered. Both must return the same list in the
same order (or, for the isomorphism searches, the same first solution), on
the ladder fixtures and on drawn thin and discrete inputs. The mediating
isomorphism count of the universal-property verifiers is compared with its
pre-skeleton oracles in test_universal_oracle.py.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecat.actions import _rlax_search, monoidal_self_module, self_module
from ecat.canonical import (
    canonical_construction,
    canonical_monoidal,
    enumerate_enriched_functors,
    enumerate_rlax,
)
from ecat.centers import (
    bracket_family,
    e0_center_via_module,
    enriched_iso_search,
    enumerate_identity_background_functors,
)
from ecat.core import (
    FinCategory,
    _search,
    enumerate_functors,
    enumerate_nat_transfs,
    iso_search,
)
from ecat.enriched import EnrichedCategory, _enriched_functor_search
from ecat.enriched_monoidal import enumerate_enriched_half_braidings
from ecat.monoidal import drinfeld_center_z1, enumerate_half_braidings, identity_lax
from ecat.report import Budget, BudgetExceeded

from helpers import (
    chain2_enriched,
    chain3_enriched,
    chain3_monoidal,
    discrete,
    exhaustive_bracket_family,
    exhaustive_enriched_iso_search,
    exhaustive_enumerate_enriched_functors,
    exhaustive_enumerate_enriched_half_braidings,
    exhaustive_enumerate_functors,
    exhaustive_enumerate_half_braidings,
    exhaustive_enumerate_identity_background_functors,
    exhaustive_enumerate_module_endofunctors,
    exhaustive_enumerate_nat_transfs,
    exhaustive_enumerate_rlax,
    exhaustive_iso_search,
    exhaustive_module_nats,
    group_monoidal,
    identity_braiding,
    lattice2_monoidal,
    lattice4_monoidal,
    lattice4_self_enriched,
    lattice8_self_enriched,
    lattice_adjunction,
    parallel_pair,
    preorder_enriched_monoidal,
    semion_enriched_monoidal,
    semion_monoidal,
    thin_category,
    thin_enriched,
    thin_monoidal,
    z2_discrete_monoidal,
    z2_enriched,
)

CAP = 10**7

MONOIDALS = {
    "z2": z2_discrete_monoidal,
    "semion": semion_monoidal,
    "lattice2": lattice2_monoidal,
    "chain3": chain3_monoidal,
    "lattice4": lattice4_monoidal,
    "preorder": lambda: preorder_enriched_monoidal().host.base,
}

ENRICHED = {
    "z2": z2_enriched,
    "semion": lambda: semion_enriched_monoidal().host,
    "chain2": chain2_enriched,
    "chain3": chain3_enriched,
    "lattice4": lattice4_self_enriched,
    "preorder": lambda: preorder_enriched_monoidal().host,
}

ENRICHED_MONOIDALS = {
    "semion": semion_enriched_monoidal,
    "preorder": preorder_enriched_monoidal,
    "lattice2": lambda: canonical_monoidal(_self_cells(lattice2_monoidal())),
    "lattice4": lambda: canonical_monoidal(_self_cells(lattice4_monoidal())),
    "chain3": lambda: canonical_monoidal(_self_cells(chain3_monoidal())),
}


def _self_cells(m):
    return monoidal_self_module(identity_braiding(m))


# --- drawn inputs ---


def _closure(n, pairs):
    """The reflexive transitive closure of pairs on n objects, as leq."""
    reach = {(x, x) for x in range(n)} | set(pairs)
    for k, x, y in itertools.product(range(n), repeat=3):
        if (x, k) in reach and (k, y) in reach:
            reach.add((x, y))
    return lambda x, y: (x, y) in reach


@st.composite
def thin_categories(draw, max_objects=3):
    n = draw(st.integers(1, max_objects))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    return thin_category(n, _closure(n, pairs))


def small_categories(max_objects=3):
    return st.one_of(
        thin_categories(max_objects),
        st.integers(1, max_objects).map(discrete),
    )


def cyclic_monoidal(n):
    return group_monoidal([[(i + j) % n for j in range(n)] for i in range(n)], 0)


def chain_monoidal(n):
    return thin_monoidal(thin_category(n, lambda x, y: x <= y), min, n - 1)


@st.composite
def drawn_monoidals(draw):
    """A chain with meet or a cyclic group, as a discrete monoidal category."""
    n = draw(st.integers(1, 4))
    return draw(st.sampled_from([chain_monoidal, cyclic_monoidal]))(n)


@st.composite
def drawn_enriched(draw):
    """Thin (a chain enriched in itself by Goedel implication) or discrete
    (a cyclic group enriched in itself by division), on drawn objects."""
    n = draw(st.integers(1, 3))
    thin = draw(st.booleans())
    objs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    if thin:
        return thin_enriched(chain_monoidal(n), objs, lambda x, y: n - 1 if x <= y else y)
    return thin_enriched(cyclic_monoidal(n), objs, lambda x, y: (y - x) % n)


def relabel(c: FinCategory, obj_perm, mor_perm) -> FinCategory:
    """c with object x renamed obj_perm[x] and morphism f renamed mor_perm[f]."""
    dom, cod = [0] * c.n_morphisms, [0] * c.n_morphisms
    for f in c.morphisms():
        dom[mor_perm[f]], cod[mor_perm[f]] = obj_perm[c.dom[f]], obj_perm[c.cod[f]]
    identity = [0] * c.n_objects
    for x in c.objects():
        identity[obj_perm[x]] = mor_perm[c.identity[x]]
    compose = {(mor_perm[g], mor_perm[f]): mor_perm[h] for (g, f), h in c.compose.items()}
    return FinCategory(c.n_objects, tuple(dom), tuple(cod), tuple(identity), compose)


def relabel_enriched(e: EnrichedCategory, perm) -> EnrichedCategory:
    """e with object x renamed perm[x]."""
    n = e.n_objects
    pairs = itertools.product(range(n), repeat=2)
    return EnrichedCategory(
        e.base,
        n,
        {(perm[x], perm[y]): e.hom(x, y) for x, y in pairs},
        {perm[x]: e.one(x) for x in range(n)},
        {
            (perm[x], perm[y], perm[z]): e.c(x, y, z)
            for x, y, z in itertools.product(range(n), repeat=3)
        },
    )


# --- the search itself ---


def test_search_yields_product_order_and_counts_nodes():
    pools = [[2, 0], [], [1]]
    budget = Budget(CAP)
    assert list(_search(3, lambda i, a: pools[i], (), budget)) == []
    assert budget.used == 2  # both values of variable 0, then an empty domain
    pools = [[2, 0], [5, 3, 4]]
    budget = Budget(CAP)
    got = list(_search(2, lambda i, a: pools[i], (), budget))
    assert got == list(itertools.product(*pools))
    assert budget.used == 2 + 2 * 3


def test_search_without_variables_yields_one_empty_assignment():
    assert list(_search(0, None, (), Budget(1))) == [()]


def test_search_prunes_at_the_last_variable_of_a_scope():
    budget = Budget(CAP)
    found = list(_search(3, lambda i, a: range(3), [(1, lambda a: a[0] < a[1])], budget))
    assert found == [t for t in itertools.product(range(3), repeat=3) if t[0] < t[1]]
    # 3 nodes at variable 0, 9 at variable 1, and 3 for each of the 3 survivors
    assert budget.used == 3 + 9 + 9


def test_search_domains_read_earlier_values():
    found = list(_search(2, lambda i, a: range(3) if i == 0 else range(a[0]), (), Budget(CAP)))
    assert found == [(1, 0), (2, 0), (2, 1)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=4),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_search_matches_filtered_product(pools, k, bound):
    n = len(pools)
    constraints = [(min(k, n - 1), lambda a: sum(a[: k + 1]) <= bound)] if n else []
    got = list(_search(n, lambda i, a: pools[i], constraints, Budget(CAP)))
    want = [t for t in itertools.product(*pools) if sum(t[: k + 1]) <= bound]
    assert got == want


def test_search_raises_when_the_budget_runs_out():
    with pytest.raises(BudgetExceeded):
        list(_search(2, lambda i, a: range(3), (), Budget(11)))
    assert len(list(_search(2, lambda i, a: range(3), (), Budget(12)))) == 9


# --- functors, natural transformations, isomorphisms ---


def _ladder_categories():
    return {name: build().base for name, build in MONOIDALS.items()}


def test_iso_search_matches_oracle_on_parallel_arrows():
    """Two parallel arrows: a functor that is bijective on objects and
    misses no identity may still merge them, so injectivity is checked."""
    c = parallel_pair()
    d = relabel(c, [1, 0], list(reversed(range(c.n_morphisms))))
    found = iso_search(c, d, CAP)
    assert found == exhaustive_iso_search(c, d, CAP)
    assert sorted(found.mor_map) == list(d.morphisms())


@pytest.mark.parametrize("name", list(MONOIDALS))
def test_enumerate_functors_matches_oracle(name):
    cats = _ladder_categories()
    c = cats[name]
    for d in cats.values():
        assert enumerate_functors(c, d, CAP) == exhaustive_enumerate_functors(c, d, CAP)


@pytest.mark.parametrize("name", list(MONOIDALS))
def test_enumerate_nat_transfs_matches_oracle(name):
    c = _ladder_categories()[name]
    funs = enumerate_functors(c, c, CAP)[:6]
    for f, g in itertools.product(funs, repeat=2):
        want = exhaustive_enumerate_nat_transfs(f, g, CAP)
        assert enumerate_nat_transfs(f, g, CAP) == want


@pytest.mark.parametrize("name", list(MONOIDALS))
def test_iso_search_matches_oracle(name):
    cats = _ladder_categories()
    c = cats[name]
    objs = list(reversed(range(c.n_objects)))
    mors = list(reversed(range(c.n_morphisms)))
    for d in [*cats.values(), relabel(c, objs, mors)]:
        assert iso_search(c, d, CAP) == exhaustive_iso_search(c, d, CAP)


@settings(max_examples=40, deadline=None)
@given(small_categories(), small_categories())
def test_functors_match_oracle_on_drawn_categories(c, d):
    funs = enumerate_functors(c, d, CAP)
    assert funs == exhaustive_enumerate_functors(c, d, CAP)
    for f, g in itertools.product(funs[:4], repeat=2):
        assert enumerate_nat_transfs(f, g, CAP) == exhaustive_enumerate_nat_transfs(f, g, CAP)
    assert iso_search(c, d, CAP) == exhaustive_iso_search(c, d, CAP)


@settings(max_examples=40, deadline=None)
@given(small_categories(), st.data())
def test_iso_search_matches_oracle_on_drawn_relabellings(c, data):
    objs = data.draw(st.permutations(range(c.n_objects)))
    mors = data.draw(st.permutations(range(c.n_morphisms)))
    d = relabel(c, objs, mors)
    found = iso_search(c, d, CAP)
    assert found is not None
    assert found == exhaustive_iso_search(c, d, CAP)


# --- half-braidings ---


@pytest.mark.parametrize("name", list(MONOIDALS))
def test_enumerate_half_braidings_matches_oracle(name):
    m = MONOIDALS[name]()
    for x in m.base.objects():
        want = exhaustive_enumerate_half_braidings(m, x, Budget(CAP))
        assert enumerate_half_braidings(m, x, Budget(CAP)) == want


@settings(max_examples=25, deadline=None)
@given(drawn_monoidals())
def test_half_braidings_match_oracle_on_drawn_monoidals(m):
    for x in m.base.objects():
        want = exhaustive_enumerate_half_braidings(m, x, Budget(CAP))
        assert enumerate_half_braidings(m, x, Budget(CAP)) == want


@pytest.mark.parametrize("name", list(ENRICHED_MONOIDALS))
def test_enumerate_enriched_half_braidings_matches_oracle(name):
    em = ENRICHED_MONOIDALS[name]()
    for x in range(em.host.n_objects):
        want = exhaustive_enumerate_enriched_half_braidings(em, x, CAP)
        assert enumerate_enriched_half_braidings(em, x, CAP) == want


# --- enriched endofunctors, terminal families, enriched isomorphisms ---


def _check_enriched_searches(e):
    funs = enumerate_identity_background_functors(e, e, CAP)
    assert funs == exhaustive_enumerate_identity_background_functors(e, e, CAP)
    z1 = drinfeld_center_z1(e.base, Budget(CAP))
    for f, g in itertools.product(funs, repeat=2):
        want = exhaustive_bracket_family(e, f, g, z1, CAP)
        assert bracket_family(e, f, g, z1, Budget(CAP)) == want
    perm = list(reversed(range(e.n_objects)))
    for other in (e, relabel_enriched(e, perm)):
        assert enriched_iso_search(e, other, CAP) == exhaustive_enriched_iso_search(e, other, CAP)


@pytest.mark.parametrize("name", list(ENRICHED))
def test_enriched_searches_match_oracle(name):
    _check_enriched_searches(ENRICHED[name]())


@settings(max_examples=25, deadline=None)
@given(drawn_enriched())
def test_enriched_searches_match_oracle_on_drawn_inputs(e):
    _check_enriched_searches(e)


def test_lattice8_e0_enumeration_finds_27_functors():
    e = lattice8_self_enriched()
    funs = enumerate_identity_background_functors(e, e, CAP)
    # brute force over all 8^8 object maps with [x, y] <= [Fx, Fy]
    assert len(funs) == 27
    assert len({f.obj_map for f in funs}) == 27


def test_lattice8_e0_enumeration_spends_one_unit_per_node():
    """Every object map tried is paid for, not only the 27 that survive."""
    e = lattice8_self_enriched()
    budget = Budget(CAP)
    assert len(list(_enriched_functor_search(identity_lax(e.base), e, e, budget))) == 27
    with pytest.raises(BudgetExceeded):
        enumerate_identity_background_functors(e, e, budget.used - 1)
    assert len(enumerate_identity_background_functors(e, e, budget.used)) == 27


# --- the canonical construction's 1-cells and the module route to E0 ---


def _canonical_cases():
    cans = {
        name: canonical_construction(self_module(MONOIDALS[name]()))
        for name in ("z2", "lattice2", "chain3", "lattice4")
    }
    cases = [
        (cans[name], cans[name], identity_lax(MONOIDALS[name]())) for name in cans
    ]
    # along the right adjoint lattice-4 -> lattice-2, not an identity
    return cases + [(cans["lattice4"], cans["lattice2"], lattice_adjunction()[0].right)]


@pytest.mark.parametrize(
    "case", range(5), ids=["z2", "lattice2", "chain3", "lattice4", "lattice4-to-lattice2"]
)
def test_one_cell_enumerations_match_oracle(case):
    src, tgt, r = _canonical_cases()[case]
    assert enumerate_rlax(r, src, tgt, CAP) == exhaustive_enumerate_rlax(r, src, tgt, CAP)
    want = exhaustive_enumerate_enriched_functors(r, src, tgt, CAP)
    assert enumerate_enriched_functors(r, src, tgt, CAP) == want


def _check_module_route(mod):
    mfs = _rlax_search(identity_lax(mod.base), mod, mod, Budget(CAP))
    assert mfs == exhaustive_enumerate_module_endofunctors(mod, CAP)
    nats = e0_center_via_module(mod, CAP).witnesses["nats"]
    assert list(nats) == exhaustive_module_nats(mod, mfs, CAP)


@pytest.mark.parametrize("name", ["z2", "lattice2", "chain3", "lattice4", "preorder"])
def test_module_endofunctor_searches_match_oracle(name):
    _check_module_route(self_module(MONOIDALS[name]()))


@settings(max_examples=15, deadline=None)
@given(drawn_monoidals())
def test_module_endofunctor_searches_match_oracle_on_drawn_inputs(m):
    _check_module_route(self_module(m))
