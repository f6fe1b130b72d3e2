"""Product views against the eager product builders of helpers.py.

The library builds products of categories, monoidal categories, lax monoidal
functors, enriched categories and enriched functors as index views. Every
entry must equal the one the eager builder writes out, on single and nested
products, and the views must behave as the tuples and dicts they replace.
"""

import dataclasses
import itertools
import re
from collections.abc import Mapping, Sequence

import pytest

import ecat.enriched
from ecat.actions import monoidal_self_module
from ecat.canonical import canonical_monoidal
from ecat.centers import e0_center, evaluation_action, verify_e0_universal
from ecat.core import (
    ProductCompose,
    ProductMapping,
    ProductSequence,
    check_category,
    product_category,
)
from ecat.enriched import (
    _computed,
    cartesian_product_enriched,
    compose_enriched_functors,
    identity_enriched_functor,
    object_functor,
    product_enriched_functor,
    swap_enriched_functor,
)
from ecat.enriched_monoidal import (
    EnrichedBraidedCategory,
    associator_nat,
    check_enriched_braided,
)
from ecat.monoidal import (
    braided_tensor_lax_structure,
    check_lax_monoidal_functor,
    check_monoidal,
    identity_lax,
    product_lax,
    product_monoidal,
    unit_pick_lax,
)
from ecat.report import StructureError

from helpers import (
    chain2_enriched,
    chain3_enriched,
    chain3_monoidal,
    eager_cartesian_product_enriched,
    eager_compose_lax,
    eager_product_category,
    eager_product_enriched_functor,
    eager_product_lax,
    eager_product_monoidal,
    exhaustive_associator_nat,
    exhaustive_compose_enriched_functors,
    identity_braiding,
    lattice2_monoidal,
    lattice4_monoidal,
    preorder_enriched_monoidal,
    semion_enriched_monoidal,
    semion_monoidal,
    z2_discrete_monoidal,
    z2_enriched,
)

MONOIDAL = {
    "z2": z2_discrete_monoidal,
    "semion": semion_monoidal,
    "lattice2": lattice2_monoidal,
    "chain3": chain3_monoidal,
}
ENRICHED = {
    "z2": z2_enriched,
    "semion": lambda: semion_enriched_monoidal().host,
    "lattice2": chain2_enriched,
    "chain3": chain3_enriched,
}
PAIRS = [("z2", "semion"), ("lattice2", "chain3"), ("semion", "z2"), ("chain3", "z2")]
TRIPLES = [("z2", "semion", "lattice2"), ("chain3", "lattice2", "z2")]


def assert_entrywise(view, oracle, path="root"):
    """Walk two structures field by field and compare every table entry.

    Sequences are read position by position, mappings key by key through
    ``__getitem__``, so a view is checked entry by entry, not only through
    its own equality.
    """
    if dataclasses.is_dataclass(view):
        assert type(view) is type(oracle), path
        for fld in dataclasses.fields(view):
            assert_entrywise(
                getattr(view, fld.name), getattr(oracle, fld.name), f"{path}.{fld.name}"
            )
    elif isinstance(view, Mapping):
        assert len(view) == len(oracle), path
        assert set(view) == set(oracle), path
        for key, value in oracle.items():
            assert view[key] == value, (path, key)
    elif isinstance(view, Sequence) and not isinstance(view, str):
        assert len(view) == len(oracle), path
        for k, value in enumerate(oracle):
            assert view[k] == value, (path, k)
    else:
        assert view == oracle, path


def lax_functors(name):
    """A few lax monoidal functors out of a fixture: identity, unit pick,
    and for the two smallest the braided tensor functor out of M x M."""
    m = MONOIDAL[name]()
    out = [identity_lax(m), unit_pick_lax(m)]
    if name in ("z2", "lattice2"):
        out.append(braided_tensor_lax_structure(identity_braiding(m)))
    return out


def enriched_functors(name):
    e = ENRICHED[name]()
    out = [identity_enriched_functor(e), object_functor(e, e.n_objects - 1)]
    if name == "lattice2":
        out.append(preorder_enriched_monoidal().tensor)
    return out


# --- every entry against the eager oracle ---


@pytest.mark.parametrize("a, b", PAIRS)
def test_product_category_matches_oracle(a, b):
    c, d = MONOIDAL[a]().base, MONOIDAL[b]().base
    p = product_category(c, d)
    assert isinstance(p.compose, ProductCompose)
    assert isinstance(p.dom, ProductSequence)
    assert type(p.identity) is tuple
    assert_entrywise(p, eager_product_category(c, d))


@pytest.mark.parametrize("a, b", PAIRS)
def test_product_monoidal_matches_oracle(a, b):
    m, n = MONOIDAL[a](), MONOIDAL[b]()
    assert_entrywise(product_monoidal(m, n), eager_product_monoidal(m, n))


@pytest.mark.parametrize("a, b", PAIRS)
def test_product_lax_matches_oracle(a, b):
    for f, g in itertools.product(lax_functors(a), lax_functors(b)):
        assert_entrywise(product_lax(f, g), eager_product_lax(f, g))


@pytest.mark.parametrize("a, b", PAIRS)
def test_cartesian_product_enriched_matches_oracle(a, b):
    e1, e2 = ENRICHED[a](), ENRICHED[b]()
    assert_entrywise(
        cartesian_product_enriched(e1, e2), eager_cartesian_product_enriched(e1, e2)
    )


@pytest.mark.parametrize("a, b", PAIRS)
def test_product_enriched_functor_matches_oracle(a, b):
    for f, g in itertools.product(enriched_functors(a), enriched_functors(b)):
        assert_entrywise(
            product_enriched_functor(f, g), eager_product_enriched_functor(f, g)
        )


@pytest.mark.parametrize("a, b, c", TRIPLES)
def test_nested_products_match_oracle_both_bracketings(a, b, c):
    ma, mb, mc = MONOIDAL[a](), MONOIDAL[b](), MONOIDAL[c]()
    left = product_monoidal(product_monoidal(ma, mb), mc)
    right = product_monoidal(ma, product_monoidal(mb, mc))
    assert_entrywise(left, eager_product_monoidal(eager_product_monoidal(ma, mb), mc))
    assert_entrywise(right, eager_product_monoidal(ma, eager_product_monoidal(mb, mc)))
    # the index arithmetic is associative, and nested views flatten
    assert left == right
    assert left.base.compose.factors == right.base.compose.factors
    assert left.associator.factors == right.associator.factors

    ea, eb, ec = ENRICHED[a](), ENRICHED[b](), ENRICHED[c]()
    el = cartesian_product_enriched(cartesian_product_enriched(ea, eb), ec)
    er = cartesian_product_enriched(ea, cartesian_product_enriched(eb, ec))
    assert_entrywise(
        el, eager_cartesian_product_enriched(eager_cartesian_product_enriched(ea, eb), ec)
    )
    assert_entrywise(
        er, eager_cartesian_product_enriched(ea, eager_cartesian_product_enriched(eb, ec))
    )
    assert el == er


# --- equality, inequality and membership ---


def test_equality_with_tuples_dicts_and_views():
    c, d = lattice2_monoidal().base, semion_monoidal().base
    p, q, o = product_category(c, d), product_category(c, d), eager_product_category(c, d)
    assert p.dom == o.dom and o.dom == p.dom
    assert p.compose == o.compose and o.compose == p.compose
    assert p.dom == q.dom and p.compose == q.compose
    assert p == o and o == p and p == q
    assert hash(p.dom) == hash(o.dom)
    assert p.dom != list(o.dom)
    assert p.compose != 0


def test_inequality_after_one_entry_change():
    c, d = lattice2_monoidal().base, semion_monoidal().base
    p, o = product_category(c, d), eager_product_category(c, d)
    key = next(iter(o.compose))
    changed = dict(o.compose)
    changed[key] = (changed[key] + 1) % p.n_morphisms
    assert p.compose != changed and changed != p.compose
    cod = list(o.cod)
    cod[-1] = (cod[-1] + 1) % p.n_objects
    assert p.cod != tuple(cod) and tuple(cod) != p.cod

    # views of different factors compare entry by entry
    factor = dict(c.compose)
    factor[(2, 0)] = 0
    q = product_category(dataclasses.replace(c, compose=factor), d)
    assert p.compose != q.compose and p != q

    m, n = lattice2_monoidal(), semion_monoidal()
    pm = product_monoidal(m, n)
    assoc = dict(eager_product_monoidal(m, n).associator)
    assoc[(0, 0, 0)] = (assoc[(0, 0, 0)] + 1) % pm.base.n_morphisms
    assert pm.associator != assoc and assoc != pm.associator


def test_membership_and_out_of_range_lookups():
    c, d = lattice2_monoidal().base, semion_monoidal().base
    p, o = product_category(c, d), eager_product_category(c, d)
    m = p.n_morphisms
    non_composable = [
        (g, f) for g, f in itertools.product(range(m), repeat=2) if p.cod[f] != p.dom[g]
    ]
    assert non_composable
    for key in non_composable:
        assert key not in p.compose and p.compose.get(key) is None
    with pytest.raises(StructureError, match="compose undefined"):
        p.comp(*non_composable[0])
    for key in [(m, 0), (0, m), (-1, 0), (0, -1), (0,), (0, 0, 0), 0, "x"]:
        assert key not in p.compose and p.compose.get(key) is None
        with pytest.raises(KeyError):
            p.compose[key]

    assert p.dom[-1] == o.dom[-1] and p.dom[-m] == o.dom[0]
    assert p.dom[1:5] == o.dom[1:5] and p.dom[::-3] == o.dom[::-3]
    for index in (m, -m - 1):
        with pytest.raises(IndexError):
            p.dom[index]
    with pytest.raises(TypeError):
        p.dom["0"]
    assert list(reversed(p.cod)) == list(reversed(o.cod))
    assert p.dom.index(o.dom[3]) == o.dom.index(o.dom[3])
    assert p.dom.count(0) == o.dom.count(0)

    e = cartesian_product_enriched(z2_enriched(), chain3_enriched())
    n = e.n_objects
    for key in (n, -1, (0,), None):
        assert key not in e.ident and e.ident.get(key) is None
    assert (0, 0, n) not in e.comp and (n, 0) not in e.hom_obj
    assert e.comp.get((0, 0, -1)) is None


def test_dict_and_replace_round_trips():
    m, n = chain3_monoidal(), z2_discrete_monoidal()
    p = product_monoidal(m, n)
    assert dict(p.associator) == eager_product_monoidal(m, n).associator
    assert dict(p.base.compose) == eager_product_category(m.base, n.base).compose
    base = dataclasses.replace(
        p.base, dom=tuple(p.base.dom), cod=tuple(p.base.cod), compose=dict(p.base.compose)
    )
    assert base == p.base and p.base == base
    copy = dataclasses.replace(
        p, base=base, associator=dict(p.associator), left_unitor=tuple(p.left_unitor)
    )
    assert copy == p and p == copy
    e = cartesian_product_enriched(chain2_enriched(), z2_enriched())
    copy = dataclasses.replace(
        e, hom_obj=dict(e.hom_obj), ident=dict(e.ident), comp=dict(e.comp)
    )
    assert copy == e and e == copy


def test_views_refuse_unknown_arities():
    with pytest.raises(ValueError):
        ProductSequence([((0,), 1, 1)], 3)
    with pytest.raises(ValueError):
        ProductMapping([({(0,) * 4: 0}, 1, 1)], 4)


# --- the checkers still see a mutated entry of a product ---


def test_check_category_reports_mutated_product_entry():
    c, d = lattice2_monoidal().base, chain3_monoidal().base
    p = product_category(c, d)
    assert check_category(p).ok
    compose = dict(p.compose)
    g, f = next(k for k, h in compose.items() if k[0] != k[1])
    compose[(g, f)] = next(h for h in range(p.n_morphisms) if p.dom[h] != p.dom[f])
    rep = check_category(dataclasses.replace(p, compose=compose))
    assert rep.laws() == {"compose-typing"}
    assert [v.instance for v in rep.violations] == [(g, f)]


def test_check_monoidal_reports_mutated_product_entry():
    m, n = lattice2_monoidal(), semion_monoidal()
    p = product_monoidal(m, n)
    assert check_monoidal(p).ok
    assoc = dict(p.associator)
    x = (3, 3, 3)
    f = assoc[x]
    assoc[x] = f - f % 4 + (f % 4 + 1) % 4  # another automorphism: one phase more
    rep = check_monoidal(dataclasses.replace(p, associator=assoc))
    assert not rep.ok
    assert "pentagon" in rep.laws() and "associator-typing" not in rep.laws()

    wrong = dict(p.associator)
    wrong[(0, 0, 0)] = p.base.identity[1]
    rep = check_monoidal(dataclasses.replace(p, associator=wrong))
    assert [(v.law, v.instance) for v in rep.violations] == [("associator-typing", (0, 0, 0))]


def test_check_lax_monoidal_functor_reports_mutated_product_entry():
    f = braided_tensor_lax_structure(identity_braiding(lattice2_monoidal()))
    g = identity_lax(chain3_monoidal())
    p = product_lax(f, g)
    assert check_lax_monoidal_functor(p).ok
    mult = dict(p.mult)
    key = (1, 2)
    mult[key] = p.target.base.identity[0]
    rep = check_lax_monoidal_functor(dataclasses.replace(p, mult=mult))
    assert [(v.law, v.instance) for v in rep.violations] == [("mult-cell-typing", key)]


# --- no B^3 tensor table is materialised ---


def _largest_table(obj):
    """Largest tuple, list or dict reachable from obj, and the largest view."""
    seen, stack = set(), [obj]
    largest = largest_view = 0
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, (int, str, bool)) or x is None:
            continue
        seen.add(id(x))
        if isinstance(x, (ProductSequence, ProductMapping)):
            largest_view = max(largest_view, len(x))
            stack.extend(table for table, _, _ in x.factors)
        elif isinstance(x, (tuple, list)):
            largest = max(largest, len(x))
            stack.extend(x)
        elif isinstance(x, dict):
            largest = max(largest, len(x))
            stack.extend(x.values())
        elif dataclasses.is_dataclass(x):
            stack.extend(getattr(x, fld.name) for fld in dataclasses.fields(x))
    return largest, largest_view


def test_lattice4_associator_nat_materialises_no_cube_tensor():
    m = lattice4_monoidal()
    em = canonical_monoidal(monoidal_self_module(identity_braiding(m)))
    nat = associator_nat(em)
    cube = nat.source.source  # (E x E) x E
    mor_map = cube.base.tensor.mor_map
    assert len(mor_map) == (m.base.n_morphisms**3) ** 2 == 531_441
    largest, largest_view = _largest_table(nat)
    assert largest_view >= 531_441
    assert largest < 531_441


# --- composite enriched functors read their components lazily ---


@pytest.mark.parametrize("build", [semion_enriched_monoidal, preorder_enriched_monoidal])
def test_composite_components_are_the_eager_dict_computed_on_read(build):
    em = build()
    lazy = associator_nat(em).source.components
    eager = exhaustive_associator_nat(em).source.components
    n = int(len(eager) ** 0.5)
    key = (n - 1, n // 2)
    assert lazy[key] == eager[key]
    assert lazy._memo == {key: eager[key]}
    assert len(lazy) == len(eager)
    assert list(lazy) == list(eager)
    assert (0, 0) in lazy and (n, 0) not in lazy and (0, -1) not in lazy and 0 not in lazy
    with pytest.raises(KeyError):
        lazy[(n, 0)]
    assert lazy.get((n, 0)) is None and lazy.get((0, n), 7) == 7
    assert list(lazy.items()) == list(eager.items())
    assert list(lazy.values()) == list(eager.values())
    assert lazy == eager and eager == lazy and dict(lazy) == eager
    assert lazy != {**eager, key: eager[key] + 1}


@pytest.mark.parametrize("build", [semion_enriched_monoidal, preorder_enriched_monoidal])
def test_composite_mult_is_the_eager_dict_computed_on_read(build):
    em = build()
    lazy = associator_nat(em).source.background
    eager = exhaustive_associator_nat(em).source.background
    assert (lazy.functor, lazy.unit_cell, lazy.direction) == (
        eager.functor, eager.unit_cell, eager.direction
    )
    n = int(len(eager.mult) ** 0.5)
    key = (n - 1, n // 2)
    assert lazy.m2(*key) == eager.m2(*key)
    assert lazy.mult._memo == {key: eager.mult[key]}
    assert list(lazy.mult) == list(eager.mult)
    assert lazy.mult == eager.mult and lazy == eager


def test_composite_components_raise_where_the_eager_build_raised():
    em = semion_enriched_monoidal()
    f = product_enriched_functor(em.tensor, identity_enriched_functor(em.host))
    c = em.host.base.base
    n = f.source.n_objects
    first = (n - 1, n - 2)  # the pair whose tensor cell is broken below
    cell = (f.on_obj(first[0]), f.on_obj(first[1]))
    good = em.tensor.components[cell]
    other_dom = next(g for g in c.morphisms() if c.dom[g] != c.dom[good])
    dropped = {k: v for k, v in em.tensor.components.items() if k != cell}
    mistyped = {**em.tensor.components, cell: other_dom}
    for comps, error in ((dropped, KeyError), (mistyped, StructureError)):
        g = dataclasses.replace(em.tensor, components=comps)
        with pytest.raises(error):
            exhaustive_compose_enriched_functors(g, f)
        lazy = compose_enriched_functors(g, f).components
        bad = [k for k in lazy if (f.on_obj(k[0]), f.on_obj(k[1])) == cell]
        assert bad[0] <= first
        for key in itertools.islice(lazy, 5):
            if key not in bad:
                assert lazy[key] == compose_enriched_functors(em.tensor, f).components[key]
        with pytest.raises(error):
            lazy[bad[0]]
        with pytest.raises(error):
            lazy.get(bad[-1])
        with pytest.raises(error):
            list(lazy.items())
        with pytest.raises(error):
            _computed(compose_enriched_functors(g, f))


def test_check_enriched_braided_raises_where_the_eager_composite_raised():
    # The braiding nat's target is the tensor after the switch; a tensor
    # component that cannot be composed there raises before any square is
    # read, with the first bad entry in (x, y) order, as the dict build did.
    em = preorder_enriched_monoidal()
    e = em.host
    c = e.base.base
    sigma = swap_enriched_functor(e, e)
    braiding_el = {
        (x, y): e.one(em.t(x, y)) for x, y in itertools.product(e.objects(), repeat=2)
    }
    raised = 0
    for key, f in em.tensor.components.items():
        for g in c.morphisms():
            if g == f:
                continue
            tensor = dataclasses.replace(
                em.tensor, components={**em.tensor.components, key: g}
            )
            try:
                exhaustive_compose_enriched_functors(tensor, sigma)
            except Exception as err:
                raised += 1
                eb = EnrichedBraidedCategory(dataclasses.replace(em, tensor=tensor), braiding_el)
                with pytest.raises(type(err), match=re.escape(str(err))):
                    check_enriched_braided(eb)
    assert raised


def test_the_e0_rho_nat_reports_or_raises_as_on_the_eager_composites(monkeypatch):
    # verify_e0_universal composes the action with the product of the
    # comparison functor and the identity, and checks the rho nat on that
    # composite; a mistyped mult cell of the action's background must give
    # the same verdict, or the same error, as the eager composites did.
    e = chain2_enriched()
    res = e0_center(e, 10**6)
    action = evaluation_action(res, e)
    bg = action.odot.background
    c = e.base.base
    lazy = ecat.enriched.compose_lax

    def outcome(act):
        try:
            out = verify_e0_universal(e, act, 10**6, res=res)
            return ("report", tuple(out.report.violations), out.uniqueness_count)
        except Exception as err:
            return ("raise", type(err).__name__, str(err))

    kinds = set()
    for key, f in bg.mult.items():
        for g in c.morphisms():
            if g != f:
                mult = {**bg.mult, key: g}
                odot = dataclasses.replace(
                    action.odot, background=dataclasses.replace(bg, mult=mult)
                )
                act = dataclasses.replace(action, odot=odot)
                monkeypatch.setattr(ecat.enriched, "compose_lax", eager_compose_lax)
                want = outcome(act)
                monkeypatch.setattr(ecat.enriched, "compose_lax", lazy)
                assert outcome(act) == want
                kinds.add(want[0])
    assert kinds == {"report", "raise"}
