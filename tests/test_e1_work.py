"""The tensor background computes its mult cells as they are read, the E1
center computes its own tensor cells as they are read, and its bracket search
composes the candidate-free legs of each sliding square once per object pair
and inverts each transparent object's unitors once per pair, and on a thin
host neither; compared with the eager oracles that build every mult cell and
every tensor cell up front and recompose both legs for each candidate."""

import dataclasses
import itertools

import pytest

import ecat.centers
import ecat.monoidal
from ecat.actions import monoidal_self_module
from ecat.canonical import canonical_monoidal
from ecat.centers import bracket_pair, gamma1
from ecat.core import FinCategory, LazyPairTable
from ecat.enriched_monoidal import enumerate_enriched_half_braidings
from ecat.monoidal import braided_tensor_lax_structure, muger_center_z2, product_monoidal
from ecat.report import Budget, StructureError

from helpers import (
    bracket_pair_used,
    chain3_monoidal,
    counting_calls,
    delooping_monoidal,
    eager_braided_tensor_lax_structure,
    eager_gamma1_cells,
    exhaustive_bracket_pair,
    identity_braiding,
    lattice2_monoidal,
    lattice4_monoidal,
    lattice8_monoidal,
    preorder_enriched_monoidal,
    semion_braiding,
    sign_monoidal,
    z2_discrete_monoidal,
)

CAP = 500_000


def _sign_x_lattice2():
    return product_monoidal(sign_monoidal(), lattice2_monoidal())


BRAIDED = {
    "lattice2": lambda: identity_braiding(lattice2_monoidal()),
    "lattice4": lambda: identity_braiding(lattice4_monoidal()),
    "chain3": lambda: identity_braiding(chain3_monoidal()),
    "z2": lambda: identity_braiding(z2_discrete_monoidal()),
    "semion": semion_braiding,
    "sign": lambda: identity_braiding(sign_monoidal()),
    "B(Z/3)": lambda: identity_braiding(delooping_monoidal(3)),
    "B(Z/4)": lambda: identity_braiding(delooping_monoidal(4)),
    "B(Z/2xZ/2)": lambda: identity_braiding(delooping_monoidal(2, 2)),
    "sign-x-lattice2": lambda: identity_braiding(_sign_x_lattice2()),
}


@pytest.mark.parametrize("name", BRAIDED)
def test_the_lazy_tensor_background_equals_the_eager_one_cell_by_cell(name):
    b = BRAIDED[name]()
    lazy = braided_tensor_lax_structure(b)
    eager = eager_braided_tensor_lax_structure(b)
    assert isinstance(lazy.mult, LazyPairTable)
    assert list(lazy.mult) == list(eager.mult)
    for key in eager.mult:
        assert lazy.mult[key] == eager.mult[key], key
    assert (lazy.functor, lazy.unit_cell, lazy.direction) == (
        eager.functor, eager.unit_cell, eager.direction
    )
    assert lazy == eager


@pytest.mark.parametrize("name", ["semion", "sign-x-lattice2"])
def test_a_cell_that_cannot_be_composed_raises_when_it_is_read(name):
    """Each braiding entry changed to a morphism of another type: the eager
    build raises at the first failing cell; the lazy build does not, and
    reading its cells in key order raises the same error at that cell."""
    b = BRAIDED[name]()
    c = b.host.base
    raised = 0
    for key, f in b.braiding.items():
        for g in c.morphisms():
            if (c.dom[g], c.cod[g]) == (c.dom[f], c.cod[f]):
                continue
            bad = dataclasses.replace(b, braiding={**b.braiding, key: g})
            try:
                eager_braided_tensor_lax_structure(bad)
            except StructureError as err:
                want = str(err)
            else:
                continue
            lazy = braided_tensor_lax_structure(bad).mult
            with pytest.raises(StructureError) as got:
                for cell in lazy:
                    lazy[cell]
            assert str(got.value) == want
            raised += 1
    assert raised > 0


def _canonical(m):
    return canonical_monoidal(monoidal_self_module(identity_braiding(m)))


GAMMA1_HOSTS = {
    "lattice2": lambda: _canonical(lattice2_monoidal()),
    "lattice4": lambda: _canonical(lattice4_monoidal()),
    "lattice8": lambda: _canonical(lattice8_monoidal()),
    "chain3": lambda: _canonical(chain3_monoidal()),
    "z2": lambda: _canonical(z2_discrete_monoidal()),
    "preorder": preorder_enriched_monoidal,
    "sign-x-lattice2": lambda: _canonical(_sign_x_lattice2()),
}


CELL_HOSTS = {
    **GAMMA1_HOSTS,
    "B(Z/3)-x-lattice2": lambda: _canonical(
        product_monoidal(delooping_monoidal(3), lattice2_monoidal())
    ),
}


@pytest.mark.parametrize("name", CELL_HOSTS)
def test_every_lazy_e1_cell_equals_the_eager_cell_loop(name):
    em = CELL_HOSTS[name]()
    res = gamma1(em, CAP)
    got = res.category.host.tensor.components
    want = eager_gamma1_cells(em, res)
    assert isinstance(got, LazyPairTable)
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key
    assert got == want


def _gamma1_objects(em):
    """The half-braided objects of gamma1(em), in its order, and the
    transparent subcategory its brackets live in."""
    budget = Budget(CAP)
    objs = [
        (x, hb)
        for x in em.host.objects()
        for hb in enumerate_enriched_half_braidings(em, x, budget)
    ]
    return objs, muger_center_z2(em.braiding)


@pytest.mark.parametrize("name", GAMMA1_HOSTS)
def test_bracket_pair_matches_the_parent_on_every_pair_of_gamma1_objects(name):
    em = GAMMA1_HOSTS[name]()
    objs, z2 = _gamma1_objects(em)
    for oi, oj in itertools.product(objs, repeat=2):
        got_budget, want_budget = Budget(CAP), Budget(CAP)
        got = bracket_pair(em, z2, oi, oj, got_budget)
        want = exhaustive_bracket_pair(em, z2, oi, oj, want_budget)
        assert got == want
        assert got_budget.used == bracket_pair_used(em, z2, oi, oj, want_budget.used, False)


def test_gamma1_on_lattice8_composes_no_tensor_background_cell(monkeypatch):
    em = GAMMA1_HOSTS["lattice8"]()
    calls = counting_calls(monkeypatch, ecat.monoidal, "mid_swap")
    assert gamma1(em, CAP).category.host.host.n_objects == 8
    assert calls == []


def test_gamma1_on_lattice8_computes_each_tensor_cell_only_when_read(monkeypatch):
    res = gamma1(GAMMA1_HOSTS["lattice8"](), CAP)
    cells = res.category.host.tensor.components
    assert len(cells) == 4096
    assert not cells._memo  # no cell is computed before it is read
    calls = counting_calls(monkeypatch, ecat.centers, "_mediate")
    key = (3 * 8 + 5, 6 * 8 + 7)
    value = cells[key]
    assert cells._memo == {key: value} and len(calls) == 1
    assert cells[key] == value and len(calls) == 1  # kept, not recomputed


@pytest.mark.parametrize("name", ["lattice8", "preorder", "sign-x-lattice2"])
def test_bracket_pair_composes_each_leg_once_per_object(name, monkeypatch):
    em = GAMMA1_HOSTS[name]()
    n = em.host.n_objects
    objs, z2 = _gamma1_objects(em)
    posts = counting_calls(monkeypatch, ecat.centers, "hom_post")
    pres = counting_calls(monkeypatch, ecat.centers, "hom_pre")
    for oi, oj in itertools.product(objs, repeat=2):
        posts.clear()
        pres.clear()
        bracket_pair(em, z2, oi, oj, Budget(CAP))
        assert len(posts) <= n and len(pres) <= n


class _Leg(int):
    """A hom_post or hom_pre value, marked so that composing it is seen."""


@pytest.mark.parametrize("name", ["lattice8", "preorder", "sign-x-lattice2"])
def test_bracket_pair_composes_each_leg_once(name, monkeypatch):
    """Each candidate-free leg, hom_post or hom_pre after its tensor cell, is
    composed once per object per pair, not once per candidate. On a thin
    host (lattice-8, preorder) every sliding square is decided from typing,
    so no leg is composed and no unitor is inverted at all."""
    em = GAMMA1_HOSTS[name]()
    objs, z2 = _gamma1_objects(em)
    inverted = counting_calls(monkeypatch, ecat.centers, "inv")
    made, legs = [], []
    for fun in ("hom_post", "hom_pre"):
        inner = getattr(ecat.centers, fun)

        def marked(*args, inner=inner):
            made.append(1)
            return _Leg(inner(*args))

        monkeypatch.setattr(ecat.centers, fun, marked)
    inner_comp = FinCategory.comp

    def comp(self, g, f):
        if type(g) is _Leg:
            legs.append((g, f))
        return inner_comp(self, g, f)

    monkeypatch.setattr(FinCategory, "comp", comp)
    composed = 0
    for oi, oj in itertools.product(objs, repeat=2):
        made.clear()
        legs.clear()
        bracket_pair(em, z2, oi, oj, Budget(CAP))
        assert len(legs) == len(made) <= 2 * em.host.n_objects
        composed += len(legs)
    if name == "sign-x-lattice2":
        assert composed > 0
    else:
        assert composed == 0 and inverted == []


def test_gamma1_on_lattice8_reads_each_underlying_half_braiding_once(monkeypatch):
    calls = counting_calls(monkeypatch, ecat.centers, "underlying_half_braiding")
    res = gamma1(GAMMA1_HOSTS["lattice8"](), CAP)
    assert len(calls) == res.category.host.host.n_objects == 8


def test_bracket_pair_inverts_each_unitor_once_per_transparent_object(monkeypatch):
    """On sign x lattice-2, a host that is not thin, each pair inverts the
    left and the right unitor of each transparent object that has a
    candidate once, not once per object and candidate."""
    em = GAMMA1_HOSTS["sign-x-lattice2"]()
    m = em.host.base
    objs, z2 = _gamma1_objects(em)
    z2mon, _, z2incl = z2
    inverted = []
    inner = ecat.centers.inv

    def counted(mon, f):
        inverted.append(f)
        return inner(mon, f)

    monkeypatch.setattr(ecat.centers, "inv", counted)
    hosts = [z2incl.on_obj(az) for az in z2mon.base.objects()]
    for oi, oj in itertools.product(objs, repeat=2):
        inverted.clear()
        bracket_pair(em, z2, oi, oj, Budget(CAP))
        read = [a for a in hosts if m.base.hom(a, em.host.hom(oi[0], oj[0]))]
        assert sorted(inverted) == sorted([m.l(a) for a in read] + [m.r(a) for a in read])
