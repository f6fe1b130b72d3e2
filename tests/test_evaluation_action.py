"""The E1 and E2 evaluation actions against the eager builder they replaced.

gamma1_evaluation_action and gamma2_evaluation_action take their acting
functor from ``e0_ev``, kept once per center, and compute each f2 cell when
it is read; eager_center_evaluation_action in helpers.py built the composite
afresh and every f2 cell into a dict. On the center's own host both give
the same action, entry by entry, and an f2 cell that cannot be computed
raises the same error, at construction for the eager builder and when read
for the lazy one. Each f2 cell is ``centers._el_mid_swap``, a reading of
``monoidal.mid_swap`` in the underlying monoidal category; it equals the
element-by-element parent body it replaced.
"""

import dataclasses
import itertools

import pytest

import ecat.centers
from ecat.actions import monoidal_self_module
from ecat.canonical import canonical_braided
from ecat.centers import (
    _el_mid_swap,
    gamma1,
    gamma1_evaluation_action,
    gamma2,
    gamma2_evaluation_action,
)
from ecat.core import LazyPairTable
from ecat.enriched_monoidal import EnrichedBraidedCategory, one_object_enriched_monoidal
from ecat.monoidal import product_monoidal
from ecat.report import StructureError

from helpers import (
    chain3_monoidal,
    delooping_monoidal,
    eager_center_evaluation_action,
    identity_braiding,
    lattice2_monoidal,
    lattice4_monoidal,
    lattice8_monoidal,
    parent_el_mid_swap,
    preorder_enriched_monoidal,
    semion_enriched_monoidal,
    sign_algebra,
    sign_monoidal,
    z2_discrete_monoidal,
)

CAP = 500_000


def _symmetric(em):
    """em with the identity-element braiding, valid on these commutative hosts."""
    e = em.host
    braiding_el = {
        (x, y): e.one(em.t(x, y))
        for x, y in itertools.product(range(e.n_objects), repeat=2)
    }
    return EnrichedBraidedCategory(em, braiding_el, True)


def _canonical(m):
    b = identity_braiding(m)
    return canonical_braided(monoidal_self_module(b), b, symmetric=True)


def _sign_algebra():
    alg = sign_algebra(0, 0)
    return _symmetric(one_object_enriched_monoidal(alg, identity_braiding(alg.host)))


HOSTS = {
    "preorder": lambda: _symmetric(preorder_enriched_monoidal()),
    "lattice2": lambda: _canonical(lattice2_monoidal()),
    "lattice4": lambda: _canonical(lattice4_monoidal()),
    "chain3": lambda: _canonical(chain3_monoidal()),
    "sign": lambda: _canonical(sign_monoidal()),
    "sign-algebra": _sign_algebra,
    "sign-x-lattice2": lambda: _canonical(
        product_monoidal(sign_monoidal(), lattice2_monoidal())),
    "BZ3-x-lattice2": lambda: _canonical(
        product_monoidal(delooping_monoidal(3), lattice2_monoidal())),
}


def _both(level: str, eb, em, res):
    """(lazy action, eager action or the exception it raised) on em."""
    objs = res.witnesses["objects"]
    if level == "E1":
        lazy = gamma1_evaluation_action(res, em)
        args = ([x for x, _ in objs], lambda j, p: objs[j][1].components[p],
                res.witnesses["unit_obj"])
    else:
        lazy = gamma2_evaluation_action(res, dataclasses.replace(eb, host=em))
        args = (list(objs), lambda j, p: eb.braiding_el[(p, objs[j])],
                objs.index(em.unit_obj))
    try:
        eager = eager_center_evaluation_action(res, em, *args)
    except Exception as exc:  # the exception is part of the answer
        return lazy, exc
    return lazy, eager


def _center(level: str, eb):
    return gamma1(eb.host, CAP) if level == "E1" else gamma2(eb, CAP)


@pytest.mark.parametrize("name", HOSTS)
@pytest.mark.parametrize("level", ["E1", "E2"])
def test_the_evaluation_action_equals_the_eager_one(level, name):
    eb = HOSTS[name]()
    res = _center(level, eb)
    lazy, eager = _both(level, eb, eb.host, res)
    assert not isinstance(eager, Exception), eager
    assert isinstance(lazy.f2, LazyPairTable)
    assert len(lazy.f2) == len(eager.f2)
    assert all(key in lazy.f2 for key in eager.f2)
    assert list(lazy.f2.items()) == list(eager.f2.items())
    assert (lazy.odot.obj_map, dict(lazy.odot.components), lazy.odot.background) == (
        eager.odot.obj_map, dict(eager.odot.components), eager.odot.background
    )
    assert (lazy.actor, lazy.acted, lazy.unit_obj, lazy.xi_el, lazy.xi_bg) == (
        eager.actor, eager.acted, eager.unit_obj, eager.xi_el, eager.xi_bg
    )


@pytest.mark.parametrize("level", ["E1", "E2"])
def test_f2_cells_are_computed_once_each_and_only_when_read(level, monkeypatch):
    eb = HOSTS["sign-x-lattice2"]()
    res = _center(level, eb)
    calls = []
    mid_swap = ecat.centers._el_mid_swap

    def counting(*args):
        calls.append(args)
        return mid_swap(*args)

    monkeypatch.setattr(ecat.centers, "_el_mid_swap", counting)
    if level == "E1":
        f2 = gamma1_evaluation_action(res, eb.host).f2
    else:
        f2 = gamma2_evaluation_action(res, eb).f2
    keys = list(f2)
    outside = ((0, 0), (0, eb.host.host.n_objects))
    assert not calls and outside not in f2 and "x" not in f2 and f2.get(outside) is None
    with pytest.raises(KeyError):
        f2[outside]
    last = f2[keys[-1]]
    assert f2[keys[-1]] == last and f2.get(keys[-1]) == last
    assert len(calls) == 1
    dict(f2)
    assert len(calls) == len(keys) == len(set(keys))


@pytest.mark.parametrize("name", ["lattice2", "sign-x-lattice2"])
@pytest.mark.parametrize("level", ["E1", "E2"])
def test_an_f2_cell_that_cannot_be_computed_raises_when_it_is_read(level, name):
    """Each associator element changed to a base morphism that is no element
    of its hom object: where the eager builder raises at construction, the
    lazy one does not, and reading its f2 in key order raises the same
    error; elsewhere both give the same f2."""
    eb = HOSTS[name]()
    em = eb.host
    res = _center(level, eb)
    c = em.host.base.base
    raised = 0
    for key, f in em.associator.items():
        bad = dataclasses.replace(
            em, associator={**em.associator, key: (f + 1) % c.n_morphisms})
        lazy, eager = _both(level, eb, bad, res)
        if isinstance(eager, Exception):
            with pytest.raises(type(eager)) as got:
                dict(lazy.f2)
            assert str(got.value) == str(eager)
            raised += isinstance(eager, StructureError)
        else:
            assert list(lazy.f2.items()) == list(eager.f2.items())
    assert raised > 0


# each host with its number of (cell, swap element) cases, 4,529 in all
MID_SWAP_HOSTS = {
    "preorder": (preorder_enriched_monoidal, 16),
    "semion": (semion_enriched_monoidal, 64),
    "lattice4": (lambda: _canonical(lattice4_monoidal()).host, 256),
    "lattice8": (lambda: _canonical(lattice8_monoidal()).host, 4096),
    "chain3": (lambda: _canonical(chain3_monoidal()).host, 81),
    "z2": (lambda: _canonical(z2_discrete_monoidal()).host, 16),
}


@pytest.mark.parametrize("name", MID_SWAP_HOSTS)
def test_the_mid_swap_element_equals_the_parent_one(name):
    """On every cell (a1, a2, b1, b2) and every swap element
    1 -> hom(a2@b1, b1@a2), the mid-swap read from the underlying monoidal
    category is the element the parent composed step by step."""
    build, expected = MID_SWAP_HOSTS[name]
    em = build()
    e = em.host
    c = e.base.base
    cases = 0
    for a1, a2, b1, b2 in itertools.product(range(e.n_objects), repeat=4):
        for swap_el in c.hom(e.base.unit, e.hom(em.t(a2, b1), em.t(b1, a2))):
            cases += 1
            assert _el_mid_swap(em, a1, a2, b1, b2, swap_el) == parent_el_mid_swap(
                em, a1, a2, b1, b2, swap_el
            ), (a1, a2, b1, b2, swap_el)
    assert cases == expected
