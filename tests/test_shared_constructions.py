"""Each center construction is built once and shared: the module restriction
of both canonical routes (``actions._restricted_module``), the tensor and
unit of half-braided objects of Z1 and the E1 center
(``monoidal._half_braided_tensor``), and the category of terminal families
of the E0 and E1 centers (``centers._family_host``). Each is compared with
the parent bodies it replaced, frozen in helpers, on eight self-modules:
equal results, or the same exception type and message."""

import itertools

import pytest

import ecat.centers
from ecat.actions import monoidal_self_module
from ecat.canonical import canonical_monoidal
from ecat.centers import gamma1, gamma1_of_canonical, gamma2_of_canonical
from ecat.enriched_monoidal import (
    enumerate_enriched_half_braidings,
    underlying_half_braiding,
    underlying_monoidal,
)
from ecat.monoidal import (
    _half_braided_tensor,
    drinfeld_center_z1,
    enumerate_half_braidings,
    product_monoidal,
)
from ecat.report import Budget

from helpers import (
    chain3_monoidal,
    delooping_monoidal,
    identity_braiding,
    lattice2_monoidal,
    lattice4_monoidal,
    parent_gamma1_host,
    parent_gamma1_module_side,
    parent_gamma1_tensor_unit,
    parent_gamma2_module_side,
    parent_z1_tensor_unit,
    semion_braiding,
    sign_monoidal,
    z2_discrete_monoidal,
)

CAP = 500_000

BRAIDED = {
    "lattice2": lambda: identity_braiding(lattice2_monoidal()),
    "lattice4": lambda: identity_braiding(lattice4_monoidal()),
    "chain3": lambda: identity_braiding(chain3_monoidal()),
    "z2": lambda: identity_braiding(z2_discrete_monoidal()),
    "sign-x-lattice2": lambda: identity_braiding(
        product_monoidal(sign_monoidal(), lattice2_monoidal())
    ),
    "B(Z/3)-x-lattice2": lambda: identity_braiding(
        product_monoidal(delooping_monoidal(3), lattice2_monoidal())
    ),
    "B(Z/2xZ/3)": lambda: identity_braiding(delooping_monoidal(2, 3)),
    "semion": semion_braiding,
}


def _outcome(run):
    """("ok", value) when run returns, else the exception's type and message."""
    try:
        return "ok", run()
    except Exception as err:  # the exception is part of the answer
        return type(err), str(err)


class _ModuleSide(Exception):
    """Stops a canonical route at the module of its second construction."""


def _module_side(monkeypatch, run):
    """The outcome of run up to the module it hands to its second canonical
    construction: ("ok", that module), or the exception raised before."""
    inner = ecat.centers.canonical_construction
    seen = []

    def spy(mod, budget=None):
        seen.append(mod)
        if len(seen) == 2:
            raise _ModuleSide
        return inner(mod, budget)

    monkeypatch.setattr(ecat.centers, "canonical_construction", spy)
    out = _outcome(run)
    return ("ok", seen[1]) if out[0] is _ModuleSide else out


@pytest.mark.parametrize("name", BRAIDED)
def test_gamma1_module_side_equals_the_parent_builder(name, monkeypatch):
    cells = monoidal_self_module(BRAIDED[name]())
    want = _outcome(lambda: parent_gamma1_module_side(cells, CAP))
    got = _module_side(monkeypatch, lambda: gamma1_of_canonical(cells, CAP))
    assert got == want
    if name == "semion":
        assert got[1] == "no terminal bracket pair at (0, 1)"
    else:
        assert got[0] == "ok"


@pytest.mark.parametrize("name", BRAIDED)
def test_gamma2_module_side_equals_the_parent_builder(name, monkeypatch):
    cells = monoidal_self_module(BRAIDED[name]())
    br = cells.base_braiding
    want = _outcome(lambda: parent_gamma2_module_side(cells, br, CAP))
    got = _module_side(monkeypatch, lambda: gamma2_of_canonical(cells, br, CAP))
    assert got == want
    if name == "semion":
        assert got[1] == "module is not braided: braided-module-square at (1, 0, 0, 1)"
    else:
        assert got[0] == "ok"


def _dropping_one(pairs: list) -> list:
    """pairs, and pairs without each one of them in turn, so that some
    tensor or the unit is missing."""
    return [pairs] + [pairs[:k] + pairs[k + 1:] for k in range(len(pairs))]


@pytest.mark.parametrize("name", BRAIDED)
def test_z1_tensor_and_unit_equal_the_parent_loops(name):
    m = BRAIDED[name]().host
    z_objects = [(x, hb) for x in m.base.objects() for hb in enumerate_half_braidings(m, x)]
    raised = 0
    for pairs in _dropping_one(z_objects):
        got = _outcome(lambda: _half_braided_tensor(m, pairs))
        assert got == _outcome(lambda: parent_z1_tensor_unit(m, pairs))
        raised += got[0] != "ok"
    assert raised > 0
    zmon = drinfeld_center_z1(m).monoidal
    n = zmon.base.n_objects
    t_obj = tuple(zmon.t_obj(i, j) for i, j in itertools.product(range(n), repeat=2))
    assert (t_obj, zmon.unit) == parent_z1_tensor_unit(m, z_objects)


def _canonical(name):
    return canonical_monoidal(monoidal_self_module(BRAIDED[name]()))


def _gamma1_objects(em) -> list:
    budget = Budget(CAP)
    return [
        (x, hb)
        for x in em.host.objects()
        for hb in enumerate_enriched_half_braidings(em, x, budget)
    ]


def _row_major(t1: dict, n: int) -> tuple:
    return tuple(t1[(i, j)] for i, j in itertools.product(range(n), repeat=2))


@pytest.mark.parametrize("name", BRAIDED)
def test_e1_tensor_and_unit_equal_the_parent_loop(name):
    """The E1 center keys its objects by their underlying half-braidings;
    the parent keyed them by their elements."""
    em = _canonical(name)
    um = underlying_monoidal(em)
    objs = _gamma1_objects(em)
    raised = 0
    for pairs in _dropping_one(objs):
        under = [(x, underlying_half_braiding(em, hb)) for x, hb in pairs]
        got = _outcome(lambda: _half_braided_tensor(um, under))
        want = _outcome(lambda: parent_gamma1_tensor_unit(em, pairs))
        if want[0] == "ok":
            t1, unit = want[1]
            want = ("ok", (_row_major(t1, len(pairs)), unit))
        assert got == want
        raised += got[0] != "ok"
    assert raised > 0
    if name != "semion":  # semion has no E1 center
        res = gamma1(em, CAP)
        t1, unit = parent_gamma1_tensor_unit(em, objs)
        assert (res.witnesses["tensor_obj"], res.witnesses["unit_obj"]) == (t1, unit)


@pytest.mark.parametrize("name", [k for k in BRAIDED if k != "semion"])
def test_e1_family_host_equals_the_parent_loop(name):
    em = _canonical(name)
    res = gamma1(em, CAP)
    assert res.category.host.host == parent_gamma1_host(em, res)

