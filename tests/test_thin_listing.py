"""Thin hosts list their E0 families and r-lax functors, against the frozen
parent bodies of tests/helpers.py.

On a thin host with typed cells each pool holds at most one morphism, so a
family is fixed by its center object: ``centers._bracket_search`` lists one
family per center object whose pools are all non-empty, ``_family_host``
takes each identity and composite as the only morphism of its center hom
set, and ``e0_center`` keys endofunctors by their object maps. On a thin
carrier whose modules and background pass their checks
(``actions._thin_rlax``) the r-lax laws follow from typing, and the
via-module route keys r-lax functors by their object maps and takes the
typed nats of ``_nat_search`` as they are. Every case must give the frozen
body's answer: on the thin fixtures, and, with the gate fallen back, on
one-entry mistyped functor components, Z1 half-braiding cells and module
cells, where the outcome or exception must be the full path's. Only
``Budget.used`` falls. Off a thin host (sign-2, the sign x lattice-2
self-module) the full path runs, and a module nat is checked by
``check_xilax_nat`` at the identity monoidal nat, which must give the
frozen module-nat check's verdict and failing instances.
"""

import dataclasses
import itertools
from collections import Counter

import pytest

from ecat import actions, centers
from ecat.actions import (
    _rlax_search,
    _thin_rlax,
    check_rlax,
    check_xilax_nat,
    monoidal_self_module,
    self_module,
)
from ecat.canonical import canonical_construction, canonical_monoidal
from ecat.centers import (
    _bracket_search,
    _family_host,
    compare_e0_routes,
    condition_star,
    e0_center,
    e0_center_via_module,
    enumerate_identity_background_functors,
)
from ecat.core import FinCategory, _nat_search, check_nat_transf
from ecat.enriched import (
    _enriched_functor_cells,
    _half_braiding_cells,
    _thin_host,
    _typed_cells,
)
from ecat.monoidal import (
    HalfBraidingOrd,
    drinfeld_center_z1,
    identity_lax,
    identity_lax_nat,
    muger_center_z2,
    product_monoidal,
)
from ecat.report import Budget, StructureError

from helpers import (
    chain3_monoidal,
    counting_calls,
    exhaustive_check_module_nat,
    identity_braiding,
    lattice2_monoidal,
    lattice4_monoidal,
    lattice8_monoidal,
    listed_bracket_used,
    meet_semilattice_monoidal,
    preorder_enriched_monoidal,
    sign_enriched,
    sign_monoidal,
    ungated_bracket_search,
    ungated_check_rlax,
    ungated_e0_center_via_module,
    ungated_family_host,
    ungated_rlax_search,
    z2_discrete_monoidal,
)

CAP = 500_000

BASES = {
    "lattice2": lattice2_monoidal,
    "lattice4": lattice4_monoidal,
    "lattice8": lattice8_monoidal,
    "chain3": chain3_monoidal,
    "z2": z2_discrete_monoidal,
}
# the thin enriched monoidal hosts: the canonical categories of the bases'
# self-modules, and the preorder fixture
HOSTS = [*BASES, "preorder"]
# the modules of the via-module route: the bases' self-modules, and that
# of the preorder fixture's base
MODULES = {
    **{name: lambda build=build: self_module(build()) for name, build in BASES.items()},
    "preorder": lambda: self_module(preorder_enriched_monoidal().host.base),
}
# the hosts whose mistyped changes each build a whole E0 center
SMALL = ["lattice2", "lattice4", "chain3", "z2", "preorder"]
# at most this many one-entry changes of each table
CHANGES = 6


def _em(name):
    if name == "preorder":
        return preorder_enriched_monoidal()
    return canonical_monoidal(monoidal_self_module(identity_braiding(BASES[name]())))


def _spread(keys) -> list:
    keys = list(keys)
    return keys[:: max(1, len(keys) // CHANGES)]


def _mistyped(c: FinCategory, f: int, k: int) -> int:
    """The k-th morphism of c (cyclically) of another type than f."""
    alts = [g for g in c.morphisms() if (c.dom[g], c.cod[g]) != (c.dom[f], c.cod[f])]
    return alts[k % len(alts)]


def _outcome(run, *args):
    """The result of run(*args) and the budget it used, or the type and
    message of what it raised."""
    budget = Budget(CAP)
    try:
        return run(*args, budget), budget.used
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture
def compositions(monkeypatch):
    """A list that gets one entry per FinCategory.comp call."""
    calls = []
    comp = FinCategory.comp

    def counting(c, g, f):
        calls.append(None)
        return comp(c, g, f)

    monkeypatch.setattr(FinCategory, "comp", counting)
    return calls


# --- the listing of _bracket_search ---


def _bracket_calls(em):
    """(incl, targets) of every E0 family search and every E1 bracket-pair
    search on em's host."""
    e = em.host
    z1 = drinfeld_center_z1(e.base)
    funs = enumerate_identity_background_functors(e, e, CAP)
    for f, g in itertools.product(funs, repeat=2):
        yield z1.forgetful, [e.hom(f.on_obj(x), g.on_obj(x)) for x in e.objects()]
    z2incl = muger_center_z2(em.braiding)[2]
    for x, y in itertools.product(e.objects(), repeat=2):
        yield z2incl, [e.hom(x, y)]


@pytest.mark.parametrize("name", HOSTS)
def test_bracket_search_lists_what_the_frozen_search_finds(name):
    em = _em(name)
    e = em.host
    assert _thin_host(e)
    found = 0
    for incl, targets in _bracket_calls(em):
        got = _outcome(_bracket_search, e, incl, targets, None, True)
        want = _outcome(ungated_bracket_search, e, incl, targets, None, True)
        assert got[0] == want[0]
        assert got[1] == listed_bracket_used(incl, targets, e.base.base) <= want[1]
        found += got[0] is not None
    assert found > 0


# --- the E0 host and keys ---


@pytest.mark.parametrize("name", HOSTS)
def test_family_host_takes_the_only_morphism_of_each_hom_set(name, compositions):
    e = _em(name).host
    star = condition_star(e, CAP)
    assert star.thin
    carriers = [[f.on_obj(x) for x in e.objects()] for f in star.functors]
    fwd = star.z1.forgetful
    want = ungated_family_host(e, fwd, star.brackets, carriers)
    del compositions[:]
    assert _family_host(e, fwd, star.brackets, carriers, True) == want
    assert compositions == []  # no identity or composite family is composed


def _center(res) -> tuple:
    """What e0_center answers, with the tensor cells read at a spread of
    at most about 300 keys."""
    em = res.category
    cells = em.tensor.components
    keys = list(itertools.product(range(em.host.n_objects ** 2), repeat=2))
    keys = keys[:: max(1, len(keys) // 300)]
    w = res.witnesses
    return (
        em.host, tuple(em.tensor.obj_map), {key: cells[key] for key in keys},
        em.unit_obj, em.associator, em.left_unitor, em.right_unitor,
        w["functors"], w["brackets"], w["tensor_obj"], w["unit_obj"],
    )


def _e0_outcome(e, monkeypatch, gated: bool):
    """What ``e0_center`` answers and the budget it used, or the type and
    message of what it raised; with every thin verdict of the centers off
    unless gated, so that every family is searched and composed."""
    with monkeypatch.context() as patched:
        if not gated:
            patched.setattr(centers, "_typed_cells", lambda e, cells: False)
        budget = Budget(CAP)
        try:
            return _center(e0_center(e, budget)), budget.used
        except Exception as exc:
            return type(exc), str(exc)


@pytest.mark.parametrize("name", HOSTS)
def test_e0_center_answers_what_the_full_path_answers(name, monkeypatch):
    e = _em(name).host
    got = _e0_outcome(e, monkeypatch, True)
    want = _e0_outcome(e, monkeypatch, False)
    assert got[0] == want[0]
    assert got[1] < want[1]


def _functor_changes(e, funs):
    """funs with one component of one functor changed to a mistyped
    morphism, at a spread of functors and keys."""
    c = e.base.base
    for k, (i, key) in enumerate(_spread(
            (i, key) for i in range(len(funs)) for key in itertools.product(e.objects(), repeat=2))):
        f = funs[i]
        comps = dict(f.components)
        comps[key] = _mistyped(c, comps[key], k)
        yield funs[:i] + [dataclasses.replace(f, components=comps)] + funs[i + 1:]


def _z1_changes(e, z1):
    """z1 with one half-braiding component changed to a mistyped morphism,
    at a spread of objects and keys."""
    c = e.base.base
    keys = _spread(itertools.product(range(len(z1.object_data)), c.objects()))
    for k, (i, h) in enumerate(keys):
        x, hb = z1.object_data[i]
        bad = HalfBraidingOrd(hb.carrier, {**hb.components, h: _mistyped(c, hb.components[h], k)})
        yield dataclasses.replace(
            z1, object_data=z1.object_data[:i] + ((x, bad),) + z1.object_data[i + 1:])


def _fell_back(e, monkeypatch) -> None:
    """Assert that e0_center gives the full path's outcome, and that each
    host it builds is built off the thin verdict."""
    hosts = counting_calls(monkeypatch, centers, "_family_host")
    got = _e0_outcome(e, monkeypatch, True)[0]
    assert all(not thin for *_, thin in hosts)
    assert got == _e0_outcome(e, monkeypatch, False)[0]


@pytest.mark.parametrize("name", SMALL)
def test_a_mistyped_functor_component_falls_back_to_the_full_path(name, monkeypatch):
    e = _em(name).host
    funs = enumerate_identity_background_functors(e, e, CAP)
    n = 0
    for bad in _functor_changes(e, funs):
        assert not all(_typed_cells(e, _enriched_functor_cells(f)) for f in bad)
        monkeypatch.setattr(centers, "enumerate_identity_background_functors",
                            lambda src, tgt, cap, bad=bad: list(bad))
        _fell_back(e, monkeypatch)
        n += 1
    assert n > 0


@pytest.mark.parametrize("name", SMALL)
def test_a_mistyped_half_braiding_cell_falls_back_to_the_full_path(name, monkeypatch):
    e = _em(name).host
    z1 = drinfeld_center_z1(e.base)
    n = 0
    for bad in _z1_changes(e, z1):
        assert not _typed_cells(e, _half_braiding_cells(e, bad))
        monkeypatch.setattr(centers, "drinfeld_center_z1", lambda m, budget, bad=bad: bad)
        _fell_back(e, monkeypatch)
        n += 1
    assert n > 0


def test_condition_star_is_thin_only_when_every_functor_is_typed(monkeypatch):
    e = _em("lattice4").host
    untyped = enumerate_identity_background_functors(e, e, CAP)[1]
    cells = centers._enriched_functor_cells

    def one_untyped(f):
        # one cell out of range, read by the typing alone
        return itertools.chain(cells(f), [(-1, 0, 0)] if f == untyped else [])

    monkeypatch.setattr(centers, "_enriched_functor_cells", one_untyped)
    assert not condition_star(e, CAP).thin
    hosts = counting_calls(monkeypatch, centers, "_family_host")
    got = _e0_outcome(e, monkeypatch, True)[0]
    assert [thin for *_, thin in hosts] == [False]
    assert got == _e0_outcome(e, monkeypatch, False)[0]


def test_off_a_thin_host_e0_center_composes_every_host_family(monkeypatch):
    e = sign_enriched(2, 0)
    assert not _thin_host(e) and not condition_star(e, CAP).thin
    calls = counting_calls(monkeypatch, centers, "_mediate")
    res = e0_center(e, CAP)
    n = res.category.host.n_objects
    # every identity and composite family is composed and mediated
    assert len(calls) == n + n**3
    assert all(family is not None for *_, family in calls)


# --- the r-lax search and the via-module route ---


@pytest.mark.parametrize("name", MODULES)
def test_rlax_search_finds_what_the_frozen_search_finds(name, monkeypatch):
    mod = MODULES[name]()
    r = identity_lax(mod.base)
    assert _thin_rlax(r, mod, mod)
    laws = counting_calls(monkeypatch, actions, "_check_rlax_laws")
    got = _outcome(_rlax_search, r, mod, mod)
    assert laws == []  # decided from typing
    want = _outcome(ungated_rlax_search, r, mod, mod)
    assert got[0] == want[0] and len(got[0]) > 0
    assert got[1] <= want[1]


@pytest.mark.parametrize("name", SMALL)
def test_check_rlax_reports_what_the_frozen_check_reports(name):
    mod = MODULES[name]()
    r = identity_lax(mod.base)
    cc = mod.carrier
    n = 0
    for rl in _rlax_search(r, mod, mod, Budget(CAP)):
        assert check_rlax(rl).violations == ungated_check_rlax(rl).violations == []
        for k, key in enumerate(_spread(rl.beta)):
            bad = dataclasses.replace(rl, beta={**rl.beta, key: _mistyped(cc, rl.beta[key], k)})
            assert check_rlax(bad).violations == ungated_check_rlax(bad).violations != []
            n += 1
        mor = list(rl.functor.mor_map)
        for k, p in enumerate(_spread(range(len(mor)))):
            bad = dataclasses.replace(rl, functor=dataclasses.replace(
                rl.functor, mor_map=tuple(mor[:p] + [_mistyped(cc, mor[p], k)] + mor[p + 1:])))
            assert check_rlax(bad).violations == ungated_check_rlax(bad).violations != []
    assert n > 0


@pytest.mark.parametrize("name", MODULES)
def test_e0_center_via_module_equals_the_frozen_route(name, monkeypatch):
    mod = MODULES[name]()
    squares = counting_calls(monkeypatch, centers, "check_xilax_nat")
    got = _outcome(e0_center_via_module, mod)
    assert squares == []  # the typed nats are taken as they are
    want = _outcome(ungated_e0_center_via_module, mod)
    assert got[0] == want[0]
    assert got[1] <= want[1]


def _answer(outcome):
    """An outcome without the budget: a search spends less than its frozen
    body on every path, since object maps with an empty pool are pruned."""
    return outcome[0] if len(outcome) == 2 and not isinstance(outcome[0], type) else outcome


def _background_changes(r):
    """r with one cell changed to a mistyped morphism: its unit cell, or a
    mult cell at a spread of keys."""
    c = r.target.base
    yield dataclasses.replace(r, unit_cell=_mistyped(c, r.unit_cell, 0))
    for k, key in enumerate(_spread(r.mult)):
        yield dataclasses.replace(r, mult={**r.mult, key: _mistyped(c, r.mult[key], k)})


@pytest.mark.parametrize("name", SMALL)
def test_a_mistyped_background_cell_falls_back_to_the_full_check(name):
    mod = MODULES[name]()
    n = 0
    for r in _background_changes(identity_lax(mod.base)):
        assert not _thin_rlax(r, mod, mod)
        assert _answer(_outcome(_rlax_search, r, mod, mod)) == _answer(
            _outcome(ungated_rlax_search, r, mod, mod))
        n += 1
    assert n > 0


def _module_changes(mod):
    """mod with one entry changed: an entry of its associator or its unitor
    to a mistyped morphism, at a spread of keys, or the action's image of
    one object pair to another object or to none."""
    cc = mod.carrier
    obj = list(mod.act.obj_map)
    for k, p in enumerate(_spread(range(len(obj)))):
        others = [y for y in cc.objects() if y != obj[p]]
        for image in (others[k % len(others)], cc.n_objects):
            act = dataclasses.replace(mod.act, obj_map=tuple(obj[:p] + [image] + obj[p + 1:]))
            yield dataclasses.replace(mod, act=act)
    for k, key in enumerate(_spread(mod.oplax_assoc)):
        assoc = {**mod.oplax_assoc, key: _mistyped(cc, mod.oplax_assoc[key], k)}
        yield dataclasses.replace(mod, oplax_assoc=assoc)
    unitor = list(mod.oplax_unitor)
    for k, x in enumerate(_spread(range(len(unitor)))):
        yield dataclasses.replace(
            mod, oplax_unitor=tuple(unitor[:x] + [_mistyped(cc, unitor[x], k)] + unitor[x + 1:]))


@pytest.mark.parametrize("name", SMALL)
def test_a_mistyped_module_cell_falls_back_to_the_full_check(name):
    mod = MODULES[name]()
    n = 0
    for bad in _module_changes(mod):
        r = identity_lax(bad.base)
        assert not _thin_rlax(r, bad, bad)
        assert _answer(_outcome(_rlax_search, r, bad, bad)) == _answer(
            _outcome(ungated_rlax_search, r, bad, bad))
        assert _answer(_outcome(e0_center_via_module, bad)) == _answer(
            _outcome(ungated_e0_center_via_module, bad))
        n += 1
    assert n > 0


def test_off_a_thin_carrier_the_via_route_checks_every_law(monkeypatch):
    mod = self_module(product_monoidal(sign_monoidal(), lattice2_monoidal()))
    assert not _thin_rlax(identity_lax(mod.base), mod, mod)
    laws = counting_calls(monkeypatch, actions, "_check_rlax_laws")
    squares = counting_calls(monkeypatch, centers, "check_xilax_nat")
    got = e0_center_via_module(mod, CAP)
    assert len(laws) > 0 and len(squares) > 0
    assert got == ungated_e0_center_via_module(mod, CAP)


# the self-modules whose nats are compared with the frozen module-nat check:
# two thin carriers and one that is not
NAT_MODULES = {
    "lattice2": lambda: self_module(lattice2_monoidal()),
    "z2": lambda: self_module(z2_discrete_monoidal()),
    "sign x lattice2": lambda: self_module(product_monoidal(sign_monoidal(), lattice2_monoidal())),
}


def _nat_changes(cc: FinCategory, nat):
    """nat with one component changed: to each other morphism of its hom
    set, and to a mistyped morphism."""
    comps = nat.components
    for x, f in enumerate(comps):
        for g in [*(g for g in cc.hom(cc.dom[f], cc.cod[f]) if g != f), _mistyped(cc, f, x)]:
            yield dataclasses.replace(nat, components=comps[:x] + (g,) + comps[x + 1:])


def _cell_changes(cc: FinCategory, rl):
    """rl with one cell changed: to each other morphism of its hom set, and
    to a mistyped morphism, so that a module square can fail."""
    for k, (key, f) in enumerate(rl.beta.items()):
        for g in [*(g for g in cc.hom(cc.dom[f], cc.cod[f]) if g != f), _mistyped(cc, f, k)]:
            yield dataclasses.replace(rl, beta={**rl.beta, key: g})


def _verdict(check, *args):
    """Whether check passes and the instances it reports, or the type and
    message of what it raised."""
    try:
        report = check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return report.ok, [v.instance for v in report.violations]


@pytest.mark.parametrize("name", NAT_MODULES)
def test_a_module_nat_is_checked_as_a_xilax_nat_at_the_identity(name):
    mod = NAT_MODULES[name]()
    cc = mod.carrier
    mfs = _rlax_search(identity_lax(mod.base), mod, mod, Budget(CAP))
    seen = Counter()
    for f, g in itertools.product(mfs, repeat=2):
        for nat in _nat_search(f.functor, g.functor, Budget(CAP)):
            cases = [(g, n) for n in (nat, *_nat_changes(cc, nat))]
            cases += [(h, nat) for h in _cell_changes(cc, g)]
            for h, n in cases:
                got = _verdict(check_xilax_nat, f, h, identity_lax_nat(f.r), n)
                assert got == _verdict(exhaustive_check_module_nat, f, h, n)
                seen[check_nat_transf(n).ok, got[0]] += 1
    # module nats pass and unnatural changes fail; a changed cell fails a
    # module square of a natural nat, or on a discrete carrier, where each
    # changed cell is mistyped, raises in both checks
    assert seen[True, True] > 0 and seen[False, False] > 0
    assert (seen[True, False] > 0) == (cc.n_morphisms > cc.n_objects)
    assert seen[True, StructureError] > 0


# --- the ladder ---


def test_lattice16_e0_center_finishes_within_the_default_cap():
    m = meet_semilattice_monoidal(list(range(16)))
    e = canonical_construction(self_module(m), Budget(None)).enriched
    budget = Budget(None)
    res = e0_center(e, budget)
    assert res.category.host.n_objects == 81
    assert budget.used == 334_866


def test_lattice8_e0_routes_agree():
    mod = self_module(lattice8_monoidal())
    e = canonical_construction(mod, Budget(CAP)).enriched
    out = compare_e0_routes(e0_center(e, CAP), e0_center_via_module(mod, CAP), CAP)
    assert out["iso"] is not None
    assert out["strict"] and out["tensor_ok"] and out["unit_ok"]
