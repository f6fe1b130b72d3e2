"""The centers' sliding squares and factorings decided from typing on a thin
host, against the frozen ungated bodies of tests/helpers.py.

On a host that passes ``enriched._thin_host``, every sliding square of the E0
and E1 centers and every naturality square of an enriched half-braiding
commutes once its cells are typed, and every typed family factors through
every other, so the gated checks compose none of them. Every case below must
give the oracle's result and ``Budget.used``, or raise its exception type and
message: the valid thin fixtures, and one-entry changes of host composition
cells, tensor cells, half-braiding components and functor components, which
the gates must leave to the loops. ``bracket_pair`` searches its transparent
object as a search variable, where its oracle loops over the objects without
spending, so its ``Budget.used`` is the oracle's plus the objects it enters
(``helpers.bracket_pair_used``).

The universal-property verifiers decide rho, each mediator candidate and
the comparison functor's composition law from typing on a thin host: there
they build no composite for rho's source and run no
``check_lax_monoidal_nat`` or composition loop, and every ``TheoremReport``
and ``Budget.used`` must equal the one given with ``_thin_host`` patched to
False, also on one-entry mistyped action cells and comparison components.
The naturality squares of a nat still checked are gated the same way
(``centers._nat_report``): none is composed on the thin hosts, and every
gated report must equal the report of ``enriched.check_enriched_nat``, the
oracle, also when a mistyped action cell makes the gate fall back to the
squares. ``condition_star`` types each endofunctor and the ordinary center
once, not once per pair.
"""

import dataclasses
import functools
import itertools

import pytest

from ecat import centers, enriched
from ecat.actions import monoidal_self_module
from ecat.canonical import canonical_braided, canonical_monoidal
from ecat.centers import (
    bracket_family,
    bracket_pair,
    condition_star,
    e0_center,
    e0_ev,
    enumerate_identity_background_functors,
    evaluation_action,
    gamma1,
    gamma1_evaluation_action,
    gamma2,
    gamma2_evaluation_action,
    tensor_action,
    trivial_action,
    trivial_monoidal_action,
    verify_e0_universal,
    verify_e1_universal,
    verify_e2_universal,
)
from ecat.core import FinCategory
from ecat.enriched import _thin_host, check_enriched_nat
from ecat.enriched_monoidal import (
    EnrichedBraidedCategory,
    EnrichedHalfBraiding,
    check_enriched_half_braiding,
    underlying_half_braiding,
    underlying_monoidal,
)
from ecat.monoidal import (
    HalfBraidingOrd,
    check_half_braiding,
    drinfeld_center_z1,
    muger_center_z2,
)
from ecat.report import Budget, ValidationReport

from helpers import (
    bracket_pair_used,
    chain3_monoidal,
    counting_calls,
    exhaustive_bracket_pair,
    identity_braiding,
    lattice2_monoidal,
    lattice4_monoidal,
    lattice8_monoidal,
    preorder_enriched_monoidal,
    sign_enriched,
    ungated_bracket_family,
    ungated_check_enriched_half_braiding,
    z2_discrete_monoidal,
)

CAP = 500_000


def _canonical(m):
    return canonical_monoidal(monoidal_self_module(identity_braiding(m)))


HOSTS = {
    "lattice2": lambda: _canonical(lattice2_monoidal()),
    "lattice4": lambda: _canonical(lattice4_monoidal()),
    "lattice8": lambda: _canonical(lattice8_monoidal()),
    "chain3": lambda: _canonical(chain3_monoidal()),
    "z2": lambda: _canonical(z2_discrete_monoidal()),
    "preorder": preorder_enriched_monoidal,
}

# at most this many one-entry changes of each table, spread evenly over it
CHANGES = 24


def _outcome(run, *args):
    """The result of run(*args, budget) and the budget it used, or the type
    and message of what it raised and the budget used by then."""
    budget = Budget(CAP)
    try:
        got = run(*args, budget)
    except Exception as exc:
        return type(exc), str(exc), budget.used
    return got, budget.used


def _report(check, em, hb):
    """The violations check reports, or the type and message it raises."""
    try:
        return check(em, hb).violations
    except Exception as exc:
        return type(exc), str(exc)


def _spread(keys) -> list:
    keys = list(keys)
    return keys[:: max(1, len(keys) // CHANGES)]


def _mistyped(c: FinCategory, f: int, k: int) -> int:
    """The k-th morphism of c (cyclically) of another type than f."""
    alts = [g for g in c.morphisms() if (c.dom[g], c.cod[g]) != (c.dom[f], c.cod[f])]
    return alts[k % len(alts)]


def _changed(table: dict, c: FinCategory, keys):
    """Each one-entry change of table at keys to a mistyped morphism."""
    for k, key in enumerate(keys):
        yield {**table, key: _mistyped(c, table[key], k)}


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


# --- E0: half-braided families ---


def _e0_inputs(name):
    e = HOSTS[name]().host
    return e, enumerate_identity_background_functors(e, e, CAP), drinfeld_center_z1(e.base)


@pytest.mark.parametrize("name", HOSTS)
def test_bracket_family_matches_the_ungated_search_and_composes_nothing(name, compositions):
    e, funs, z1 = _e0_inputs(name)
    assert _thin_host(e)
    found = 0
    for f, g in itertools.product(funs, repeat=2):
        want = _outcome(ungated_bracket_family, e, f, g, z1)
        del compositions[:]
        assert _outcome(bracket_family, e, f, g, z1) == want
        assert compositions == []
        found += want[0] is not None
    assert found > 0


def _e0_changes(e, funs, z1):
    """(e, fF, fG, z1) with one entry changed: a host composition cell, a
    component of fF or of fG, a half-braiding component of an object of z1,
    or the forgetful functor of z1 on a morphism."""
    c = e.base.base
    fF, fG = funs[0], funs[-1]
    for comp in _changed(dict(e.comp), c, _spread(e.comp)):
        yield dataclasses.replace(e, comp=comp), fF, fG, z1
    for comps in _changed(dict(fF.components), c, _spread(fF.components)):
        yield e, dataclasses.replace(fF, components=comps), fG, z1
    for comps in _changed(dict(fG.components), c, _spread(fG.components)):
        yield e, fF, dataclasses.replace(fG, components=comps), z1
    keys = _spread(itertools.product(range(len(z1.object_data)), c.objects()))
    for k, (i, h) in enumerate(keys):
        x, hb = z1.object_data[i]
        bad = HalfBraidingOrd(hb.carrier, {**hb.components, h: _mistyped(c, hb.components[h], k)})
        data = z1.object_data[:i] + ((x, bad),) + z1.object_data[i + 1:]
        yield e, fF, fG, dataclasses.replace(z1, object_data=data)
    fwd = z1.forgetful
    mors = dict(enumerate(fwd.functor.mor_map))
    for mor_map in _changed(mors, c, _spread(mors)):
        functor = dataclasses.replace(fwd.functor, mor_map=tuple(mor_map.values()))
        yield e, fF, fG, dataclasses.replace(z1, forgetful=dataclasses.replace(fwd, functor=functor))


@pytest.mark.parametrize("name", HOSTS)
def test_bracket_family_on_a_changed_entry_matches_the_ungated_search(name):
    e, funs, z1 = _e0_inputs(name)
    n = 0
    for args in _e0_changes(e, funs, z1):
        assert _outcome(bracket_family, *args) == _outcome(ungated_bracket_family, *args)
        n += 1
    assert n > 0


# --- E1: enriched half-braidings and bracket pairs ---


def _candidates(em, x) -> list:
    """Every half-braiding on x that the enumeration tries."""
    e = em.host
    c = e.base.base
    u = e.base.unit
    pools = [c.hom(u, e.hom(em.t(z, x), em.t(x, z))) for z in e.objects()]
    return [EnrichedHalfBraiding(x, dict(enumerate(p))) for p in itertools.product(*pools)]


def _tensor_keys(em, x, y) -> list:
    """The keys of the tensor cells at (z, x, z, y) and (x, z, y, z) for
    every object z, which the sliding squares of x and y read."""
    p = em.pair
    return [
        key for z in em.host.objects()
        for key in ((p(z, x), p(z, y)), (p(x, z), p(y, z)))
    ]


def _naturality_keys(em, x) -> list:
    """The keys of the tensor cells at (y, x, z, x) and (x, y, x, z) for
    every pair of objects, which the naturality squares of a half-braiding
    on x read. A cell whose hom(y, z) has no element is read there and
    nowhere else: the underlying monoidal category does not compose it."""
    p = em.pair
    return [
        key for y, z in itertools.product(em.host.objects(), repeat=2)
        for key in ((p(y, x), p(z, x)), (p(x, y), p(x, z)))
    ]


def _with_tensor(em, cells):
    return dataclasses.replace(em, tensor=dataclasses.replace(em.tensor, components=cells))


@pytest.mark.parametrize("name", HOSTS)
def test_enriched_half_braidings_match_the_ungated_check(name, compositions):
    em = HOSTS[name]()
    assert _thin_host(em.host)
    c = em.host.base.base
    checks = 0
    for x in em.host.objects():
        for hb in _candidates(em, x):
            want = _report(ungated_check_enriched_half_braiding, em, hb)
            del compositions[:]
            got = _report(check_enriched_half_braiding, em, hb)
            assert got == want
            if want == []:  # only the Set-level check composes
                n = len(compositions)
                del compositions[:]
                check_half_braiding(underlying_monoidal(em), underlying_half_braiding(em, hb))
                assert n == len(compositions)
            for comps in _changed(hb.components, c, _spread(hb.components)):
                bad = EnrichedHalfBraiding(x, comps)
                assert _report(check_enriched_half_braiding, em, bad) == _report(
                    ungated_check_enriched_half_braiding, em, bad
                )
            checks += 1
    assert checks > 0


@pytest.mark.parametrize("name", HOSTS)
def test_enriched_half_braidings_on_a_changed_cell_match_the_ungated_check(name):
    em = HOSTS[name]()
    e = em.host
    c = e.base.base
    x = e.n_objects - 1
    hbs = _candidates(em, x)
    cells = dict(em.tensor.components)
    changed = [_with_tensor(em, t) for t in _changed(cells, c, _spread(_naturality_keys(em, x)))]
    changed += [
        dataclasses.replace(em, host=dataclasses.replace(e, comp=comp))
        for comp in _changed(dict(e.comp), c, _spread(e.comp))
    ]
    for bad in changed:
        for hb in hbs:
            assert _report(check_enriched_half_braiding, bad, hb) == _report(
                ungated_check_enriched_half_braiding, bad, hb
            )


def _e1_inputs(name):
    """The host, its half-braided objects as the ungated check finds them,
    and its transparent subcategory."""
    em = HOSTS[name]()
    objs = [
        (x, hb) for x in em.host.objects() for hb in _candidates(em, x)
        if ungated_check_enriched_half_braiding(em, hb).ok
    ]
    return em, objs, muger_center_z2(em.braiding)


def _e1_changes(em, objs, z2):
    """(em, z2, oi, oj) with one entry changed: a host composition cell, a
    tensor cell that a sliding square reads, a half-braiding component of
    oi or of oj, or the inclusion of the transparent objects on a morphism."""
    e = em.host
    c = e.base.base
    oi, oj = objs[0], objs[-1]
    for comp in _changed(dict(e.comp), c, _spread(e.comp)):
        yield dataclasses.replace(em, host=dataclasses.replace(e, comp=comp)), z2, oi, oj
    keys = _spread(_tensor_keys(em, oi[0], oj[0]))
    for cells in _changed(dict(em.tensor.components), c, keys):
        yield _with_tensor(em, cells), z2, oi, oj
    (x, hbx), (y, hby) = oi, oj
    for comps in _changed(hbx.components, c, _spread(hbx.components)):
        yield em, z2, (x, EnrichedHalfBraiding(x, comps)), oj
    for comps in _changed(hby.components, c, _spread(hby.components)):
        yield em, z2, oi, (y, EnrichedHalfBraiding(y, comps))
    z2mon, z2br, incl = z2
    mors = dict(enumerate(incl.functor.mor_map))
    for mor_map in _changed(mors, c, _spread(mors)):
        functor = dataclasses.replace(incl.functor, mor_map=tuple(mor_map.values()))
        yield em, (z2mon, z2br, dataclasses.replace(incl, functor=functor)), oi, oj


def _pair_outcome(em, z2, oi, oj):
    """The outcome of ``exhaustive_bracket_pair``, with the ``Budget.used``
    that ``bracket_pair`` spends in its place (``bracket_pair_used``)."""
    *got, used = _outcome(exhaustive_bracket_pair, em, z2, oi, oj)
    return (*got, bracket_pair_used(em, z2, oi, oj, used, len(got) > 1))


@pytest.mark.parametrize("name", HOSTS)
def test_bracket_pair_composes_nothing_on_a_thin_host(name, compositions):
    em, objs, z2 = _e1_inputs(name)
    assert _thin_host(em.host)  # its kept verdict is decided here, not counted below
    for oi, oj in itertools.product(objs, repeat=2):
        want = _pair_outcome(em, z2, oi, oj)
        del compositions[:]
        assert _outcome(bracket_pair, em, z2, oi, oj) == want
        assert want[0] is not None and compositions == []


@pytest.mark.parametrize("name", HOSTS)
def test_bracket_pair_on_a_changed_entry_matches_the_ungated_search(name):
    em, objs, z2 = _e1_inputs(name)
    n = 0
    for args in _e1_changes(em, objs, z2):
        assert _outcome(bracket_pair, *args) == _pair_outcome(*args)
        n += 1
    assert n > 0


# --- the verifiers' naturality squares ---

# the thin hosts of the verifiers, by their base; preorder is its own host
THIN_BASES = {
    "lattice2": lattice2_monoidal,
    "lattice4": lattice4_monoidal,
    "chain3": chain3_monoidal,
    "z2": z2_discrete_monoidal,
    "preorder": None,
}
LEVELS = ("e0", "e1", "e2")


@functools.lru_cache(maxsize=None)
def _braided_host(name) -> EnrichedBraidedCategory:
    if name == "preorder":
        em = preorder_enriched_monoidal()
        e = em.host
        braiding = {(x, y): e.one(em.t(x, y)) for x, y in itertools.product(e.objects(), repeat=2)}
        return EnrichedBraidedCategory(em, braiding, True)
    b = identity_braiding(THIN_BASES[name]())
    return canonical_braided(monoidal_self_module(b), b, symmetric=True)


@functools.lru_cache(maxsize=None)
def _verifier(name, level) -> tuple:
    """(verify, subject, center, {action kind: action}) at one level."""
    eb = _braided_host(name)
    em = eb.host
    e = em.host
    if level == "e0":
        res = e0_center(e, CAP)
        return verify_e0_universal, e, res, {
            "evaluation": evaluation_action(res, e), "trivial": trivial_action(e)}
    if level == "e1":
        res = gamma1(em, CAP)
        return verify_e1_universal, em, res, {
            "evaluation": gamma1_evaluation_action(res, em),
            "trivial": trivial_monoidal_action(em)}
    res = gamma2(eb, CAP)
    return verify_e2_universal, eb, res, {
        "evaluation": gamma2_evaluation_action(res, eb),
        "trivial": trivial_monoidal_action(em)}


def _nat_outcome(check, *args):
    """The violations check reports, or the type and message it raises."""
    try:
        return check(*args).violations
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture
def nat_reports(monkeypatch):
    """A list that gets (gated outcome, check_enriched_nat outcome) for each
    nat that a verifier checks through ``centers._nat_report``."""
    pairs = []
    gated = centers._nat_report

    def comparing(n, cells):
        want = _nat_outcome(check_enriched_nat, n)
        try:
            report = gated(n, cells)
        except Exception as exc:
            pairs.append(((type(exc), str(exc)), want))
            raise
        pairs.append((report.violations, want))
        return report

    monkeypatch.setattr(centers, "_nat_report", comparing)
    return pairs


@pytest.mark.parametrize("kind", ["evaluation", "trivial"])
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", THIN_BASES)
def test_a_verifier_composes_no_naturality_square_on_a_thin_host(name, level, kind, monkeypatch):
    verify, subject, res, acts = _verifier(name, level)
    e0_ev(res)  # kept: the center's action on its host is built once per center
    squares = counting_calls(monkeypatch, enriched, "_nat_square")
    computed = counting_calls(monkeypatch, centers, "_computed")
    # rho, the mediator candidates and the comparison functor's composition
    # law are decided from typing: rho's source is not even built
    spies = [
        counting_calls(monkeypatch, module, fun) for module, fun in (
            (centers, "product_enriched_functor"),
            (centers, "compose_enriched_functors"),
            (enriched, "check_lax_monoidal_nat"),
            (centers, "_check_enriched_functor_composition"),
            (centers, "_nat_report"),
        )
    ]
    out = verify(subject, acts[kind], CAP, res)
    assert (out.report.violations, out.uniqueness_count) == ([], 1)
    assert squares == []
    assert computed == []
    assert spies == [[]] * len(spies)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", THIN_BASES)
def test_the_gated_nat_reports_equal_check_enriched_nat(name, level, nat_reports, monkeypatch):
    verify, subject, res, acts = _verifier(name, level)
    # with the verifier's own typing off, rho and every mediator candidate
    # reach _nat_report, whose squares typing still decides
    monkeypatch.setattr(centers, "_thin_host", lambda e: False)
    monkeypatch.setattr(centers, "_ev_typed", lambda res: False)
    for act in acts.values():
        verify(subject, act, CAP, res)
    assert nat_reports
    for got, want in nat_reports:
        assert got == want


def _odot_changes(act):
    """act with one odot component changed to a mistyped morphism, at a
    spread of keys."""
    c = act.acted.base.base
    comps = dict(act.odot.components)
    for k, key in enumerate(_spread(comps)):
        odot = dataclasses.replace(
            act.odot, components={**comps, key: _mistyped(c, comps[key], k)})
        yield dataclasses.replace(act, odot=odot)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", THIN_BASES)
def test_a_mistyped_action_cell_falls_back_to_the_squares(name, level, nat_reports, monkeypatch):
    verify, subject, res, acts = _verifier(name, level)
    squares = counting_calls(monkeypatch, centers, "_check_enriched_nat_squares")
    fell_back = 0
    for act in _odot_changes(acts["evaluation"]):
        del squares[:], nat_reports[:]
        try:
            verify(subject, act, CAP, res)
        except Exception:
            pass  # a mistyped cell may not compose; where a nat check raised, so did the oracle
        for got, want in nat_reports:
            assert got == want
        fell_back += bool(squares)
    assert fell_back > 0


def _action_changes(act, spread=_spread):
    """act with one entry changed to a mistyped morphism: a component, its
    background on a morphism, a mult cell of its background, at a spread of
    keys, or its background's unit cell."""
    c = act.target.base.base
    bg = act.background
    for comps in _changed(dict(act.components), c, spread(act.components)):
        yield dataclasses.replace(act, components=comps)
    mors = dict(enumerate(bg.functor.mor_map))
    for mor_map in _changed(mors, c, spread(mors)):
        functor = dataclasses.replace(bg.functor, mor_map=tuple(mor_map.values()))
        yield dataclasses.replace(act, background=dataclasses.replace(bg, functor=functor))
    for mult in _changed(dict(bg.mult), c, spread(bg.mult)):
        yield dataclasses.replace(act, background=dataclasses.replace(bg, mult=mult))
    yield dataclasses.replace(
        act, background=dataclasses.replace(bg, unit_cell=_mistyped(c, bg.unit_cell, 0)))


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", THIN_BASES)
def test_a_center_action_types_only_when_every_cell_is_typed(name, level):
    _, _, res, _ = _verifier(name, level)
    assert centers._ev_typed(res)
    n = 0
    for act in _action_changes(e0_ev(res)):
        bad = dataclasses.replace(res)  # its store starts empty
        bad._kept[e0_ev.__wrapped__] = act
        assert not centers._ev_typed(bad)
        n += 1
    assert n > 0


@pytest.mark.parametrize("level", LEVELS)
def test_rho_source_is_materialised_when_the_comparison_functor_fails(level, monkeypatch):
    # its factors are then not known to be typed
    verify, subject, res, acts = _verifier("lattice2", level)

    def failing(ecp, bg_report):
        report = ValidationReport("stub")
        report.add("stub-law", (0,))
        return report

    monkeypatch.setattr(centers, "_comparison_report", failing)
    computed = counting_calls(monkeypatch, centers, "_computed")
    nats = counting_calls(monkeypatch, centers, "_nat_report")
    out = verify(subject, acts["evaluation"], CAP, res)
    assert [v.law for v in out.report.violations] == ["comparison-functor-stub-law"]
    assert len(computed) == 1
    # nor are the mediator candidates known to be typed: each nat is checked
    assert [n.source is n.target for n, _ in nats] == [False] + [True] * (len(nats) - 1)
    assert len(nats) > 1


# --- the verifiers decide rho, the mediators and the comparison functor ---

# at most this many one-entry changes of each action table per verifier
VERIFIER_CHANGES = 8
CHECKS = {"e0": centers._E0Check, "e1": centers._E1Check, "e2": centers._E2Check}


def _few(keys) -> list:
    keys = list(keys)
    return keys[:: max(1, len(keys) // VERIFIER_CHANGES)]


def _theorem(verify, subject, act, res):
    """The violations and uniqueness count of a verification and the
    budget it used, or the type and message of what it raised and the
    budget used by then."""
    budget = Budget(CAP)
    try:
        out = verify(subject, act, budget, res)
    except Exception as exc:
        return type(exc), str(exc), budget.used
    return out.report.violations, out.uniqueness_count, budget.used


def _ungated_theorem(monkeypatch, verify, subject, act, res):
    """``_theorem`` with ``_thin_host`` False in centers and enriched, so
    that every law is checked in full, on a copy of the center that keeps
    its action on its host but no verdict on its typing."""
    bare = dataclasses.replace(res)  # its store starts empty
    bare._kept[e0_ev.__wrapped__] = e0_ev(res)
    with monkeypatch.context() as patched:
        patched.setattr(centers, "_thin_host", lambda e: False)
        patched.setattr(enriched, "_thin_host", lambda e: False)
        return _theorem(verify, subject, act, bare)


def _unital_changes(act):
    """act with one cell changed to a mistyped morphism: a cell of odot
    (``_action_changes``), or an entry of xi_el, xi_bg or f2, at a few
    keys."""
    c = act.acted.base.base
    for odot in _action_changes(act.odot, _few):
        yield dataclasses.replace(act, odot=odot)
    for field in ("xi_el", "xi_bg", "f2"):
        table = getattr(act, field)
        if table is not None:
            for changed in _changed(dict(table), c, _few(table)):
                yield dataclasses.replace(act, **{field: changed})


@pytest.mark.parametrize("kind", ["evaluation", "trivial"])
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", THIN_BASES)
def test_a_verifier_reports_what_it_reports_with_the_thin_gates_off(
        name, level, kind, monkeypatch):
    verify, subject, res, acts = _verifier(name, level)
    act = acts[kind]
    got = _theorem(verify, subject, act, res)
    assert got[:2] == ([], 1)
    assert got == _ungated_theorem(monkeypatch, verify, subject, act, res)
    n = 0
    for bad in _unital_changes(act):
        assert _theorem(verify, subject, bad, res) == _ungated_theorem(
            monkeypatch, verify, subject, bad, res)
        n += 1
    assert n > 0


@pytest.mark.parametrize("name", THIN_BASES)
def test_a_mistyped_actor_composition_cell_reports_what_it_reports_with_the_thin_gates_off(
        name, monkeypatch):
    # the comparison functor's composition law reads the actor's composition
    # cells, which a host acting on itself by its tensor does not type
    verify, subject, res, _ = _verifier(name, "e0")
    em = _braided_host(name).host
    act = tensor_action(em)
    assert _theorem(verify, subject, act, res)[:2] == ([], 1)
    e = em.host
    n = 0
    for comp in _changed(dict(e.comp), e.base.base, _few(e.comp)):
        actor = dataclasses.replace(em, host=dataclasses.replace(e, comp=comp))
        bad = dataclasses.replace(act, actor=actor)
        assert _theorem(verify, subject, bad, res) == _ungated_theorem(
            monkeypatch, verify, subject, bad, res)
        n += 1
    assert n > 0


@pytest.mark.parametrize("kind", ["evaluation", "trivial"])
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", THIN_BASES)
def test_a_mistyped_comparison_component_reports_what_it_reports_with_the_thin_gates_off(
        name, level, kind, monkeypatch):
    verify, subject, res, acts = _verifier(name, level)
    act = acts[kind]
    la = getattr(act.actor, "host", act.actor)  # the acting enriched category
    cls = CHECKS[level]
    component = cls.component
    n = 0
    for k, key in enumerate(_few(itertools.product(la.objects(), repeat=2))):
        def mistyped(self, P, phat_obj, a, b, h, key=key, k=k):
            f = component(self, P, phat_obj, a, b, h)
            return _mistyped(self.host.base.base, f, k) if (a, b) == key else f

        monkeypatch.setattr(cls, "component", mistyped)
        got = _theorem(verify, subject, act, res)
        assert got[:2] != ([], 1)  # reported, or raised where rho's source is read
        assert got == _ungated_theorem(monkeypatch, verify, subject, act, res)
        n += 1
    assert n > 0


@pytest.mark.parametrize("kind", ["evaluation", "trivial"])
def test_off_a_thin_host_a_verifier_checks_rho_the_mediators_and_the_composition_law(
        kind, monkeypatch):
    e = sign_enriched(2, 0)
    res = e0_center(e, CAP)
    assert not _thin_host(res.category.host)
    act = evaluation_action(res, e) if kind == "evaluation" else trivial_action(e)
    sources = counting_calls(monkeypatch, centers, "product_enriched_functor")
    compositions = counting_calls(monkeypatch, centers, "_check_enriched_functor_composition")
    nats = counting_calls(monkeypatch, centers, "_nat_report")
    out = verify_e0_universal(e, act, CAP, res)
    assert (out.report.violations, out.uniqueness_count) == ([], 1)
    assert len(sources) == len(compositions) == 1
    # rho's, then one per mediator candidate
    assert [n.source is n.target for n, _ in nats] == [False] + [True] * (len(nats) - 1)
    assert len(nats) > 1


# --- condition_star: each cell typed once ---

STAR_HOSTS = {
    **{name: lambda name=name: _braided_host(name).host.host for name in THIN_BASES},
    "sign2": lambda: sign_enriched(2, 0),  # not thin: nothing is typed
}


@pytest.mark.parametrize("name", STAR_HOSTS)
def test_condition_star_types_each_functor_once_and_matches_the_ungated_search(
        name, monkeypatch):
    e = STAR_HOSTS[name]()
    typed = counting_calls(monkeypatch, centers, "_enriched_functor_cells")
    braidings = counting_calls(monkeypatch, centers, "_half_braiding_cells")
    star = condition_star(e, CAP)
    thin = _thin_host(e)
    assert sorted(id(f) for (f,) in typed) == sorted(map(id, star.functors) if thin else [])
    assert len(braidings) == 1
    for (i, j), bracket in star.brackets.items():
        want = ungated_bracket_family(e, star.functors[i], star.functors[j], star.z1, Budget(CAP))
        assert bracket == want
