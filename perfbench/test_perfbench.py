"""Tests of the benchmark itself: fixtures, mutations, tracer, expected answers.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import random
import signal
import sys
import time

import pytest

from ecat import actions, canonical, enriched_monoidal, monoidal

from perfbench import fixtures as fx
from perfbench import run, speed, tracer, workloads

THIN = {
    "lattice2": lambda: fx.boolean_lattice(1),
    "lattice4": lambda: fx.boolean_lattice(2),
    "lattice8": lambda: fx.boolean_lattice(3),
    "chain3": lambda: fx.chain(3),
    "z2": fx.z2,
}
SEEDS = (0, 1, 7)


@pytest.mark.parametrize("name", sorted(THIN))
def test_thin_fixture_is_valid(name):
    f = THIN[name]()
    assert f.name == name
    assert monoidal.check_monoidal(f.monoidal).ok
    assert monoidal.check_braided(f.braiding).ok
    if name != "lattice8":  # the lattice8 workload checks this on every pass
        assert actions.check_monoidal_module(f.cells).ok


def test_semion_and_preorder_are_valid():
    assert enriched_monoidal.check_enriched_monoidal(fx.semion_enriched_monoidal()).ok
    pre = fx.preorder_enriched_monoidal(fx.boolean_lattice(1))
    assert enriched_monoidal.check_enriched_monoidal(pre.host).ok
    assert enriched_monoidal.check_enriched_braided(pre).ok


def test_semion_self_action_is_a_monoidal_module():
    cells = actions.monoidal_self_module(fx.semion_braiding())
    assert actions.check_monoidal_module(cells).ok


@pytest.mark.parametrize(
    "name,count", [("lattice2", 3), ("chain3", 8), ("lattice4", 9), ("z2", 2)]
)
def test_endofunctor_oracle_counts(name, count):
    assert fx.endofunctor_count(THIN[name]()) == count


def _mutations(seed):
    rng = random.Random(seed)
    semion = fx.semion_enriched_monoidal()
    l4 = fx.boolean_lattice(2)
    l4_em = canonical.canonical_monoidal(l4.cells)
    return [
        (semion, fx.semion_associator_mutations(semion, rng, 2),
         enriched_monoidal.check_enriched_monoidal),
        (l4.cells, fx.interchange_mutations(l4.cells, rng, 4),
         actions.check_monoidal_module),
        (l4_em, fx.coherence_element_mutations(l4_em, rng, 4),
         enriched_monoidal.check_enriched_monoidal),
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_mutations_are_deterministic_and_break_their_structure(seed):
    first, again = _mutations(seed), _mutations(seed)
    assert [m for _, ms, _ in first for m in ms] == [m for _, ms, _ in again for m in ms]
    for target, muts, check in first:
        for mut in muts:
            bad = fx.apply(target, mut)
            assert getattr(bad, mut.table)[mut.key] == mut.new != mut.old
            assert getattr(target, mut.table)[mut.key] == mut.old
            rep = check(bad)
            assert not rep.ok
            assert tuple(sorted(rep.laws())) == mut.laws


def test_every_mutation_in_each_space_reports_its_laws():
    semion = fx.semion_enriched_monoidal()
    l4 = fx.boolean_lattice(2)
    l4_em = canonical.canonical_monoidal(l4.cells)
    rng = random.Random(0)
    spaces = [
        # 8 entries x 3 phase shifts, less the one onto the other 3-cocycle
        (semion, fx.semion_associator_mutations(semion, rng, 8 * 3 - 1),
         enriched_monoidal.check_enriched_monoidal),
        (l4.cells, fx.interchange_mutations(l4.cells, rng, len(l4.cells.interchange)),
         actions.check_monoidal_module),
        (l4_em, fx.coherence_element_mutations(
            l4_em, rng, len(l4_em.associator) + 2 * l4_em.host.n_objects),
         enriched_monoidal.check_enriched_monoidal),
    ]
    for target, muts, check in spaces:
        assert len({(m.table, m.key, m.new) for m in muts}) == len(muts)
        for mut in muts:
            rep = check(fx.apply(target, mut))
            assert tuple(sorted(rep.laws())) == mut.laws, mut


def test_apply_refuses_a_mutation_that_changes_nothing():
    cells = fx.boolean_lattice(1).cells
    key = next(iter(cells.interchange))
    old = cells.interchange[key]
    same = fx.Mutation("noop", "interchange", key, old, old, ())
    with pytest.raises(ValueError):
        fx.apply(cells, same)


def test_seeds_give_different_mutations():
    labels = {
        tuple(m.label for _, ms, _ in _mutations(seed) for m in ms) for seed in SEEDS
    }
    assert len(labels) == len(SEEDS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_stage_has_an_expected_answer(workload):
    stages = workloads.build(workload, 1)
    names = [st.name for st in stages]
    assert len(names) == len(set(names))
    for st in stages:
        assert st.expected is not None, st.name
        assert callable(st.run) and callable(st.verdict)


def _originals():
    out = {}
    for target in tracer.SPANNED + tracer.COUNTED + (tracer.BUDGET,):
        owner, attr, original = tracer._resolve(target)
        out[target] = original
    return out


def _bindings_of(originals):
    """Every (module, name) in ecat that binds one of the original functions."""
    found = {}
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name.split(".")[0] != "ecat":
            continue
        for key, value in vars(mod).items():
            for target, original in originals.items():
                if value is original:
                    found[(name, key)] = target
    return found


def test_tracer_wraps_every_binding_and_removes_them():
    originals = _originals()
    bindings = _bindings_of(originals)
    # find_inverse is imported by name into several modules
    assert sum(t == "monoidal.find_inverse" for t in bindings.values()) > 1
    stages = [st for st in workloads.build("check", 1) if st.name.startswith("lattice2/")]
    with tracer.Tracer() as tr:
        assert len(tracer.installed_wrappers()) >= len(bindings)
        traced = run.run_pass(stages, tr)
    assert tracer.installed_wrappers() == []
    assert _bindings_of(originals) == bindings
    plain = run.run_pass(stages)
    assert not traced.failures and not plain.failures
    assert traced.verdicts == plain.verdicts
    totals = tr.totals()
    assert totals["enriched_monoidal.check_enriched_monoidal"]["calls"] == 1
    assert totals["core.FinCategory.hom"]["calls"] > 0
    assert totals["core.product_category"]["entries"] > 0
    assert tr.budget_total > 0
    roots = [node["name"] for node in tr.tree()]
    assert roots == ["stage:" + st.name for st in stages]


def test_tracer_removes_wrappers_when_the_traced_code_raises():
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert tracer.installed_wrappers() == []


def test_reject_pass_reports_every_expected_violation():
    stages = workloads.build("reject", 3)
    res = run.run_pass(stages)
    assert res.failures == {}
    assert set(res.verdicts) == {st.name for st in stages}
    assert res.violations > 0


def test_speed_probe_samples_the_region_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)

    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            speed.reference_work()

    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        busy()
        wall = time.perf_counter() - start
    assert len(probe.samples) >= 5
    assert 0 < probe.probe_s < wall
    assert probe.normalise(wall) > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_speed_probe_refuses_a_region_without_samples():
    with pytest.raises(RuntimeError):
        speed.SpeedProbe().normalise(1.0)
