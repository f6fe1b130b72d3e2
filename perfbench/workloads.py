"""The four workloads: their stages, inputs and expected verdicts.

A workload is an ordered list of stages. Each stage calls one public `ecat`
function, reduces its result to a small verdict and compares that with an
answer fixed here. Later stages read earlier outputs by stage name, so a
stage that raised leaves its dependants failing too; every stage is
attempted on every pass and none is ever skipped.

Functions are called through their modules (`centers.e0_center`, not a
name imported here) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from ecat import actions, canonical, centers, enriched_monoidal, report

import perfbench.fixtures as fx

# The one candidate cap passed to every search. No search here spends more
# than a few thousand candidates (README.md lists the measured spends), so
# reaching the cap means a search has changed, and the stage fails.
CAP = 1_000_000


@dataclass(frozen=True)
class Stage:
    name: str
    run: Callable[[dict], Any]  # earlier outputs by stage name -> output
    verdict: Callable[[Any], Any]
    expected: Any


def laws(rep) -> tuple:
    return tuple(sorted(rep.laws()))


def laws_and_count(rep) -> tuple:
    return laws(rep), len(rep.violations)


def _hom_table(can) -> dict:
    return {p: ih.hom_obj for p, ih in can.homs.items()}


def _tensor_table(em) -> tuple:
    n = em.host.n_objects
    return em.unit_obj, tuple(em.t(x, y) for x in range(n) for y in range(n))


def _residuals(f: fx.ThinFixture) -> dict:
    return {(x, y): f.residual(x, y) for x in range(f.n) for y in range(f.n)}


def _tensors(f: fx.ThinFixture) -> tuple:
    return f.unit, tuple(f.tensor(x, y) for x in range(f.n) for y in range(f.n))


def canonical_stages(f: fx.ThinFixture, braided: bool) -> list:
    """The canonical construction and its monoidal (and braided) upgrade,
    checked against the residuation and tensor oracles."""
    n = f.name
    out = [
        Stage(
            f"{n}/canonical_construction",
            lambda o: canonical.canonical_construction(
                f.cells.module, report.Budget(CAP, "internal hom search")
            ),
            _hom_table,
            _residuals(f),
        ),
        Stage(
            f"{n}/canonical_monoidal",
            lambda o: canonical.canonical_monoidal(f.cells, o[f"{n}/canonical_construction"]),
            _tensor_table,
            _tensors(f),
        ),
    ]
    if braided:
        out.append(
            Stage(
                f"{n}/canonical_braided",
                lambda o: canonical.canonical_braided(
                    f.cells, f.braiding, o[f"{n}/canonical_construction"], True
                ),
                lambda eb: (eb.symmetric_flag, _tensor_table(eb.host)),
                (True, _tensors(f)),
            )
        )
    return out


def check_stages(thin: list, semion, preorder) -> list:
    stages = []
    for f in thin:
        n = f.name
        stages += canonical_stages(f, braided=True)
        stages += [
            Stage(
                f"{n}/check_enriched_monoidal",
                lambda o, n=n: enriched_monoidal.check_enriched_monoidal(
                    o[f"{n}/canonical_monoidal"]
                ),
                laws,
                (),
            ),
            Stage(
                f"{n}/check_enriched_braided",
                lambda o, n=n: enriched_monoidal.check_enriched_braided(
                    o[f"{n}/canonical_braided"]
                ),
                laws,
                (),
            ),
        ]
    stages += [
        Stage(
            "semion/check_enriched_monoidal",
            lambda o: enriched_monoidal.check_enriched_monoidal(semion),
            laws,
            (),
        ),
        Stage(
            "preorder/check_enriched_monoidal",
            lambda o: enriched_monoidal.check_enriched_monoidal(preorder.host),
            laws,
            (),
        ),
        Stage(
            "preorder/check_enriched_braided",
            lambda o: enriched_monoidal.check_enriched_braided(preorder),
            laws,
            (),
        ),
    ]
    return stages


def reject_stages(semion_cells, semion, semion_muts, l4, l4_em, cell_muts, em_muts):
    stages = [
        Stage(
            "semion-self/canonical_monoidal",
            lambda o: canonical.canonical_monoidal(semion_cells),
            _tensor_table,
            (0, (0, 1, 1, 0)),
        ),
        # The semion braiding is not symmetric, so the self-action's
        # interchange fails enriched functoriality of the tensor at all
        # 2 x 2 x 2 x 2 composable quadruples of the product.
        Stage(
            "semion-self/check_enriched_monoidal",
            lambda o: enriched_monoidal.check_enriched_monoidal(
                o["semion-self/canonical_monoidal"]
            ),
            laws_and_count,
            (("tensor:enriched-functor-composition",), 16),
        ),
    ]
    for mut in semion_muts:
        bad = fx.apply(semion, mut)
        stages.append(
            Stage(
                f"semion-associator[{mut.label}]/check_enriched_monoidal",
                lambda o, bad=bad: enriched_monoidal.check_enriched_monoidal(bad),
                laws,
                mut.laws,
            )
        )
    for mut in cell_muts:
        bad = fx.apply(l4.cells, mut)
        stages.append(
            Stage(
                f"{l4.name}-interchange[{mut.label}]/check_monoidal_module",
                lambda o, bad=bad: actions.check_monoidal_module(bad),
                laws,
                mut.laws,
            )
        )
    for mut in em_muts:
        bad = fx.apply(l4_em, mut)
        stages.append(
            Stage(
                f"{l4.name}-{mut.label}/check_enriched_monoidal",
                lambda o, bad=bad: enriched_monoidal.check_enriched_monoidal(bad),
                laws,
                mut.laws,
            )
        )
    return stages


def _universal(out) -> tuple:
    return out.report.ok, out.uniqueness_count


def center_stages(name, e, em, eb, f: fx.ThinFixture | None, e0_count, n) -> list:
    """E0/E1/E2 centers and their verifiers on one fixture.

    e, em, eb are the enriched, enriched monoidal and enriched braided
    category, either given or read from earlier stages by name.
    """
    p = f"{name}/"
    stages = [
        Stage(p + "e0_center", lambda o: centers.e0_center(e(o), CAP),
              lambda r: r.category.host.n_objects, e0_count),
        Stage(p + "verify_e0_universal[evaluation]",
              lambda o: centers.verify_e0_universal(
                  e(o), centers.evaluation_action(o[p + "e0_center"], e(o)), CAP,
                  o[p + "e0_center"]),
              _universal, (True, 1)),
        Stage(p + "verify_e0_universal[trivial]",
              lambda o: centers.verify_e0_universal(
                  e(o), centers.trivial_action(e(o)), CAP, o[p + "e0_center"]),
              _universal, (True, 1)),
        # Thin or discrete and symmetric: each object has exactly one
        # half-braiding and every object is transparent.
        Stage(p + "gamma1", lambda o: centers.gamma1(em(o), CAP),
              lambda r: len(r.witnesses["objects"]), n),
        Stage(p + "verify_e1_universal[evaluation]",
              lambda o: centers.verify_e1_universal(
                  em(o), centers.gamma1_evaluation_action(o[p + "gamma1"], em(o)), CAP,
                  o[p + "gamma1"]),
              _universal, (True, 1)),
        Stage(p + "verify_e1_universal[trivial]",
              lambda o: centers.verify_e1_universal(
                  em(o), centers.trivial_monoidal_action(em(o)), CAP, o[p + "gamma1"]),
              _universal, (True, 1)),
        Stage(p + "gamma2", lambda o: centers.gamma2(eb(o), CAP),
              lambda r: len(r.witnesses["objects"]), n),
        Stage(p + "verify_e2_universal[evaluation]",
              lambda o: centers.verify_e2_universal(
                  eb(o), centers.gamma2_evaluation_action(o[p + "gamma2"], eb(o)), CAP,
                  o[p + "gamma2"]),
              _universal, (True, 1)),
        Stage(p + "verify_e2_universal[trivial]",
              lambda o: centers.verify_e2_universal(
                  eb(o), centers.trivial_monoidal_action(em(o)), CAP, o[p + "gamma2"]),
              _universal, (True, 1)),
    ]
    if f is None:
        return stages
    stages += [
        Stage(p + "gamma1_of_canonical",
              lambda o: centers.gamma1_of_canonical(f.cells, CAP),
              lambda r: (r["iso"] is not None, r["strict"]), (True, True)),
        Stage(p + "gamma2_of_canonical",
              lambda o: centers.gamma2_of_canonical(f.cells, f.braiding, CAP),
              lambda r: r["tables_equal"], True),
        Stage(p + "e0_center_via_module",
              lambda o: centers.e0_center_via_module(f.cells.module, CAP),
              lambda r: r.category.n_objects, e0_count),
        Stage(p + "compare_e0_routes",
              lambda o: centers.compare_e0_routes(
                  o[p + "e0_center"], o[p + "e0_center_via_module"], CAP),
              lambda r: (r["iso"] is not None, r["strict"], r["tensor_ok"], r["unit_ok"]),
              (True, True, True, True)),
    ]
    return stages


def centers_stages(thin: list, preorder) -> list:
    stages = []
    for f in thin:
        n = f.name
        stages += canonical_stages(f, braided=True)
        stages += center_stages(
            n,
            lambda o, n=n: o[f"{n}/canonical_construction"].enriched,
            lambda o, n=n: o[f"{n}/canonical_monoidal"],
            lambda o, n=n: o[f"{n}/canonical_braided"],
            f,
            fx.endofunctor_count(f),
            f.n,
        )
    lattice2 = thin[0]
    stages += center_stages(
        "preorder",
        lambda o: preorder.host.host,
        lambda o: preorder.host,
        lambda o: preorder,
        None,
        fx.endofunctor_count(lattice2),  # its host is lattice-2 enriched in itself
        2,
    )
    return stages


def lattice8_stages(l8: fx.ThinFixture) -> list:
    n = l8.name
    return [
        Stage(f"{n}/check_monoidal_module",
              lambda o: actions.check_monoidal_module(l8.cells), laws, ()),
        *canonical_stages(l8, braided=False),
        Stage(f"{n}/gamma1",
              lambda o: centers.gamma1(o[f"{n}/canonical_monoidal"], CAP),
              lambda r: len(r.witnesses["objects"]), l8.n),
    ]


def build(workload: str, seed: int) -> list:
    """The stages of a workload; all inputs and mutations are made here."""
    rng = random.Random(seed)
    if workload == "lattice8":
        return lattice8_stages(fx.boolean_lattice(3))
    l2 = fx.boolean_lattice(1)
    thin = [l2, fx.boolean_lattice(2), fx.chain(3), fx.z2()]
    preorder = fx.preorder_enriched_monoidal(l2)
    if workload == "check":
        return check_stages(thin, fx.semion_enriched_monoidal(), preorder)
    if workload == "centers":
        return centers_stages(thin, preorder)
    if workload == "reject":
        semion = fx.semion_enriched_monoidal()
        l4 = thin[1]
        l4_em = canonical.canonical_monoidal(l4.cells)
        return reject_stages(
            actions.monoidal_self_module(fx.semion_braiding()),
            semion,
            fx.semion_associator_mutations(semion, rng, 2),
            l4,
            l4_em,
            fx.interchange_mutations(l4.cells, rng, 4),
            fx.coherence_element_mutations(l4_em, rng, 4),
        )
    raise ValueError(f"unknown workload {workload!r}")
