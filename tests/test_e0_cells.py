"""The E0 center's tensor cells, composed from whiskerings, against the
per-cell mediation they replace; and ``_mediate`` reading a bracket's
mediator certificate against the hom-set scan it replaces."""

import itertools
import random

import pytest
from hypothesis import example, given, reject, settings

from ecat import centers
from ecat.actions import self_module
from ecat.canonical import canonical_construction
from ecat.centers import _mediate, e0_center, gamma1
from ecat.monoidal import drinfeld_center_z1, muger_center_z2
from ecat.report import Budget, StructureError

from helpers import (
    _scan_mediate,
    chain2_enriched,
    chain3_enriched,
    exhaustive_e0_cell,
    exhaustive_e0_center,
    lattice2_monoidal,
    lattice4_self_enriched,
    lattice8_self_enriched,
    meet_semilattice_monoidal,
    meet_semilattices,
    preorder_enriched_monoidal,
    semion_enriched_monoidal,
    sign_enriched,
    trivial_base_enriched,
    z2_enriched,
)

CAP = 10**7


def canonical_host(m):
    """The canonical enriched category of m acting on itself."""
    return canonical_construction(self_module(m), Budget(CAP, "host")).enriched


E0_HOSTS = {
    "chain2": chain2_enriched,
    "z2": z2_enriched,
    "trivial": trivial_base_enriched,
    "lattice2": lambda: canonical_host(lattice2_monoidal()),
    "lattice4": lattice4_self_enriched,
    "chain3": chain3_enriched,
    "preorder": lambda: preorder_enriched_monoidal().host,
    "semion": lambda: semion_enriched_monoidal().host,
    "sign2": lambda: sign_enriched(2, 0),
}


def _seeded_cells(n: int, count: int, seed: int) -> list:
    """count keys (p, q) of an n-object E0 tensor, drawn with a fixed seed."""
    rng = random.Random(seed)
    return [(rng.randrange(n * n), rng.randrange(n * n)) for _ in range(count)]


def assert_same_center(e):
    """Assert that e0_center(e) equals the per-cell oracle: hom objects,
    identities, composition, tensor object map, unit, unitors, associator
    and tensor cells; or that both raise the same exception type with the
    same message. A center of more than 9 objects compares 300 seeded
    cells instead of all n^4: 26^4 cells take the oracle about 10 s."""
    try:
        res = e0_center(e, CAP)
    except Exception as exc:
        with pytest.raises(type(exc)) as oracle:
            exhaustive_e0_center(e, CAP)
        assert str(oracle.value) == str(exc)
        return
    got = res.category
    n = got.host.n_objects
    cell_keys = None if n <= 9 else _seeded_cells(n, 300, n)
    want = exhaustive_e0_center(e, CAP, cell_keys).category
    assert got.host.hom_obj == want.host.hom_obj
    assert got.host.ident == want.host.ident
    assert got.host.comp == want.host.comp
    assert tuple(got.tensor.obj_map) == tuple(want.tensor.obj_map)
    assert got.unit_obj == want.unit_obj
    assert got.associator == want.associator
    assert (got.left_unitor, got.right_unitor) == (want.left_unitor, want.right_unitor)
    cells = want.tensor.components
    assert {key: got.tensor.components[key] for key in cells} == cells
    assert len(cells) == (n**4 if cell_keys is None else len(set(cell_keys)))


@pytest.mark.parametrize("name", E0_HOSTS)
def test_e0_center_matches_the_per_cell_oracle(name):
    assert_same_center(E0_HOSTS[name]())


def test_semion_has_no_e0_center():
    with pytest.raises(StructureError, match="no terminal half-braided family"):
        e0_center(semion_enriched_monoidal().host, CAP)


@settings(deadline=None, max_examples=25)
@given(meet_semilattices().filter(lambda masks: len(masks) <= 5))
@example([0, 1, 3, 5, 7])  # 26 endofunctors
@example([0, 2, 4, 6, 7])  # 23 endofunctors
def test_meet_semilattice_e0_centers_match_the_per_cell_oracle(masks):
    try:
        e = canonical_host(meet_semilattice_monoidal(masks))
    except StructureError:
        reject()  # not residuated: no canonical enriched category
    assert_same_center(e)


def test_lattice8_e0_center_cells_match_one_cell_mediations():
    res = e0_center(lattice8_self_enriched(), CAP)
    cells = res.category.tensor.components
    assert res.category.host.n_objects == 27
    assert not cells._memo  # no cell is composed before it is read
    w = res.witnesses
    z1 = w["z1"]
    keys = _seeded_cells(27, 300, 8)
    for p, q in keys:
        want = exhaustive_e0_cell(
            w["host"], w["functors"], w["brackets"], z1.monoidal, z1.forgetful,
            w["tensor_obj"], *divmod(p, 27), *divmod(q, 27),
        )
        assert cells[(p, q)] == want
    assert set(cells._memo) == set(keys)  # only the cells read were composed


def test_lattice4_e0_center_mediates_each_whisker_only_when_a_cell_needs_it(monkeypatch):
    calls = []
    mediate = centers._mediate

    def counting(*args):
        if args[-1] is not None:  # a family to factor: the host's are typed
            calls.append(1)
        return mediate(*args)

    monkeypatch.setattr(centers, "_mediate", counting)
    res = e0_center(lattice4_self_enriched(), CAP)
    n = res.category.host.n_objects
    cells = res.category.tensor.components
    assert calls == []  # the identities and compositions mediate no family
    cells[(1 * n + 2, 3 * n + 4)]
    assert len(calls) == 2  # its right and its left whisker
    for key in itertools.product(range(n * n), repeat=2):
        cells[key]
    assert len(calls) == 2 * n**3  # each whisker once, however many cells read it


# --- _mediate reads the certificate of the inclusion that built it ---


def _e0_brackets():
    for name, build in E0_HOSTS.items():
        if name != "semion":
            e = build()
            res = e0_center(e, CAP)
            yield name, e.base.base, res.witnesses["z1"].forgetful, res.witnesses["brackets"]


def _e1_brackets():
    em = preorder_enriched_monoidal()
    res = gamma1(em, CAP)
    yield "e1-preorder", em.host.base.base, res.witnesses["z2"][2], res.witnesses["brackets"]


BRACKETS = list(_e0_brackets()) + list(_e1_brackets())


def _counting_factors(monkeypatch) -> list:
    calls = []
    factors = centers._factors

    def counting(*args):
        calls.append(args)
        return factors(*args)

    monkeypatch.setattr(centers, "_factors", counting)
    return calls


@pytest.mark.parametrize("name, c, incl, brackets", BRACKETS, ids=[b[0] for b in BRACKETS])
def test_mediate_reads_the_certificate_of_every_family(name, c, incl, brackets, monkeypatch):
    calls = _counting_factors(monkeypatch)
    for br in brackets.values():
        for p, family in enumerate(br.objects):
            got = _mediate(c, incl, br, family.z_obj, family.components)
            assert got == br.mediators[p]
            assert got == _scan_mediate(c, incl, br, family.z_obj, family.components)
    assert not calls  # every answer was read, none scanned


def _absent_families(incl, br):
    """The components of each family of br, at every other center object:
    every such pair that is not itself a family of br."""
    listed = {(f.z_obj, tuple(f.components)) for f in br.objects}
    for z, f in itertools.product(incl.source.base.objects(), br.objects):
        if (z, tuple(f.components)) not in listed:
            yield z, f.components


def _outcome(run):
    try:
        return run()
    except StructureError as exc:
        return str(exc)


def test_mediate_scans_an_absent_family(monkeypatch):
    calls = _counting_factors(monkeypatch)
    raised = set()
    for _, c, incl, brackets in BRACKETS:
        for br in brackets.values():
            for z, family in _absent_families(incl, br):
                del calls[:]
                got = _outcome(lambda: _mediate(c, incl, br, z, family))
                assert calls or not incl.source.base.hom(z, br.obj)
                assert got == _outcome(lambda: _scan_mediate(c, incl, br, z, family))
                if isinstance(got, str):
                    raised.add(got)
    assert raised == {"expected one mediating morphism, found 0"}


def test_mediate_scans_for_a_foreign_inclusion(monkeypatch):
    e = chain2_enriched()
    em = preorder_enriched_monoidal()
    res0, res1 = e0_center(e, CAP), gamma1(em, CAP)
    runs = [
        (e.base.base, res0.witnesses["z1"].forgetful,
         drinfeld_center_z1(e.base).forgetful, res0.witnesses["brackets"]),
        (em.host.base.base, res1.witnesses["z2"][2],
         muger_center_z2(em.braiding)[2], res1.witnesses["brackets"]),
    ]
    calls = _counting_factors(monkeypatch)
    for c, own, foreign, brackets in runs:
        assert foreign == own and foreign is not own
        for br in brackets.values():
            for p, family in enumerate(br.objects):
                del calls[:]
                got = _mediate(c, foreign, br, family.z_obj, family.components)
                assert got == br.mediators[p]
                assert calls
