"""Lookups paid for once: the hom index, the inverse memo and the hoisted
check_monoidal_module, each compared with the plain version it replaced."""

import dataclasses
import itertools

import pytest

from ecat.actions import check_monoidal_module, internal_hom, monoidal_self_module, self_module
from ecat.core import FinCategory, _degree_signature, opposite_category, product_category
from ecat.monoidal import drinfeld_center_z1, enumerate_half_braidings, find_inverse, product_monoidal
from ecat.report import BudgetExceeded

from helpers import (
    chain3_monoidal,
    exhaustive_check_monoidal_module,
    identity_braiding,
    lattice2_monoidal,
    lattice4_monoidal,
    scan_hom,
    scan_inverse,
    semion_braiding,
    semion_monoidal,
    sign_monoidal,
    z2_discrete_monoidal,
)

MONOIDALS = {
    "z2": z2_discrete_monoidal,
    "semion": semion_monoidal,
    "lattice2": lattice2_monoidal,
    "chain3": chain3_monoidal,
    "lattice4": lattice4_monoidal,
}


def _categories():
    """Each fixture's category, its product view with itself, its opposite
    and a dataclasses.replace copy."""
    for name, build in MONOIDALS.items():
        c = build().base
        yield name, c
        yield f"{name}^2", product_category(c, c)
        yield f"{name}^op", opposite_category(c)
        yield f"{name}-replaced", dataclasses.replace(c, obj_names=None)


CATEGORIES = dict(_categories())


@pytest.mark.parametrize("name", CATEGORIES)
def test_hom_matches_linear_scan(name):
    c = CATEGORIES[name]
    for x, y in itertools.product(range(-1, c.n_objects + 1), repeat=2):
        assert c.hom(x, y) == scan_hom(c, x, y)
        assert type(c.hom(x, y)) is tuple


def test_hom_index_is_lazy_per_instance_and_not_a_field():
    c = product_category(lattice2_monoidal().base, z2_discrete_monoidal().base)
    assert "_hom_index" not in vars(c)
    assert c.hom(0, 0) == scan_hom(c, 0, 0)
    assert "_hom_index" in vars(c)
    assert "_hom_index" not in {f.name for f in dataclasses.fields(FinCategory)}
    copy = dataclasses.replace(c)
    assert copy == c
    assert "_hom_index" not in vars(copy)
    # a copy with other tables gets its own index, not the original's
    flipped = dataclasses.replace(c, dom=c.cod, cod=c.dom)
    for x, y in itertools.product(c.objects(), repeat=2):
        assert flipped.hom(x, y) == scan_hom(flipped, x, y) == c.hom(y, x)


@pytest.mark.parametrize("name", CATEGORIES)
def test_degree_signature_matches_linear_scan(name):
    c = CATEGORIES[name]
    for x in c.objects():
        outs = sorted(len(scan_hom(c, x, y)) for y in c.objects())
        ins = sorted(len(scan_hom(c, y, x)) for y in c.objects())
        expected = (tuple(outs), tuple(ins), len(scan_hom(c, x, x)))
        assert _degree_signature(c, x) == expected


@pytest.mark.parametrize("name", CATEGORIES)
def test_find_inverse_matches_rescan(name):
    c = CATEGORIES[name]
    answers = [scan_inverse(c, f) for f in c.morphisms()]
    assert [find_inverse(c, f) for f in c.morphisms()] == answers
    assert [find_inverse(c, f) for f in c.morphisms()] == answers


def test_find_inverse_reports_non_invertible_morphisms():
    c = lattice2_monoidal().base
    (le,) = c.hom(0, 1)
    assert find_inverse(c, le) is None
    assert find_inverse(c, le) is None
    assert find_inverse(c, c.identity[0]) == c.identity[0]


def test_find_inverse_memo_is_per_instance():
    group = sign_monoidal().base  # {e, g} with g.g = e
    idempotent = dataclasses.replace(
        group, compose={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    )
    assert find_inverse(group, 1) == 1
    assert find_inverse(idempotent, 1) is None
    assert scan_inverse(idempotent, 1) is None
    assert find_inverse(group, 1) == 1


# --- check_monoidal_module against the exhaustive oracle ---


def _self_cells():
    return {
        "semion": monoidal_self_module(semion_braiding()),
        "sign": monoidal_self_module(identity_braiding(sign_monoidal())),
        "z2": monoidal_self_module(identity_braiding(z2_discrete_monoidal())),
        "lattice2": monoidal_self_module(identity_braiding(lattice2_monoidal())),
        "chain3": monoidal_self_module(identity_braiding(chain3_monoidal())),
        "lattice4": monoidal_self_module(identity_braiding(lattice4_monoidal())),
        "sign-x-z2": monoidal_self_module(
            identity_braiding(product_monoidal(sign_monoidal(), z2_discrete_monoidal()))
        ),
    }


SELF_CELLS = _self_cells()


def _alternative(c, f, k):
    """A morphism of the same type as f, other than f, or None."""
    alts = [g for g in c.hom(c.dom[f], c.cod[f]) if g != f]
    return alts[k % len(alts)] if alts else None


def _mutations(cells):
    """One same-typed one-entry mutation per interchange cell, module
    associator cell and action mor_map entry that admits one."""
    mod = cells.module
    c = mod.carrier
    for k, (key, f) in enumerate(cells.interchange.items()):
        g = _alternative(c, f, k)
        if g is not None:
            inter = dict(cells.interchange)
            inter[key] = g
            yield "interchange", dataclasses.replace(cells, interchange=inter)
    for k, (key, f) in enumerate(mod.oplax_assoc.items()):
        g = _alternative(c, f, k)
        if g is not None:
            assoc = dict(mod.oplax_assoc)
            assoc[key] = g
            yield "module-associator", dataclasses.replace(
                cells, module=dataclasses.replace(mod, oplax_assoc=assoc)
            )
    for k, f in enumerate(mod.act.mor_map):
        g = _alternative(c, f, k)
        if g is not None:
            mor_map = list(mod.act.mor_map)
            mor_map[k] = g
            act = dataclasses.replace(mod.act, mor_map=tuple(mor_map))
            yield "action", dataclasses.replace(
                cells, module=dataclasses.replace(mod, act=act)
            )


@pytest.mark.parametrize("name", SELF_CELLS)
def test_check_monoidal_module_matches_oracle_on_valid_cells(name):
    cells = SELF_CELLS[name]
    report = check_monoidal_module(cells)
    assert report.ok
    assert report.violations == exhaustive_check_monoidal_module(cells).violations


@pytest.mark.parametrize("name", ["semion", "sign", "sign-x-z2"])
def test_check_monoidal_module_matches_oracle_on_mutations(name):
    broken = {}
    count = 0
    for kind, cells in _mutations(SELF_CELLS[name]):
        got = check_monoidal_module(cells).violations
        assert got == exhaustive_check_monoidal_module(cells).violations
        assert got, f"{kind} mutation reported nothing"
        broken.setdefault(kind, set()).update(v.law for v in got)
        count += 1
    assert count > 0
    if name == "semion":
        assert set(broken) == {"interchange", "module-associator", "action"}
        assert "interchange-hexagon" in broken["interchange"]
        assert "interchange-naturality" in broken["action"]
        assert "associator-oplax-monoidal" in broken["module-associator"]


# --- searches honour ECAT_BUDGET by default ---


def test_internal_hom_honours_env_budget(monkeypatch):
    mod = self_module(lattice4_monoidal())
    assert internal_hom(mod, 3, 3) is not None
    monkeypatch.setenv("ECAT_BUDGET", "1")
    with pytest.raises(BudgetExceeded):
        internal_hom(mod, 3, 3)


def test_enumerate_half_braidings_honours_env_budget(monkeypatch):
    m = semion_monoidal()
    assert enumerate_half_braidings(m, 1)
    monkeypatch.setenv("ECAT_BUDGET", "1")
    with pytest.raises(BudgetExceeded):
        enumerate_half_braidings(m, 1)


def test_drinfeld_center_z1_honours_env_budget(monkeypatch):
    m = z2_discrete_monoidal()
    assert drinfeld_center_z1(m).monoidal.base.n_objects > 0
    monkeypatch.setenv("ECAT_BUDGET", "1")
    with pytest.raises(BudgetExceeded):
        drinfeld_center_z1(m)
