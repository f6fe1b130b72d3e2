"""check_lax_monoidal_functor and check_rigid against the frozen parent
bodies of tests/helpers.py, which also carried an "oplax" direction and a
hand-written right-dual search.

The checker knows one orientation. Every lax and strong functor below, and
every one-entry change of its unit cell and of its first six mult cells,
must be reported as the oracle reports it, or raise its exception type and
message. Every right dual of check_rigid, found as a left dual in the
reversed category, must be the witness of the mirrored search.
"""

import dataclasses

import pytest

from ecat.enriched import hom_set_lax_functor
from ecat.monoidal import (
    braided_tensor_lax_structure,
    check_lax_monoidal_functor,
    check_rigid,
    drinfeld_center_z1,
    find_left_dual,
    identity_lax,
    unit_pick_lax,
)
from ecat.report import StructureError, ValidationReport

from helpers import (
    chain3_monoidal,
    delooping_monoidal,
    exhaustive_check_lax_monoidal_functor,
    exhaustive_find_right_dual,
    identity_braiding,
    lattice2_monoidal,
    lattice4_monoidal,
    lattice8_monoidal,
    s3_discrete_monoidal,
    semion_braiding,
    semion_monoidal,
    sign_monoidal,
    z2_discrete_monoidal,
)

BRAIDED = {
    "z2": lambda: identity_braiding(z2_discrete_monoidal()),
    "lattice2": lambda: identity_braiding(lattice2_monoidal()),
    "lattice4": lambda: identity_braiding(lattice4_monoidal()),
    "chain3": lambda: identity_braiding(chain3_monoidal()),
    "sign": lambda: identity_braiding(sign_monoidal()),
    "bz3": lambda: identity_braiding(delooping_monoidal(3)),
    "semion": semion_braiding,
}

KINDS = {
    "identity": lambda b: identity_lax(b.host),
    "tensor": braided_tensor_lax_structure,
    "unit-pick": lambda b: unit_pick_lax(b.host),
    "z1-forgetful": lambda b: drinfeld_center_z1(b.host).forgetful,
}

FUNCTORS = {
    f"{kind}-{base}": (lambda k=kind, b=base: KINDS[k](BRAIDED[b]()))
    for kind in KINDS
    for base in BRAIDED
}
FUNCTORS["hom-set-lattice2"] = lambda: hom_set_lax_functor(lattice2_monoidal(), (0, 1))
FUNCTORS["hom-set-lattice4"] = lambda: hom_set_lax_functor(lattice4_monoidal(), (0, 1))


def _outcome(check, x):
    """The violations check reports, or the type and message it raises."""
    try:
        return check(x).violations
    except Exception as exc:
        return type(exc), str(exc)


def _one_entry_changes(f):
    """f, then f with its unit cell, or one of its first six mult cells, set
    to each morphism of the target and to the two indices just outside."""
    yield f
    values = range(-1, f.target.base.n_morphisms + 1)
    for u in values:
        yield dataclasses.replace(f, unit_cell=u)
    mult = dict(f.mult)
    for key in sorted(mult)[:6]:
        for v in values:
            yield dataclasses.replace(f, mult={**mult, key: v})


@pytest.mark.parametrize("name", FUNCTORS)
def test_lax_functor_reports_as_the_mirrored_oracle(name):
    f = FUNCTORS[name]()
    assert check_lax_monoidal_functor(f).ok
    for direction in ("lax", "strong"):
        for g in _one_entry_changes(dataclasses.replace(f, direction=direction)):
            got = _outcome(check_lax_monoidal_functor, g)
            assert got == _outcome(exhaustive_check_lax_monoidal_functor, g), (
                direction, g.unit_cell,
            )


RIGID = {
    "z2": z2_discrete_monoidal,
    "s3": s3_discrete_monoidal,
    "sign": sign_monoidal,
    "lattice2": lattice2_monoidal,
    "lattice4": lattice4_monoidal,
    "lattice8": lattice8_monoidal,
    "chain3": chain3_monoidal,
    "semion": semion_monoidal,
    "bz3": lambda: delooping_monoidal(3),
    "bz2xz2": lambda: delooping_monoidal(2, 2),
}


@pytest.mark.parametrize("name", RIGID)
def test_right_duals_are_the_mirrored_search(name):
    m = RIGID[name]()
    report, witnesses = check_rigid(m)
    expected = ValidationReport("rigidity")
    expected_witnesses = {}
    for x in m.base.objects():
        left = find_left_dual(m, x)
        right = exhaustive_find_right_dual(m, x)
        if left is None:
            expected.add("left-dual", (x,))
        if right is None:
            expected.add("right-dual", (x,))
        expected_witnesses[x] = (left, right)
    assert report.violations == expected.violations
    assert witnesses == expected_witnesses


def test_check_rigid_refuses_a_non_invertible_associator():
    m = lattice2_monoidal()
    c = m.base
    up = next(f for f in c.morphisms() if c.dom[f] != c.cod[f])
    bad = dataclasses.replace(m, associator={**dict(m.associator), (1, 1, 1): up})
    with pytest.raises(StructureError, match="not invertible"):
        check_rigid(bad)
