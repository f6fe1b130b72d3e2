import itertools

import pytest

from ecat.actions import (
    ModuleAction,
    MonoidalRLax,
    RLaxStructure,
    all_internal_homs,
    beta_from_theta,
    check_adjunction,
    check_module,
    check_module_nat,
    check_monoidal_module,
    check_monoidal_rlax,
    check_rlax,
    check_xilax_nat,
    compose_rlax,
    identity_rlax,
    internal_hom,
    monoidal_self_module,
    self_module,
    terminal_module,
    theta_of,
    transport_to_loplax,
    transport_to_rlax,
)
from ecat.core import Functor, identity_functor, identity_nat, product_category
from ecat.monoidal import identity_lax, identity_lax_nat

from helpers import (
    discrete,
    identity_braiding,
    lattice2_monoidal,
    lattice_adjunction,
    lattice4_monoidal,
    sign_monoidal,
    z2_discrete_monoidal,
)

SELF_MODULES = [lattice2_monoidal, lattice4_monoidal, z2_discrete_monoidal, sign_monoidal]


@pytest.mark.parametrize("build", SELF_MODULES)
def test_self_module_valid(build):
    assert check_module(self_module(build())).ok


@pytest.mark.parametrize("build", SELF_MODULES)
def test_terminal_module_valid(build):
    assert check_module(terminal_module(build())).ok


def test_mutated_module_associator_reported():
    mod = self_module(sign_monoidal())
    assoc = dict(mod.oplax_assoc)
    assoc[(0, 0, 0)] = 1
    bad = ModuleAction(mod.base, mod.carrier, mod.act, assoc, mod.oplax_unitor)
    report = check_module(bad)
    assert not report.ok
    assert report.laws() & {"module-pentagon", "module-left-unit", "module-right-unit"}


def heyting(x, y, mask):
    """Implication in the Boolean lattice on the bits of mask."""
    return (~x | y) & mask


@pytest.mark.parametrize("build,mask", [(lattice2_monoidal, 1), (lattice4_monoidal, 3)])
def test_internal_hom_matches_residuation(build, mask):
    mod = self_module(build())
    for x, y in itertools.product(mod.carrier.objects(), repeat=2):
        ih = internal_hom(mod, x, y)
        assert ih is not None
        assert ih.hom_obj == heyting(x, y, mask)


def test_internal_hom_discrete_group():
    mod = self_module(z2_discrete_monoidal())
    for x, y in itertools.product(mod.carrier.objects(), repeat=2):
        ih = internal_hom(mod, x, y)
        assert ih is not None
        assert ih.hom_obj == x ^ y  # subtraction in Z/2


def test_internal_hom_mediators_are_unique_witnesses():
    mod = self_module(lattice4_monoidal())
    ih = internal_hom(mod, 1, 0)
    c = mod.carrier
    for (a, f), t in ih.mediators.items():
        assert c.comp(ih.ev, mod.a_mor(t, c.identity[1])) == f


def test_internal_hom_absent():
    # trivial action of lattice-2 on a discrete category: no evaluation exists
    m = lattice2_monoidal()
    carrier = discrete(2)
    act = Functor(
        product_category(m.base, carrier), carrier,
        tuple(x for _ in m.base.objects() for x in carrier.objects()),
        tuple(p for _ in m.base.morphisms() for p in carrier.morphisms()),
    )
    assoc = {
        (a, b, x): x
        for a, b in itertools.product(m.base.objects(), repeat=2)
        for x in carrier.objects()
    }
    mod = ModuleAction(m, carrier, act, assoc, (0, 1))
    assert check_module(mod).ok
    assert internal_hom(mod, 0, 1) is None
    assert all_internal_homs(mod) is None


def test_all_internal_homs():
    homs = all_internal_homs(self_module(lattice2_monoidal()))
    assert homs is not None
    assert len(homs) == 4


def test_identity_module_functor_and_composition():
    mod = self_module(lattice2_monoidal())
    i = identity_rlax(mod)
    assert check_rlax(i).ok
    assert check_rlax(compose_rlax(i, i)).ok
    assert check_module_nat(i, i, identity_nat(i.functor)).ok


def test_constant_top_module_functor():
    # x -> 1 is a lax module functor on the meet action: a.1 = a <= 1 = F(a.x)
    mod = self_module(lattice2_monoidal())
    c = mod.carrier
    f = Functor(c, c, (1, 1), (1, 1, 1))
    le = 2
    cells = {(0, 0): le, (0, 1): le, (1, 0): 1, (1, 1): 1}
    mf = RLaxStructure(identity_lax(mod.base), mod, mod, f, cells)
    assert check_rlax(mf).ok
    assert check_rlax(compose_rlax(identity_rlax(mod), mf)).ok


def test_rlax_identity_and_xilax():
    mod = self_module(sign_monoidal())
    rl = identity_rlax(mod)
    assert check_rlax(rl).ok
    xihat = identity_lax_nat(rl.r)
    xi = identity_nat(rl.functor)
    assert check_xilax_nat(rl, rl, xihat, xi).ok


def test_rlax_cell_forced_in_sign():
    # the unit axiom forces the only cell to be the identity endomorphism
    mod = self_module(sign_monoidal())
    good = identity_rlax(mod)
    bad = RLaxStructure(good.r, mod, mod, good.functor, {(0, 0): 1})
    report = check_rlax(bad)
    assert not report.ok
    assert "rlax-unit" in report.laws() or "rlax-associativity" in report.laws()


def test_lattice_adjunction_valid():
    adj, _, _ = lattice_adjunction()
    assert check_adjunction(adj).ok
    from ecat.monoidal import check_lax_monoidal_functor

    assert check_lax_monoidal_functor(adj.right).ok


def test_transport_round_trip():
    from ecat.actions import RLaxStructure

    adj, m2, m4 = lattice_adjunction()
    # source: lattice-4 acting on itself; target: lattice-2 acting on the
    # lattice-4 carrier through L; F is the identity of the carrier
    src = self_module(m4)
    c4 = m4.base
    act_obj, act_mor = [], []
    for b in m2.base.objects():
        for x in c4.objects():
            act_obj.append(m4.t_obj(adj.left.obj_map[b], x))
    for g in m2.base.morphisms():
        for p in c4.morphisms():
            act_mor.append(m4.t_mor(adj.left.mor_map[g], p))
    act = Functor(product_category(m2.base, c4), c4, tuple(act_obj), tuple(act_mor))
    assoc = {}
    for a, b in itertools.product(m2.base.objects(), repeat=2):
        for x in c4.objects():
            la, lb = adj.left.obj_map[a], adj.left.obj_map[b]
            # L(a@b) = L(a)@L(b) here, so the meet tables line up on the nose
            (g,) = c4.hom(m4.t_obj(m4.t_obj(la, lb), x), m4.t_obj(la, m4.t_obj(lb, x)))
            assoc[(a, b, x)] = g
    unitor = tuple(c4.identity[x] for x in c4.objects())
    tgt = ModuleAction(m2, c4, act, assoc, unitor, True, True)
    assert check_module(tgt).ok
    beta = {}
    for a in m4.base.objects():
        for x in c4.objects():
            lra = adj.left.obj_map[adj.right.functor.obj_map[a]]
            (g,) = c4.hom(m4.t_obj(lra, x), m4.t_obj(a, x))
            beta[(a, x)] = g
    rl = RLaxStructure(adj.right, src, tgt, identity_functor(c4), beta)
    assert check_rlax(rl).ok
    alpha = transport_to_loplax(adj, rl)
    beta_back = transport_to_rlax(adj, rl, alpha)
    assert beta_back == beta


@pytest.mark.parametrize("build", SELF_MODULES)
def test_monoidal_self_module(build):
    cells = monoidal_self_module(identity_braiding(build()))
    assert check_monoidal_module(cells).ok


def test_mutated_interchange_reported():
    from ecat.actions import MonoidalModuleCells

    cells = monoidal_self_module(identity_braiding(sign_monoidal()))
    bad = MonoidalModuleCells(
        cells.module, cells.base_braiding, cells.carrier_monoidal,
        {(0, 0, 0, 0): 1}, cells.unit_cell,
    )
    report = check_monoidal_module(bad)
    assert not report.ok
    assert report.laws() & {
        "interchange-left-unit", "interchange-right-unit", "interchange-hexagon",
        "associator-oplax-monoidal", "unitor-oplax-monoidal",
    }


def identity_monoidal_rlax(build):
    m = build()
    cells = monoidal_self_module(identity_braiding(m))
    rl = identity_rlax(cells.module)
    f2 = dict(identity_lax(m).mult)
    f0 = m.base.identity[m.unit]
    return MonoidalRLax(rl, cells, cells, f2, f0)


@pytest.mark.parametrize("build", SELF_MODULES)
def test_monoidal_rlax_identity(build):
    assert check_monoidal_rlax(identity_monoidal_rlax(build)).ok


@pytest.mark.parametrize("build", SELF_MODULES)
def test_theta_round_trip(build):
    mr = identity_monoidal_rlax(build)
    theta = theta_of(mr)
    back = beta_from_theta(mr, theta)
    assert back == mr.rlax.beta
