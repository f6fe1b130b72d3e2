"""Shared hand-built test categories, independent of the fixture builders.

These tables are written out longhand so they can serve as oracles for the
library's own constructions.
"""

from __future__ import annotations

import itertools
from functools import cache

from hypothesis import strategies as st

from ecat.actions import (
    ModuleAction,
    MonoidalAdjunction,
    MonoidalModuleCells,
    RLaxStructure,
    check_module_nat,
    check_rlax,
)
from ecat.canonical import (
    CanonicalCategory,
    canonical_braided,
    canonical_construction,
    canonical_monoidal,
)
from ecat.centers import (
    Bracket,
    CenterResult,
    Family,
    TheoremReport,
    UnitalAction,
    _apply_pair,
    _el_comp,
    _el_inv,
    _el_mid_swap,
    _el_path,
    _factors,
    _functor_key,
    _lifter,
    _mediate,
    _t_el,
    _terminal_bracket,
    condition_star,
    e0_center,
    e0_ev,
    gamma1,
    gamma2,
    tensor_action,
)
from ecat.core import (
    FinCategory,
    Functor,
    NatTransf,
    _check_ranges,
    _degree_signature,
    _search,
    check_nat_transf,
    identity_functor,
    product_category,
)
from ecat.enriched import (
    EnrichedCategory,
    EnrichedFunctor,
    EnrichedNat,
    _computed,
    cartesian_product_enriched,
    compose_enriched_functors,
    hom_post,
    hom_pre,
    identity_enriched_functor,
    product_enriched_functor,
    underlying_category,
)
from ecat.enriched_monoidal import (
    EnrichedHalfBraiding,
    EnrichedMonoidalCategory,
    _absorb,
    check_enriched_half_braiding,
    underlying_half_braiding,
    underlying_monoidal,
)
from ecat.monoidal import (
    BraidedStructure,
    DualityWitness,
    HalfBraidingOrd,
    LaxMonoidalFunctor,
    LaxMonoidalNat,
    MonoidalCategory,
    _expect,
    _tensor_half_braiding,
    _unit_half_braiding,
    braided_tensor_lax_structure,
    check_half_braiding,
    check_lax_monoidal_functor,
    check_lax_monoidal_nat,
    drinfeld_center_z1,
    find_inverse,
    identity_lax,
    inv,
    mid_swap,
    muger_center_z2,
    muger_centralizer,
    product_monoidal,
)
from ecat.report import Budget, StructureError, ValidationReport


def chain2() -> FinCategory:
    """The poset 0 <= 1 as a category: morphisms id_0, id_1, le: 0 -> 1."""
    return FinCategory(
        n_objects=2,
        dom=(0, 1, 0),
        cod=(0, 1, 1),
        identity=(0, 1),
        compose={
            (0, 0): 0,
            (1, 1): 1,
            (2, 0): 2,
            (1, 2): 2,
        },
        obj_names=("0", "1"),
        mor_names=("id_0", "id_1", "le"),
    )


def discrete(n: int) -> FinCategory:
    return FinCategory(
        n_objects=n,
        dom=tuple(range(n)),
        cod=tuple(range(n)),
        identity=tuple(range(n)),
        compose={(i, i): i for i in range(n)},
    )


def parallel_pair() -> FinCategory:
    """Two objects, two parallel arrows 0 -> 1 (plus identities)."""
    return FinCategory(
        n_objects=2,
        dom=(0, 1, 0, 0),
        cod=(0, 1, 1, 1),
        identity=(0, 1),
        compose={
            (0, 0): 0,
            (1, 1): 1,
            (2, 0): 2,
            (1, 2): 2,
            (3, 0): 3,
            (1, 3): 3,
        },
    )


def thin_category(n, leq):
    """Thin category on n objects with an arrow x -> y iff leq(x, y)."""
    mors = [(x, y) for x in range(n) for y in range(n) if leq(x, y)]
    index = {m: i for i, m in enumerate(mors)}
    compose = {}
    for f, (x, y) in enumerate(mors):
        for g, (yp, z) in enumerate(mors):
            if yp == y:
                compose[(g, f)] = index[(x, z)]
    return FinCategory(
        n_objects=n,
        dom=tuple(x for x, _ in mors),
        cod=tuple(y for _, y in mors),
        identity=tuple(index[(x, x)] for x in range(n)),
        compose=compose,
    )


def thin_monoidal(c, t, unit):
    """Strict monoidal structure on a thin category from an object tensor t."""
    from ecat.core import Functor, product_category
    from ecat.monoidal import strict_monoidal

    n, nm = c.n_objects, c.n_morphisms
    obj_map = [t(i, j) for i in range(n) for j in range(n)]
    mor_map = []
    for f in range(nm):
        for g in range(nm):
            (found,) = c.hom(t(c.dom[f], c.dom[g]), t(c.cod[f], c.cod[g]))
            mor_map.append(found)
    tensor = Functor(product_category(c, c), c, tuple(obj_map), tuple(mor_map))
    return strict_monoidal(c, tensor, unit)


def lattice2_monoidal():
    """chain2 with meet as tensor, unit 1."""
    return thin_monoidal(chain2(), min, 1)


def lattice4_monoidal():
    """Boolean lattice {0, a, b, 1} = {0b00, 0b01, 0b10, 0b11}, meet, unit 1."""
    c = thin_category(4, lambda x, y: x & y == x)
    return thin_monoidal(c, lambda x, y: x & y, 3)


@st.composite
def meet_semilattices(draw):
    """A random family of subsets of at most three atoms, as bit masks,
    closed under meet and holding the top element."""
    top = (1 << draw(st.integers(0, 3))) - 1
    family = draw(st.sets(st.integers(0, top))) | {top}
    while meets := {x & y for x in family for y in family} - family:
        family |= meets
    return sorted(family)


def meet_semilattice_monoidal(masks):
    """Bit masks, closed under & and holding their largest element, ordered
    by inclusion, with meet as tensor and the largest mask as unit. The
    masks [0, 1, 2, 3] give lattice4_monoidal."""
    index = {x: i for i, x in enumerate(masks)}
    c = thin_category(len(masks), lambda i, j: masks[i] & masks[j] == masks[i])
    return thin_monoidal(c, lambda i, j: index[masks[i] & masks[j]], index[max(masks)])


def group_monoidal(table, unit):
    """Discrete category on the elements of a group multiplication table."""
    from ecat.core import Functor, product_category
    from ecat.monoidal import strict_monoidal

    n = len(table)
    c = discrete(n)
    obj_map = [table[i][j] for i in range(n) for j in range(n)]
    tensor = Functor(product_category(c, c), c, tuple(obj_map), tuple(obj_map))
    return strict_monoidal(c, tensor, unit)


def z2_discrete_monoidal():
    return group_monoidal([[0, 1], [1, 0]], 0)


def s3_discrete_monoidal():
    """Symmetric group on 3 letters, as a discrete monoidal category."""
    import itertools

    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [
        [idx[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms
    ]
    return group_monoidal(table, idx[(0, 1, 2)])


def delooping_monoidal(*orders):
    """B(A) for the abelian group A = Z/n1 x ... x Z/nk: one object whose
    endomorphisms are the elements of A, numbered in mixed radix (first
    factor most significant), with composition and tensor both the addition
    of A (Eckmann-Hilton). Not thin once A is nontrivial."""
    from ecat.core import Functor, product_category
    from ecat.monoidal import strict_monoidal

    elems = list(itertools.product(*(range(n) for n in orders)))
    index = {a: k for k, a in enumerate(elems)}
    add = [
        [index[tuple((a + b) % n for a, b, n in zip(x, y, orders))] for y in elems]
        for x in elems
    ]
    k = len(elems)
    pairs = list(itertools.product(range(k), repeat=2))
    c = FinCategory(1, (0,) * k, (0,) * k, (0,), {(f, g): add[f][g] for f, g in pairs})
    tensor = Functor(product_category(c, c), c, (0,), tuple(add[f][g] for f, g in pairs))
    return strict_monoidal(c, tensor, 0)


def sign_monoidal():
    """B(Z/2): one object, endomorphisms Z/2, tensor = addition of endomorphisms."""
    return delooping_monoidal(2)


def identity_braiding(m, symmetric=True):
    """The identity-component braiding; valid when the tensor is commutative."""
    import itertools

    from ecat.monoidal import BraidedStructure

    braiding = {}
    for x, y in itertools.product(range(m.base.n_objects), repeat=2):
        assert m.t_obj(x, y) == m.t_obj(y, x)
        braiding[(x, y)] = m.base.identity[m.t_obj(x, y)]
    return BraidedStructure(m, braiding, symmetric)


def thin_enriched(m, objs, hom):
    """Enriched category over a thin monoidal base from a hom-object table."""
    import itertools

    from ecat.enriched import EnrichedCategory

    n = len(objs)
    hom_obj = {(x, y): hom(objs[x], objs[y]) for x in range(n) for y in range(n)}
    ident = {}
    for x in range(n):
        (f,) = m.base.hom(m.unit, hom_obj[(x, x)])
        ident[x] = f
    comp = {}
    for x, y, z in itertools.product(range(n), repeat=3):
        (f,) = m.base.hom(
            m.t_obj(hom_obj[(y, z)], hom_obj[(x, y)]), hom_obj[(x, z)]
        )
        comp[(x, y, z)] = f
    return EnrichedCategory(m, n, hom_obj, ident, comp)


def chain2_enriched():
    """chain2 enriched in lattice-2: hom objects are Heyting implications."""
    return thin_enriched(lattice2_monoidal(), [0, 1], lambda x, y: int(x <= y))


def lattice_adjunction():
    """L: lattice-2 -> lattice-4 sends 0, 1 to bottom, top; R is its right adjoint."""
    m2, m4 = lattice2_monoidal(), lattice4_monoidal()
    # L on morphisms: chain2 has id_0, id_1, le
    bottom_to_top = [
        f for f in m4.base.morphisms() if m4.base.dom[f] == 0 and m4.base.cod[f] == 3
    ][0]
    left = Functor(m2.base, m4.base, (0, 3), (m4.base.identity[0], m4.base.identity[3], bottom_to_top))
    r_obj = tuple(1 if x == 3 else 0 for x in m4.base.objects())
    r_mor = []
    for f in m4.base.morphisms():
        x, y = r_obj[m4.base.dom[f]], r_obj[m4.base.cod[f]]
        (g,) = m2.base.hom(x, y)
        r_mor.append(g)
    rmult = {}
    for x, y in itertools.product(m4.base.objects(), repeat=2):
        (g,) = m2.base.hom(
            m2.t_obj(r_obj[x], r_obj[y]), r_obj[m4.t_obj(x, y)]
        )
        rmult[(x, y)] = g
    right = LaxMonoidalFunctor(
        m4, m2, Functor(m4.base, m2.base, r_obj, tuple(r_mor)),
        m2.base.identity[1], rmult, "lax",
    )
    unit = NatTransf(
        identity_functor(m2.base),
        Functor(m2.base, m2.base,
                tuple(r_obj[left.obj_map[x]] for x in m2.base.objects()),
                tuple(r_mor[left.mor_map[f]] for f in m2.base.morphisms())),
        tuple(m2.base.identity[x] for x in m2.base.objects()),
    )
    counit_comps = []
    for a in m4.base.objects():
        la = left.obj_map[r_obj[a]]
        (g,) = m4.base.hom(la, a)
        counit_comps.append(g)
    counit = NatTransf(
        Functor(m4.base, m4.base,
                tuple(left.obj_map[r_obj[a]] for a in m4.base.objects()),
                tuple(left.mor_map[r_mor[f]] for f in m4.base.morphisms())),
        identity_functor(m4.base),
        tuple(counit_comps),
    )
    return MonoidalAdjunction(left, right, unit, counit), m2, m4


def lattice4_self_enriched():
    """The Boolean lattice enriched in itself by implication."""
    return thin_enriched(lattice4_monoidal(), [0, 1, 2, 3], lambda x, y: (~x | y) & 3)


def lattice8_monoidal():
    """Boolean lattice on 3 bits, meet, unit 0b111."""
    c = thin_category(8, lambda x, y: x & y == x)
    return thin_monoidal(c, lambda x, y: x & y, 7)


def lattice8_self_enriched():
    """The 8-element Boolean lattice enriched in itself by implication."""
    return thin_enriched(lattice8_monoidal(), list(range(8)), lambda x, y: (~x | y) & 7)


def sign_enriched(n_objects, comp_value):
    """Enriched category over the sign base: every hom object is the point."""
    import itertools

    from ecat.enriched import EnrichedCategory

    m = sign_monoidal()
    hom_obj = {(x, y): 0 for x in range(n_objects) for y in range(n_objects)}
    ident = {x: 0 for x in range(n_objects)}
    comp = {
        t: comp_value for t in itertools.product(range(n_objects), repeat=3)
    }
    return EnrichedCategory(m, n_objects, hom_obj, ident, comp)


def z2_enriched():
    """Discrete Z/2 enriched in itself: hom(x, y) = y - x."""
    return thin_enriched(z2_discrete_monoidal(), [0, 1], lambda x, y: x ^ y)


def trivial_base_enriched():
    """The one-object enriched category over the one-morphism base."""
    from ecat.core import Functor, product_category, terminal_category
    from ecat.enriched import EnrichedCategory
    from ecat.monoidal import strict_monoidal

    t = terminal_category()
    triv = strict_monoidal(t, Functor(product_category(t, t), t, (0,), (0,)), 0)
    return EnrichedCategory(triv, 1, {(0, 0): 0}, {0: 0}, {(0, 0, 0): 0})


def semion_monoidal():
    """Pointed category on Z/2 with End = Z/4, associator 2 at (1,1,1).

    Morphism a*4+k is the endomorphism "k" of the object a; composition and
    tensor add phases mod 4. The nontrivial associator component is what
    later admits a non-symmetric braiding.
    """
    import itertools

    from ecat.core import Functor, product_category
    from ecat.monoidal import MonoidalCategory

    c = FinCategory(
        n_objects=2,
        dom=tuple(a for a in range(2) for _ in range(4)),
        cod=tuple(a for a in range(2) for _ in range(4)),
        identity=(0, 4),
        compose={
            (a * 4 + i, a * 4 + j): a * 4 + (i + j) % 4
            for a in range(2)
            for i in range(4)
            for j in range(4)
        },
    )
    obj_map = tuple((a + b) % 2 for a in range(2) for b in range(2))
    mor_map = []
    for f in range(8):
        for g in range(8):
            a, i = divmod(f, 4)
            b, j = divmod(g, 4)
            mor_map.append(((a + b) % 2) * 4 + (i + j) % 4)
    tensor = Functor(product_category(c, c), c, obj_map, tuple(mor_map))
    assoc = {
        (a, b, d): ((a + b + d) % 2) * 4 + (2 if a == b == d == 1 else 0)
        for a, b, d in itertools.product(range(2), repeat=3)
    }
    return MonoidalCategory(c, tensor, 0, assoc, (0, 4), (0, 4))


def semion_braiding():
    """The non-symmetric braiding c(1,1) = phase 1 on the semion base."""
    import itertools

    from ecat.monoidal import BraidedStructure

    m = semion_monoidal()
    braiding = {
        (a, b): ((a + b) % 2) * 4 + a * b
        for a, b in itertools.product(range(2), repeat=2)
    }
    return BraidedStructure(m, braiding, False)


def semion_enriched_monoidal():
    """The semion category enriched in itself: hom(x, y) = x + y.

    All structure phases were found by solving the coherence equations mod 4
    once and for all; the tests re-verify every law from scratch.
    """
    import itertools

    from ecat.enriched import EnrichedCategory, EnrichedFunctor, cartesian_product_enriched
    from ecat.enriched_monoidal import EnrichedMonoidalCategory
    from ecat.monoidal import braided_tensor_lax_structure

    b = semion_braiding()
    m = b.host

    def el(obj, phase):
        return obj * 4 + phase % 4

    hom_obj = {(x, y): (x + y) % 2 for x in range(2) for y in range(2)}
    ident = {0: 0, 1: 0}
    theta = {t: 0 for t in itertools.product(range(2), repeat=3)}
    theta[(0, 1, 0)] = 2
    comp = {
        (x, y, z): el((x + z) % 2, theta[(x, y, z)])
        for x, y, z in itertools.product(range(2), repeat=3)
    }
    host = EnrichedCategory(m, 2, hom_obj, ident, comp)

    tau = {
        (0, 0, 1, 1): 3,
        (0, 1, 1, 1): 1,
        (1, 0, 0, 1): 3,
        (1, 0, 1, 1): 2,
        (1, 1, 0, 0): 2,
        (1, 1, 0, 1): 1,
    }
    cells = {}
    for p, q in itertools.product(range(4), repeat=2):
        (x1, x2), (y1, y2) = divmod(p, 2), divmod(q, 2)
        obj = (x1 + y1 + x2 + y2) % 2
        cells[(p, q)] = el(obj, tau.get((x1, x2, y1, y2), 0))
    tensor = EnrichedFunctor(
        braided_tensor_lax_structure(b),
        cartesian_product_enriched(host, host),
        host,
        (0, 1, 1, 0),
        cells,
    )
    assoc = {
        (x, y, z): el(0, 2 if x == y == z == 1 else 0)
        for x, y, z in itertools.product(range(2), repeat=3)
    }
    return EnrichedMonoidalCategory(host, b, tensor, 0, assoc, (0, 0), (0, 0))


def anti_braided_reversal(em):
    """reversed_enriched_monoidal(em) with each tensor cell composed with
    the anti-braiding of the base instead of its braiding. The result is
    ill-defined whenever the base braiding is not symmetric."""
    import dataclasses

    from ecat.enriched_monoidal import reversed_enriched_monoidal

    rev = reversed_enriched_monoidal(em)
    e = em.host
    c = e.base.base
    n = e.n_objects
    comps = {}
    for p, q in itertools.product(range(n * n), repeat=2):
        (x1, y1), (x2, y2) = divmod(p, n), divmod(q, n)
        comps[(p, q)] = c.comp(
            em.t_cell(y1, x1, y2, x2), rev.braiding.c(e.hom(x1, x2), e.hom(y1, y2))
        )
    return dataclasses.replace(rev, tensor=dataclasses.replace(rev.tensor, components=comps))


def preorder_enriched_monoidal():
    """The preordered monoid {1, s} (s.s = s, 1 <= s) enriched in lattice-2.

    Thin everywhere: every structure component is the unique morphism of
    its type, so this is the cheapest nontrivial enriched monoidal fixture.
    """
    import itertools

    from ecat.enriched import EnrichedFunctor, cartesian_product_enriched
    from ecat.enriched_monoidal import EnrichedMonoidalCategory
    from ecat.monoidal import braided_tensor_lax_structure

    m = lattice2_monoidal()
    b = identity_braiding(m)
    host = thin_enriched(m, [0, 1], lambda a, bb: 1 if a <= bb else 0)
    c = m.base

    def pick(a, bb):
        (f,) = c.hom(a, bb)
        return f

    cells = {}
    for p, q in itertools.product(range(4), repeat=2):
        (x1, x2), (y1, y2) = divmod(p, 2), divmod(q, 2)
        cells[(p, q)] = pick(
            m.t_obj(host.hom(x1, y1), host.hom(x2, y2)),
            host.hom(x1 | x2, y1 | y2),
        )
    tensor = EnrichedFunctor(
        braided_tensor_lax_structure(b),
        cartesian_product_enriched(host, host),
        host,
        (0, 1, 1, 1),
        cells,
    )
    one = pick(m.unit, 1)
    assoc = {t: one for t in itertools.product(range(2), repeat=3)}
    return EnrichedMonoidalCategory(host, b, tensor, 0, assoc, (one, one), (one, one))


def sign_algebra(mult, unit):
    from ecat.monoidal import AlgebraObject

    return AlgebraObject(sign_monoidal(), 0, mult, unit, True)


def chain3_monoidal():
    """The chain 0 <= 1 <= 2 with min as tensor, unit 2."""
    return thin_monoidal(thin_category(3, lambda x, y: x <= y), min, 2)


def chain3_enriched():
    """chain-3 enriched in itself: hom(x, y) = top if x <= y else y."""
    return thin_enriched(chain3_monoidal(), [0, 1, 2], lambda x, y: 2 if x <= y else y)


# --- eager product builders ---
#
# Every table is written out as a plain tuple or dict. The library builds
# products as index views instead; these are the reference oracles for them.


def eager_product_category(c, d):
    nd, md = d.n_objects, d.n_morphisms
    dom, cod = [], []
    for f in c.morphisms():
        for g in d.morphisms():
            dom.append(c.dom[f] * nd + d.dom[g])
            cod.append(c.cod[f] * nd + d.cod[g])
    identity = tuple(
        c.identity[i] * md + d.identity[j] for i in c.objects() for j in d.objects()
    )
    compose = {}
    for (g1, f1), h1 in c.compose.items():
        for (g2, f2), h2 in d.compose.items():
            compose[(g1 * md + g2, f1 * md + f2)] = h1 * md + h2
    names = None
    if c.obj_names and d.obj_names:
        names = tuple(f"({a},{b})" for a in c.obj_names for b in d.obj_names)
    return FinCategory(c.n_objects * nd, tuple(dom), tuple(cod), identity, compose, names)


def eager_product_monoidal(m, n):
    import itertools

    from ecat.core import Functor
    from ecat.monoidal import MonoidalCategory

    base = eager_product_category(m.base, n.base)
    nm, mm = m.base.n_objects, m.base.n_morphisms
    nn, mn = n.base.n_objects, n.base.n_morphisms

    def ob(i, j):
        return i * nn + j

    def mo(f, g):
        return f * mn + g

    src = eager_product_category(base, base)
    obj_map = [0] * src.n_objects
    for i1, j1, i2, j2 in itertools.product(range(nm), range(nn), range(nm), range(nn)):
        obj_map[ob(i1, j1) * base.n_objects + ob(i2, j2)] = ob(
            m.t_obj(i1, i2), n.t_obj(j1, j2)
        )
    mor_map = [0] * src.n_morphisms
    for f1, g1, f2, g2 in itertools.product(range(mm), range(mn), range(mm), range(mn)):
        mor_map[mo(f1, g1) * base.n_morphisms + mo(f2, g2)] = mo(
            m.t_mor(f1, f2), n.t_mor(g1, g2)
        )
    tensor = Functor(src, base, tuple(obj_map), tuple(mor_map))
    assoc = {}
    for (i1, j1), (i2, j2), (i3, j3) in itertools.product(
        itertools.product(range(nm), range(nn)), repeat=3
    ):
        assoc[(ob(i1, j1), ob(i2, j2), ob(i3, j3))] = mo(
            m.a(i1, i2, i3), n.a(j1, j2, j3)
        )
    lu = tuple(mo(m.l(i), n.l(j)) for i in range(nm) for j in range(nn))
    ru = tuple(mo(m.r(i), n.r(j)) for i in range(nm) for j in range(nn))
    return MonoidalCategory(base, tensor, ob(m.unit, n.unit), assoc, lu, ru)


def eager_product_lax(f, g):
    import itertools

    from ecat.core import Functor
    from ecat.monoidal import LaxMonoidalFunctor

    src = eager_product_monoidal(f.source, g.source)
    tgt = eager_product_monoidal(f.target, g.target)
    n2 = g.source.base.n_objects
    nt2, mt2 = g.target.base.n_objects, g.target.base.n_morphisms
    obj = tuple(
        f.on_obj(i) * nt2 + g.on_obj(j)
        for i in f.source.base.objects()
        for j in g.source.base.objects()
    )
    mor = tuple(
        f.on_mor(i) * mt2 + g.on_mor(j)
        for i in f.source.base.morphisms()
        for j in g.source.base.morphisms()
    )
    mult = {}
    for i1, j1, i2, j2 in itertools.product(
        f.source.base.objects(), g.source.base.objects(),
        f.source.base.objects(), g.source.base.objects(),
    ):
        mult[(i1 * n2 + j1, i2 * n2 + j2)] = f.m2(i1, i2) * mt2 + g.m2(j1, j2)
    direction = "strong" if f.direction == g.direction == "strong" else "lax"
    return LaxMonoidalFunctor(
        src, tgt, Functor(src.base, tgt.base, obj, mor),
        f.unit_cell * mt2 + g.unit_cell, mult, direction,
    )


def eager_cartesian_product_enriched(e1, e2):
    import itertools

    from ecat.enriched import EnrichedCategory

    base = eager_product_monoidal(e1.base, e2.base)
    n2 = e2.base.base.n_objects
    m2 = e2.base.base.n_morphisms
    n_obj = e1.n_objects * e2.n_objects

    def ob(x):
        return divmod(x, e2.n_objects)

    hom_obj, ident, comp = {}, {}, {}
    for x, y in itertools.product(range(n_obj), repeat=2):
        (x1, x2), (y1, y2) = ob(x), ob(y)
        hom_obj[(x, y)] = e1.hom(x1, y1) * n2 + e2.hom(x2, y2)
    for x in range(n_obj):
        x1, x2 = ob(x)
        ident[x] = e1.one(x1) * m2 + e2.one(x2)
    for x, y, z in itertools.product(range(n_obj), repeat=3):
        (x1, x2), (y1, y2), (z1, z2) = ob(x), ob(y), ob(z)
        comp[(x, y, z)] = e1.c(x1, y1, z1) * m2 + e2.c(x2, y2, z2)
    return EnrichedCategory(base, n_obj, hom_obj, ident, comp)


def eager_product_enriched_functor(f, g):
    import itertools

    from ecat.enriched import EnrichedFunctor

    src = eager_cartesian_product_enriched(f.source, g.source)
    tgt = eager_cartesian_product_enriched(f.target, g.target)
    n2s, n2t = g.source.n_objects, g.target.n_objects
    mt = g.background.target.base.n_morphisms
    obj = tuple(
        f.on_obj(x1) * n2t + g.on_obj(x2)
        for x1 in f.source.objects()
        for x2 in g.source.objects()
    )
    comps = {}
    for x, y in itertools.product(range(src.n_objects), repeat=2):
        (x1, x2), (y1, y2) = divmod(x, n2s), divmod(y, n2s)
        comps[(x, y)] = f.at(x1, y1) * mt + g.at(x2, y2)
    return EnrichedFunctor(
        eager_product_lax(f.background, g.background), src, tgt, obj, comps
    )


# --- lookup oracles ---
#
# The library reads hom sets from a per-category index, memoises inverses
# and hoists loop invariants out of check_monoidal_module. These are the
# plain versions they replaced, kept as reference oracles.


def scan_hom(c, x, y):
    """Hom set by a linear scan over all morphisms, in ascending order."""
    return tuple(f for f in range(c.n_morphisms) if c.dom[f] == x and c.cod[f] == y)


def scan_inverse(c, f):
    """Inverse of f by a fresh scan of the reverse hom set, or None."""
    for g in scan_hom(c, c.cod[f], c.dom[f]):
        if c.comp(g, f) == c.identity[c.dom[f]] and c.comp(f, g) == c.identity[c.cod[f]]:
            return g
    return None


# --- the Set-level and enriched checkers before the thin gates ---
#
# The bodies of check_functor, check_category, check_monoidal,
# check_braided, check_module and check_enriched before each was given its
# thin-category early return or was split for one, verbatim, so that the
# oracles that use them enumerate every law whatever the library decides.


def exhaustive_check_functor(fun: Functor) -> ValidationReport:
    report = ValidationReport("functor")
    c, d = fun.source, fun.target
    if len(fun.obj_map) != c.n_objects or len(fun.mor_map) != c.n_morphisms:
        raise StructureError("functor table lengths inconsistent")
    for x in fun.obj_map:
        if not 0 <= x < d.n_objects:
            raise StructureError("functor obj_map out of range")
    for f in fun.mor_map:
        if not 0 <= f < d.n_morphisms:
            raise StructureError("functor mor_map out of range")
    for f in c.morphisms():
        if d.dom[fun.mor_map[f]] != fun.obj_map[c.dom[f]]:
            report.add("functor-dom", (f,))
        if d.cod[fun.mor_map[f]] != fun.obj_map[c.cod[f]]:
            report.add("functor-cod", (f,))
    for x in c.objects():
        if fun.mor_map[c.identity[x]] != d.identity[fun.obj_map[x]]:
            report.add("functor-identity", (x,))
    if not report.ok:
        return report
    for (g, f), h in c.compose.items():
        if d.comp(fun.mor_map[g], fun.mor_map[f]) != fun.mor_map[h]:
            report.add("functor-composition", (g, f))
    return report


def exhaustive_check_category(c: FinCategory) -> ValidationReport:
    report = ValidationReport("category")
    _check_ranges(c)
    for x in c.objects():
        e = c.identity[x]
        if c.dom[e] != x or c.cod[e] != x:
            report.add("identity-typing", (x,), f"id has dom {c.dom[e]}, cod {c.cod[e]}")
    for g in c.morphisms():
        for f in c.morphisms():
            defined = (g, f) in c.compose
            composable = c.cod[f] == c.dom[g]
            if composable and not defined:
                report.add("compose-totality", (g, f), "composable pair undefined")
            elif defined and not composable:
                report.add("compose-partiality", (g, f), "non-composable pair defined")
            elif defined:
                h = c.compose[(g, f)]
                if c.dom[h] != c.dom[f] or c.cod[h] != c.cod[g]:
                    report.add("compose-typing", (g, f), f"composite {h} mistyped")
    if not report.ok:
        return report
    for f in c.morphisms():
        if c.comp(c.identity[c.cod[f]], f) != f:
            report.add("identity-law", (f,), "id . f != f")
        if c.comp(f, c.identity[c.dom[f]]) != f:
            report.add("identity-law", (f,), "f . id != f")
    for h in c.morphisms():
        for g in c.morphisms():
            if c.cod[g] != c.dom[h]:
                continue
            for f in c.morphisms():
                if c.cod[f] != c.dom[g]:
                    continue
                if c.comp(h, c.comp(g, f)) != c.comp(c.comp(h, g), f):
                    report.add("associativity", (h, g, f))
    return report


def exhaustive_check_monoidal(m: MonoidalCategory) -> ValidationReport:
    report = ValidationReport("monoidal category")
    c = m.base
    report.extend(exhaustive_check_functor(m.tensor))
    if not 0 <= m.unit < c.n_objects:
        raise StructureError("unit object out of range")
    if not report.ok:
        return report

    objs = list(c.objects())
    # typing of coherence components
    typed = True
    for x, y, z in itertools.product(objs, repeat=3):
        f = m.associator.get((x, y, z))
        if f is None:
            raise StructureError(f"associator missing at {(x, y, z)}")
        typed &= _expect(
            report, "associator-typing", (x, y, z), c, f,
            m.t_obj(m.t_obj(x, y), z), m.t_obj(x, m.t_obj(y, z)),
        )
    for x in objs:
        typed &= _expect(report, "unitor-typing", ("l", x), c, m.l(x), m.t_obj(m.unit, x), x)
        typed &= _expect(report, "unitor-typing", ("r", x), c, m.r(x), m.t_obj(x, m.unit), x)
    if not typed:
        return report

    # invertibility
    for x, y, z in itertools.product(objs, repeat=3):
        if find_inverse(c, m.a(x, y, z)) is None:
            report.add("associator-iso", (x, y, z))
    for x in objs:
        if find_inverse(c, m.l(x)) is None:
            report.add("unitor-iso", ("l", x))
        if find_inverse(c, m.r(x)) is None:
            report.add("unitor-iso", ("r", x))

    # naturality
    for f, g, h in itertools.product(c.morphisms(), repeat=3):
        x, y, z = c.dom[f], c.dom[g], c.dom[h]
        xp, yp, zp = c.cod[f], c.cod[g], c.cod[h]
        lhs = c.comp(m.a(xp, yp, zp), m.t_mor(m.t_mor(f, g), h))
        rhs = c.comp(m.t_mor(f, m.t_mor(g, h)), m.a(x, y, z))
        if lhs != rhs:
            report.add("associator-naturality", (f, g, h))
    for f in c.morphisms():
        x, y = c.dom[f], c.cod[f]
        if c.comp(m.l(y), m.t_mor(c.identity[m.unit], f)) != c.comp(f, m.l(x)):
            report.add("unitor-naturality", ("l", f))
        if c.comp(m.r(y), m.t_mor(f, c.identity[m.unit])) != c.comp(f, m.r(x)):
            report.add("unitor-naturality", ("r", f))

    # pentagon
    for w, x, y, z in itertools.product(objs, repeat=4):
        top = c.comp(m.a(w, x, m.t_obj(y, z)), m.a(m.t_obj(w, x), y, z))
        bottom = c.comp_many(
            m.t_mor(c.identity[w], m.a(x, y, z)),
            m.a(w, m.t_obj(x, y), z),
            m.t_mor(m.a(w, x, y), c.identity[z]),
        )
        if top != bottom:
            report.add("pentagon", (w, x, y, z))

    # triangle
    for x, y in itertools.product(objs, repeat=2):
        lhs = c.comp(m.t_mor(c.identity[x], m.l(y)), m.a(x, m.unit, y))
        rhs = m.t_mor(m.r(x), c.identity[y])
        if lhs != rhs:
            report.add("triangle", (x, y))
    return report


def exhaustive_check_braided(b: BraidedStructure) -> ValidationReport:
    report = ValidationReport("braided structure")
    m = b.host
    c = m.base
    objs = list(c.objects())
    typed = True
    for x, y in itertools.product(objs, repeat=2):
        f = b.braiding.get((x, y))
        if f is None:
            raise StructureError(f"braiding missing at {(x, y)}")
        typed &= _expect(report, "braiding-typing", (x, y), c, f, m.t_obj(x, y), m.t_obj(y, x))
    if not typed:
        return report
    for x, y in itertools.product(objs, repeat=2):
        if find_inverse(c, b.c(x, y)) is None:
            report.add("braiding-iso", (x, y))
    for f, g in itertools.product(c.morphisms(), repeat=2):
        x, y = c.dom[f], c.dom[g]
        xp, yp = c.cod[f], c.cod[g]
        if c.comp(b.c(xp, yp), m.t_mor(f, g)) != c.comp(m.t_mor(g, f), b.c(x, y)):
            report.add("braiding-naturality", (f, g))
    for x, y, z in itertools.product(objs, repeat=3):
        # hexagon 1: c_{x, y@z} routed two ways from (x@y)@z
        lhs = c.comp_many(m.a(y, z, x), b.c(x, m.t_obj(y, z)), m.a(x, y, z))
        rhs = c.comp_many(
            m.t_mor(c.identity[y], b.c(x, z)),
            m.a(y, x, z),
            m.t_mor(b.c(x, y), c.identity[z]),
        )
        if lhs != rhs:
            report.add("hexagon-1", (x, y, z))
        # hexagon 2: c_{x@y, z} from x@(y@z)
        ia = inv(m, m.a(x, y, z))
        lhs2 = c.comp_many(inv(m, m.a(z, x, y)), b.c(m.t_obj(x, y), z), ia)
        rhs2 = c.comp_many(
            m.t_mor(b.c(x, z), c.identity[y]),
            inv(m, m.a(x, z, y)),
            m.t_mor(c.identity[x], b.c(y, z)),
        )
        if lhs2 != rhs2:
            report.add("hexagon-2", (x, y, z))
    if b.symmetric_flag:
        for x, y in itertools.product(objs, repeat=2):
            if c.comp(b.c(y, x), b.c(x, y)) != c.identity[m.t_obj(x, y)]:
                report.add("symmetry", (x, y))
    return report


def exhaustive_check_module(mod: ModuleAction) -> ValidationReport:
    report = ValidationReport("module action")
    report.extend(exhaustive_check_functor(mod.act))
    if not report.ok:
        return report
    a_cat = mod.base
    c = mod.carrier
    objs_a = list(a_cat.base.objects())
    objs_x = list(c.objects())

    typed = True
    for a, b, x in itertools.product(objs_a, objs_a, objs_x):
        f = mod.oplax_assoc.get((a, b, x))
        if f is None:
            raise StructureError(f"module associator missing at {(a, b, x)}")
        typed &= _expect(
            report, "module-associator-typing", (a, b, x), c, f,
            mod.a_obj(a_cat.t_obj(a, b), x), mod.a_obj(a, mod.a_obj(b, x)),
        )
    for x in objs_x:
        typed &= _expect(
            report, "module-unitor-typing", (x,), c, mod.u(x),
            mod.a_obj(a_cat.unit, x), x,
        )
    if not typed:
        return report

    # naturality of the structure maps
    for f, g in itertools.product(a_cat.base.morphisms(), repeat=2):
        for p in c.morphisms():
            a, b, x = a_cat.base.dom[f], a_cat.base.dom[g], c.dom[p]
            ap, bp, xp = a_cat.base.cod[f], a_cat.base.cod[g], c.cod[p]
            lhs = c.comp(mod.o(ap, bp, xp), mod.a_mor(a_cat.t_mor(f, g), p))
            rhs = c.comp(mod.a_mor(f, mod.a_mor(g, p)), mod.o(a, b, x))
            if lhs != rhs:
                report.add("module-associator-naturality", (f, g, p))
    for p in c.morphisms():
        x, xp = c.dom[p], c.cod[p]
        lhs = c.comp(mod.u(xp), mod.a_mor(a_cat.base.identity[a_cat.unit], p))
        if lhs != c.comp(p, mod.u(x)):
            report.add("module-unitor-naturality", (p,))

    # pentagon
    for a, b, d, x in itertools.product(objs_a, objs_a, objs_a, objs_x):
        lhs = c.comp(mod.o(a, b, mod.a_obj(d, x)), mod.o(a_cat.t_obj(a, b), d, x))
        rhs = c.comp_many(
            mod.a_mor(a_cat.base.identity[a], mod.o(b, d, x)),
            mod.o(a, a_cat.t_obj(b, d), x),
            mod.a_mor(a_cat.a(a, b, d), c.identity[x]),
        )
        if lhs != rhs:
            report.add("module-pentagon", (a, b, d, x))

    # unit triangles
    un = a_cat.unit
    for b, x in itertools.product(objs_a, objs_x):
        lhs = c.comp(mod.u(mod.a_obj(b, x)), mod.o(un, b, x))
        if lhs != mod.a_mor(a_cat.l(b), c.identity[x]):
            report.add("module-left-unit", (b, x))
        rhs = c.comp(mod.a_mor(a_cat.base.identity[b], mod.u(x)), mod.o(b, un, x))
        if rhs != mod.a_mor(a_cat.r(b), c.identity[x]):
            report.add("module-right-unit", (b, x))

    if mod.strongly_associative:
        for a, b, x in itertools.product(objs_a, objs_a, objs_x):
            if find_inverse(c, mod.o(a, b, x)) is None:
                report.add("strong-associativity", (a, b, x))
    if mod.strongly_unital:
        for x in objs_x:
            if find_inverse(c, mod.u(x)) is None:
                report.add("strong-unitality", (x,))
    return report


def exhaustive_check_enriched(e: EnrichedCategory) -> ValidationReport:
    report = ValidationReport("enriched category")
    m = e.base
    c = m.base
    objs = list(e.objects())
    typed = True
    for x in objs:
        f = e.ident.get(x)
        if f is None:
            raise StructureError(f"identity element missing at {x}")
        typed &= _expect(
            report, "enriched-identity-typing", (x,), c, f, m.unit, e.hom(x, x)
        )
    for x, y, z in itertools.product(objs, repeat=3):
        f = e.comp.get((x, y, z))
        if f is None:
            raise StructureError(f"composition missing at {(x, y, z)}")
        typed &= _expect(
            report, "enriched-composition-typing", (x, y, z), c, f,
            m.t_obj(e.hom(y, z), e.hom(x, y)), e.hom(x, z),
        )
    if not typed:
        return report

    for w, x, y, z in itertools.product(objs, repeat=4):
        lhs = c.comp(e.c(w, x, z), m.t_mor(e.c(x, y, z), c.identity[e.hom(w, x)]))
        rhs = c.comp_many(
            e.c(w, y, z),
            m.t_mor(c.identity[e.hom(y, z)], e.c(w, x, y)),
            m.a(e.hom(y, z), e.hom(x, y), e.hom(w, x)),
        )
        if lhs != rhs:
            report.add("enriched-associativity", (w, x, y, z))

    for x, y in itertools.product(objs, repeat=2):
        h = e.hom(x, y)
        lhs = c.comp_many(
            e.c(x, y, y),
            m.t_mor(e.one(y), c.identity[h]),
            inv(m, m.l(h)),
        )
        if lhs != c.identity[h]:
            report.add("enriched-left-unit", (x, y))
        rhs = c.comp_many(
            e.c(x, x, y),
            m.t_mor(c.identity[h], e.one(x)),
            inv(m, m.r(h)),
        )
        if rhs != c.identity[h]:
            report.add("enriched-right-unit", (x, y))
    return report


def exhaustive_check_monoidal_module(mm):
    """check_monoidal_module before its lookups were hoisted, verbatim."""
    import itertools

    from ecat.actions import _expect, inv
    from ecat.report import StructureError, ValidationReport

    report = ValidationReport("monoidal module")
    mod = mm.module
    a_cat = mod.base
    lm = mm.carrier_monoidal
    c = mod.carrier
    if lm.base is not c and lm.base != c:
        raise StructureError("carrier monoidal structure must live on the carrier")
    objs_a = list(a_cat.base.objects())
    objs_x = list(c.objects())
    un_a, un_l = a_cat.unit, lm.unit

    typed = True
    for a, b, x, y in itertools.product(objs_a, objs_a, objs_x, objs_x):
        f = mm.interchange.get((a, b, x, y))
        if f is None:
            raise StructureError(f"interchange missing at {(a, b, x, y)}")
        typed &= _expect(
            report, "interchange-typing", (a, b, x, y), c, f,
            mod.a_obj(a_cat.t_obj(a, b), lm.t_obj(x, y)),
            lm.t_obj(mod.a_obj(a, x), mod.a_obj(b, y)),
        )
    typed &= _expect(
        report, "unit-cell-typing", (), c, mm.unit_cell, mod.a_obj(un_a, un_l), un_l
    )
    if not typed:
        return report

    # naturality of the interchange
    for f, g in itertools.product(a_cat.base.morphisms(), repeat=2):
        for p, q in itertools.product(c.morphisms(), repeat=2):
            a, b = a_cat.base.dom[f], a_cat.base.dom[g]
            x, y = c.dom[p], c.dom[q]
            ap, bp = a_cat.base.cod[f], a_cat.base.cod[g]
            xp, yp = c.cod[p], c.cod[q]
            lhs = c.comp(
                mm.i(ap, bp, xp, yp),
                mod.a_mor(a_cat.t_mor(f, g), lm.t_mor(p, q)),
            )
            rhs = c.comp(
                lm.t_mor(mod.a_mor(f, p), mod.a_mor(g, q)), mm.i(a, b, x, y)
            )
            if lhs != rhs:
                report.add("interchange-naturality", (f, g, p, q))

    # hexagon relating interchange and the two associators
    for a, b, d in itertools.product(objs_a, repeat=3):
        for x, y, z in itertools.product(objs_x, repeat=3):
            lhs = c.comp_many(
                lm.a(mod.a_obj(a, x), mod.a_obj(b, y), mod.a_obj(d, z)),
                lm.t_mor(mm.i(a, b, x, y), c.identity[mod.a_obj(d, z)]),
                mm.i(a_cat.t_obj(a, b), d, lm.t_obj(x, y), z),
            )
            rhs = c.comp_many(
                lm.t_mor(c.identity[mod.a_obj(a, x)], mm.i(b, d, y, z)),
                mm.i(a, a_cat.t_obj(b, d), x, lm.t_obj(y, z)),
                mod.a_mor(a_cat.a(a, b, d), lm.a(x, y, z)),
            )
            if lhs != rhs:
                report.add("interchange-hexagon", (a, b, d, x, y, z))

    # unit squares against the two monoidal unitors
    for a, x in itertools.product(objs_a, objs_x):
        lhs = c.comp_many(
            lm.l(mod.a_obj(a, x)),
            lm.t_mor(mm.unit_cell, c.identity[mod.a_obj(a, x)]),
            mm.i(un_a, a, un_l, x),
        )
        if lhs != mod.a_mor(a_cat.l(a), lm.l(x)):
            report.add("interchange-left-unit", (a, x))
        rhs = c.comp_many(
            lm.r(mod.a_obj(a, x)),
            lm.t_mor(c.identity[mod.a_obj(a, x)], mm.unit_cell),
            mm.i(a, un_a, x, un_l),
        )
        if rhs != mod.a_mor(a_cat.r(a), lm.r(x)):
            report.add("interchange-right-unit", (a, x))

    # the module associator is an oplax-monoidal transformation;
    # the mid-swap on the base uses the anti-braiding
    from ecat.monoidal import mid_swap

    for a1, a2, b1, b2 in itertools.product(objs_a, repeat=4):
        for x, y in itertools.product(objs_x, repeat=2):
            lhs = c.comp_many(
                mm.i(a1, a2, mod.a_obj(b1, x), mod.a_obj(b2, y)),
                mod.a_mor(
                    a_cat.base.identity[a_cat.t_obj(a1, a2)], mm.i(b1, b2, x, y)
                ),
                mod.o(a_cat.t_obj(a1, a2), a_cat.t_obj(b1, b2), lm.t_obj(x, y)),
            )
            swap = mid_swap(
                a_cat, a1, a2, b1, b2,
                lambda u, v: inv(a_cat, mm.base_braiding.c(v, u)),
            )
            rhs = c.comp_many(
                lm.t_mor(mod.o(a1, b1, x), mod.o(a2, b2, y)),
                mm.i(a_cat.t_obj(a1, b1), a_cat.t_obj(a2, b2), x, y),
                mod.a_mor(swap, c.identity[lm.t_obj(x, y)]),
            )
            if lhs != rhs:
                report.add("associator-oplax-monoidal", (a1, a2, b1, b2, x, y))

    # the module unitor is an oplax-monoidal transformation
    for x, y in itertools.product(objs_x, repeat=2):
        rhs = c.comp_many(
            lm.t_mor(mod.u(x), mod.u(y)),
            mm.i(un_a, un_a, x, y),
            mod.a_mor(inv(a_cat, a_cat.l(un_a)), c.identity[lm.t_obj(x, y)]),
        )
        if mod.u(lm.t_obj(x, y)) != rhs:
            report.add("unitor-oplax-monoidal", (x, y))

    # unit-cell coherence
    lhs = c.comp_many(
        mm.unit_cell,
        mod.a_mor(a_cat.base.identity[un_a], mm.unit_cell),
        mod.o(un_a, un_a, un_l),
    )
    if lhs != c.comp(mm.unit_cell, mod.a_mor(a_cat.l(un_a), c.identity[un_l])):
        report.add("unit-cell-associator", ())
    if mm.unit_cell != mod.u(un_l):
        report.add("unit-cell-unitor", ())
    return report


# --- the enriched functor and nat checks before one-variable screening ---
#
# The parent bodies of check_enriched_nat, compose_enriched_functors (an
# eager dict of components), compose_lax (an eager dict of mult cells),
# _check_enriched_functor_laws (read key by key) and associator_nat,
# verbatim except that nested calls go to these copies, so that changing
# the library cannot change the oracles that use them.


def eager_compose_lax(g, f):
    """g after f; both must be lax-direction (or strong)."""
    if "oplax" in (g.direction, f.direction):
        raise StructureError("composition implemented for lax-direction functors")
    c = g.target.base
    functor = Functor(
        f.functor.source,
        g.functor.target,
        tuple(g.on_obj(x) for x in f.functor.obj_map),
        tuple(g.on_mor(m) for m in f.functor.mor_map),
    )
    unit = c.comp(g.on_mor(f.unit_cell), g.unit_cell)
    mult = {}
    for x, y in itertools.product(f.source.base.objects(), repeat=2):
        mult[(x, y)] = c.comp(g.on_mor(f.m2(x, y)), g.m2(f.on_obj(x), f.on_obj(y)))
    direction = "strong" if g.direction == f.direction == "strong" else "lax"
    return LaxMonoidalFunctor(f.source, g.target, functor, unit, mult, direction)


def exhaustive_check_enriched_functor(f):
    report = ValidationReport("enriched functor")
    report.extend(check_lax_monoidal_functor(f.background))
    if not report.ok:
        return report
    return _exhaustive_check_enriched_functor_laws(f, report)


def _exhaustive_check_enriched_functor_laws(f, report):
    e, e2 = f.source, f.target
    bg = f.background
    c = e2.base.base
    typed = True
    for x, y in itertools.product(e.objects(), repeat=2):
        cell = f.components.get((x, y))
        if cell is None:
            raise StructureError(f"enriched functor component missing at {(x, y)}")
        typed &= _expect(
            report, "enriched-functor-typing", (x, y), c, cell,
            bg.on_obj(e.hom(x, y)), e2.hom(f.on_obj(x), f.on_obj(y)),
        )
    if not typed:
        return report
    for x in e.objects():
        lhs = c.comp_many(f.at(x, x), bg.on_mor(e.one(x)), bg.unit_cell)
        if lhs != e2.one(f.on_obj(x)):
            report.add("enriched-functor-identity", (x,))
    for x, y, z in itertools.product(e.objects(), repeat=3):
        lhs = c.comp_many(
            f.at(x, z), bg.on_mor(e.c(x, y, z)), bg.m2(e.hom(y, z), e.hom(x, y))
        )
        rhs = c.comp(
            e2.c(f.on_obj(x), f.on_obj(y), f.on_obj(z)),
            e2.base.t_mor(f.at(y, z), f.at(x, y)),
        )
        if lhs != rhs:
            report.add("enriched-functor-composition", (x, y, z))
    return report


def exhaustive_compose_enriched_functors(g, f):
    c = g.target.base.base
    comps = {}
    for x, y in itertools.product(f.source.objects(), repeat=2):
        comps[(x, y)] = c.comp(
            g.at(f.on_obj(x), f.on_obj(y)),
            g.background.on_mor(f.at(x, y)),
        )
    return EnrichedFunctor(
        eager_compose_lax(g.background, f.background),
        f.source, g.target,
        tuple(g.on_obj(f.on_obj(x)) for x in f.source.objects()),
        comps,
    )


def exhaustive_check_enriched_nat(n):
    report = ValidationReport("enriched natural transformation")
    report.extend(check_lax_monoidal_nat(n.background))
    if not report.ok:
        return report
    f, g = n.source, n.target
    e, e2 = f.source, f.target
    m2 = e2.base
    c = m2.base
    typed = True
    for x in e.objects():
        comp = n.components.get(x)
        if comp is None:
            raise StructureError(f"enriched nat component missing at {x}")
        typed &= _expect(
            report, "enriched-nat-typing", (x,), c, comp,
            m2.unit, e2.hom(f.on_obj(x), g.on_obj(x)),
        )
    if not typed:
        return report
    for x, y in itertools.product(e.objects(), repeat=2):
        h = f.background.on_obj(e.hom(x, y))
        lhs = c.comp_many(
            e2.c(f.on_obj(x), f.on_obj(y), g.on_obj(y)),
            m2.t_mor(n.at(y), f.at(x, y)),
            inv(m2, m2.l(h)),
        )
        rhs = c.comp_many(
            e2.c(f.on_obj(x), g.on_obj(x), g.on_obj(y)),
            m2.t_mor(g.at(x, y), n.at(x)),
            inv(m2, m2.r(g.background.on_obj(e.hom(x, y)))),
            n.background.at(e.hom(x, y)),
        )
        if lhs != rhs:
            report.add("enriched-nat-square", (x, y))
        # same content routed through the hom bifunctor helpers
        lhs2 = c.comp(
            hom_post(e2, f.on_obj(x), f.on_obj(y), g.on_obj(y), n.at(y)),
            f.at(x, y),
        )
        rhs2 = c.comp_many(
            hom_pre(e2, f.on_obj(x), g.on_obj(x), g.on_obj(y), n.at(x)),
            g.at(x, y),
            n.background.at(e.hom(x, y)),
        )
        if lhs2 != rhs2:
            report.add("enriched-nat-square-hom-route", (x, y))
    return report


def exhaustive_associator_nat(em):
    e = em.host
    n = e.n_objects
    ide = identity_enriched_functor(e)
    left = exhaustive_compose_enriched_functors(
        em.tensor, product_enriched_functor(em.tensor, ide)
    )
    right = exhaustive_compose_enriched_functors(
        em.tensor, product_enriched_functor(ide, em.tensor)
    )
    base = e.base
    na = base.base.n_objects
    comps = []
    for p in left.background.source.base.objects():
        ab, cc = divmod(p, na)
        a, b = divmod(ab, na)
        comps.append(base.a(a, b, cc))
    bg = LaxMonoidalNat(
        left.background,
        right.background,
        NatTransf(left.background.functor, right.background.functor, tuple(comps)),
    )
    components = {}
    for x in range(n * n * n):
        ij, k = divmod(x, n)
        i, j = divmod(ij, n)
        components[x] = em.a_el(i, j, k)
    return EnrichedNat(bg, left, right, components)


def exhaustive_check_enriched_monoidal(em):
    """check_enriched_monoidal before the tensor background was decided from
    the validated braided base, verbatim: it always re-checks the background
    as a lax monoidal functor. The host, base and underlying checks are the
    frozen exhaustive ones."""
    from ecat.enriched_monoidal import _absorb, unitor_nat

    report = ValidationReport("enriched monoidal category")
    e = em.host
    m = e.base
    c = m.base
    if not 0 <= em.unit_obj < e.n_objects:
        raise StructureError("unit object out of range")
    if em.braiding.host != m:
        report.add("base-mismatch", ())
        return report
    _absorb(report, exhaustive_check_enriched(e), "host")
    _absorb(report, exhaustive_check_braided(em.braiding), "base")
    if em.tensor.background != braided_tensor_lax_structure(em.braiding):
        report.add("tensor-background-convention", ())
    if em.tensor.source != cartesian_product_enriched(e, e) or em.tensor.target != e:
        report.add("tensor-shape", ())
        return report
    tensor_report = exhaustive_check_enriched_functor(em.tensor)
    _absorb(report, tensor_report, "tensor")
    if "enriched-functor-typing" in tensor_report.laws():
        return report

    typed = True
    for x, y, z in itertools.product(e.objects(), repeat=3):
        f = em.associator.get((x, y, z))
        if f is None:
            raise StructureError(f"associator element missing at {(x, y, z)}")
        typed &= _expect(
            report, "associator-typing", (x, y, z), c, f,
            m.unit, e.hom(em.t(em.t(x, y), z), em.t(x, em.t(y, z))),
        )
    for x in e.objects():
        typed &= _expect(
            report, "unitor-typing", ("l", x), c, em.l_el(x),
            m.unit, e.hom(em.t(em.unit_obj, x), x),
        )
        typed &= _expect(
            report, "unitor-typing", ("r", x), c, em.r_el(x),
            m.unit, e.hom(em.t(x, em.unit_obj), x),
        )
    if not typed:
        return report

    _absorb(report, exhaustive_check_enriched_nat(exhaustive_associator_nat(em)), "associator")
    _absorb(report, exhaustive_check_enriched_nat(unitor_nat(em, "l")), "left-unitor")
    _absorb(report, exhaustive_check_enriched_nat(unitor_nat(em, "r")), "right-unitor")

    try:
        um = underlying_monoidal(em)
    except StructureError as err:
        report.add("underlying-elements", (), str(err))
        return report
    _absorb(report, exhaustive_check_monoidal(um), "underlying")
    return report


# --- the universal-property verifiers before the shared skeleton ---
#
# The parent bodies of verify_e0/e1/e2_universal, verbatim except for the
# return value, which no longer carries the unused details dict; with the
# helpers they called that the shared skeleton replaced.


def _mor_inv(c: FinCategory, f: int) -> int:
    g = find_inverse(c, f)
    if g is None:
        raise StructureError(f"morphism {f} is not invertible")
    return g


def _mediate_family(e: EnrichedCategory, z1, bracket: BracketFG, src_z: int,
                    family: dict) -> int:
    """The unique center morphism src_z -> bracket whose triangles match."""
    c = e.base.base
    zc = z1.monoidal.base
    fwd = z1.forgetful
    hits = [
        k
        for k in zc.hom(src_z, bracket.obj)
        if all(
            c.comp(bracket.components[x], fwd.on_mor(k)) == family[x]
            for x in e.objects()
        )
    ]
    if len(hits) != 1:
        raise StructureError(
            f"expected one mediating center morphism, found {len(hits)}"
        )
    return hits[0]


def _factor_element(z2: tuple, e: EnrichedCategory, bracket: BracketXY,
                    src_z2: int, route: int) -> int:
    """The unique transparent morphism src_z2 -> bracket factoring route."""
    z2mon, _, z2incl = z2
    c = e.base.base
    hits = [
        g
        for g in z2mon.base.hom(src_z2, bracket.obj)
        if c.comp(bracket.zeta, z2incl.on_mor(g)) == route
    ]
    if len(hits) != 1:
        raise StructureError(
            f"expected one factoring transparent morphism, found {len(hits)}"
        )
    return hits[0]


def exhaustive_verify_e0_universal(e: EnrichedCategory, action: UnitalAction,
                        cap: int | None = None,
                        res: CenterResult | None = None) -> TheoremReport:
    """Check that the endofunctor category is terminal among left unital
    actions on e.

    Builds the comparison enriched functor and both natural isomorphisms
    from the given action, checks the pasting equation on every component,
    and counts the mediating isomorphisms by exhaustive search.
    """
    report = ValidationReport("E0 universal property")
    res = res or e0_center(e, cap)
    z1 = res.witnesses["z1"]
    functors = res.witnesses["functors"]
    brackets = res.witnesses["brackets"]
    host = res.category.host
    unit_idx = res.witnesses["unit_obj"]
    ev = e0_ev(res)
    m = e.base
    c = m.base
    zmon = z1.monoidal
    zc = zmon.base
    fwd = z1.forgetful

    la = action.actor
    if isinstance(la, EnrichedMonoidalCategory):
        la = la.host
    mA = la.base
    ca = mA.base
    bg = action.odot.background
    nM = e.n_objects
    nB = c.n_objects
    mB = c.n_morphisms
    unit_l = action.unit_obj
    unit_b = m.unit
    u_e = underlying_category(e)

    def pr(a, x):
        return a * nM + x

    def po(a, b):
        return a * nB + b

    def odot_obj(a, x):
        return action.odot.on_obj(pr(a, x))

    fun_index = {_functor_key(f): i for i, f in enumerate(functors)}
    idbg = identity_lax(m)
    phi = []
    for a in la.objects():
        obj_map = tuple(odot_obj(a, x) for x in range(nM))
        comps = {}
        for x, y in itertools.product(range(nM), repeat=2):
            h = e.hom(x, y)
            comps[(x, y)] = c.comp_many(
                action.odot.at(pr(a, x), pr(a, y)),
                bg.on_mor(la.one(a) * mB + c.identity[h]),
                _mor_inv(c, action.xi_bg[h]),
            )
        pos = fun_index.get(_functor_key(EnrichedFunctor(idbg, e, e, obj_map, comps)))
        if pos is None:
            report.add("induced-endofunctor-missing", (a,))
        phi.append(pos)
    if not report.ok:
        return TheoremReport(report)

    z1_obj_index = {
        (x, tuple(sorted(hb.components.items()))): i
        for i, (x, hb) in enumerate(z1.object_data)
    }
    z1_mor_index = {
        (zc.dom[k], zc.cod[k], fwd.on_mor(k)): k for k in zc.morphisms()
    }
    phihat_obj = []
    for a in ca.objects():
        xb = bg.on_obj(po(a, unit_b))
        comps = {}
        for z in c.objects():
            comps[z] = c.comp_many(
                m.t_mor(c.identity[xb], action.xi_bg[z]),
                _mor_inv(c, bg.m2(po(a, unit_b), po(mA.unit, z))),
                bg.on_mor(_mor_inv(ca, mA.r(a)) * mB + _mor_inv(c, m.l(z))),
                bg.on_mor(mA.l(a) * mB + m.r(z)),
                bg.m2(po(mA.unit, z), po(a, unit_b)),
                m.t_mor(_mor_inv(c, action.xi_bg[z]), c.identity[xb]),
            )
        pos = z1_obj_index.get((xb, tuple(sorted(comps.items()))))
        if pos is None:
            report.add("background-image-not-central", (a,))
        phihat_obj.append(pos)
    if not report.ok:
        return TheoremReport(report)

    def z1_lift(zsrc, ztgt, f):
        k = z1_mor_index.get((zsrc, ztgt, f))
        if k is None:
            raise StructureError("morphism does not lift to the center")
        return k

    phihat_mor = tuple(
        z1_lift(
            phihat_obj[ca.dom[f]], phihat_obj[ca.cod[f]],
            bg.on_mor(f * mB + c.identity[unit_b]),
        )
        for f in ca.morphisms()
    )
    ph_mult = {}
    for a, b in itertools.product(ca.objects(), repeat=2):
        g = c.comp(
            bg.on_mor(ca.identity[mA.t_obj(a, b)] * mB + m.l(unit_b)),
            bg.m2(po(a, unit_b), po(b, unit_b)),
        )
        ph_mult[(a, b)] = z1_lift(
            zmon.t_obj(phihat_obj[a], phihat_obj[b]),
            phihat_obj[mA.t_obj(a, b)], g,
        )
    ph_unit = z1_lift(
        zmon.unit, phihat_obj[mA.unit], _mor_inv(c, action.xi_bg[unit_b])
    )
    phihat = LaxMonoidalFunctor(
        mA, zmon, Functor(ca, zc, tuple(phihat_obj), phihat_mor),
        ph_unit, ph_mult, "strong",
    )
    for v in check_lax_monoidal_functor(phihat).violations:
        report.add("background-functor-" + v.law, v.instance, v.detail)

    comps = {}
    for a, b in itertools.product(la.objects(), repeat=2):
        h = la.hom(a, b)
        family = {
            x: c.comp(
                action.odot.at(pr(a, x), pr(b, x)),
                bg.on_mor(ca.identity[h] * mB + e.one(x)),
            )
            for x in range(nM)
        }
        comps[(a, b)] = _mediate_family(
            e, z1, brackets[(phi[a], phi[b])], phihat_obj[h], family
        )
    ecphi = EnrichedFunctor(phihat, la, host, tuple(phi), comps)
    for v in exhaustive_check_enriched_functor(ecphi).violations:
        report.add("comparison-functor-" + v.law, v.instance, v.detail)

    fam = {
        x: _el_inv(e, odot_obj(unit_l, x), x, action.xi_el[x])
        for x in range(nM)
    }
    sigma = _mediate_family(
        e, z1, brackets[(unit_idx, phi[unit_l])], zmon.unit, fam
    )
    sigma_hat = ph_unit

    rho_bg = {}
    for a in ca.objects():
        for b in c.objects():
            rho_bg[(a, b)] = c.comp_many(
                bg.on_mor(mA.r(a) * mB + m.l(b)),
                bg.m2(po(a, unit_b), po(mA.unit, b)),
                m.t_mor(
                    c.identity[bg.on_obj(po(a, unit_b))],
                    _mor_inv(c, action.xi_bg[b]),
                ),
            )
    rho_el = {
        pr(a, x): e.one(odot_obj(a, x))
        for a in la.objects() for x in range(nM)
    }
    fun1 = exhaustive_compose_enriched_functors(
        ev, product_enriched_functor(ecphi, identity_enriched_functor(e))
    )
    nat = NatTransf(
        fun1.background.functor, bg.functor,
        tuple(rho_bg[(a, b)] for a in ca.objects() for b in c.objects()),
    )
    ecrho = EnrichedNat(
        LaxMonoidalNat(fun1.background, bg, nat), fun1, action.odot, rho_el
    )
    for v in exhaustive_check_enriched_nat(ecrho).violations:
        report.add("rho-" + v.law, v.instance, v.detail)

    for x in range(nM):
        el = _apply_pair(
            ev, nM, mB, unit_idx, x, phi[unit_l], x, sigma, e.one(x)
        )
        if _el_comp(e, x, odot_obj(unit_l, x), x, action.xi_el[x], el) != e.one(x):
            report.add("pasting-underlying", (x,))
    for b in c.objects():
        lhs = c.comp_many(
            action.xi_bg[b],
            rho_bg[(mA.unit, b)],
            m.t_mor(fwd.on_mor(sigma_hat), c.identity[b]),
            inv(m, m.l(b)),
        )
        if lhs != c.identity[b]:
            report.add("pasting-background", (b,))

    u_host = underlying_category(host)
    budget = Budget(cap, "mediating isomorphism search")
    pools_bg = [sorted(zc.hom(phihat_obj[a], phihat_obj[a])) for a in ca.objects()]
    pools_el = [
        sorted(zc.hom(zmon.unit, host.hom(phi[a], phi[a]))) for a in la.objects()
    ]
    count = 0
    for combo_bg in itertools.product(*pools_bg):
        bg_nat = NatTransf(phihat.functor, phihat.functor, combo_bg)
        if not check_nat_transf(bg_nat).ok:
            continue
        if any(find_inverse(zc, k) is None for k in combo_bg):
            continue
        lm_nat = LaxMonoidalNat(phihat, phihat, bg_nat)
        for combo_el in itertools.product(*pools_el):
            budget.spend()
            beta = dict(enumerate(combo_el))
            if any(
                find_inverse(u_host.cat, u_host.index[(phi[a], phi[a], beta[a])])
                is None
                for a in la.objects()
            ):
                continue
            if not exhaustive_check_enriched_nat(
                EnrichedNat(lm_nat, ecphi, ecphi, beta)
            ).ok:
                continue
            if (
                _el_comp(
                    host, unit_idx, phi[unit_l], phi[unit_l],
                    beta[unit_l], sigma,
                )
                != sigma
            ):
                continue
            if zc.comp(combo_bg[mA.unit], sigma_hat) != sigma_hat:
                continue
            ok3 = all(
                _apply_pair(ev, nM, mB, phi[a], x, phi[a], x, beta[a], e.one(x))
                == e.one(odot_obj(a, x))
                for a in la.objects() for x in range(nM)
            )
            if not ok3:
                continue
            ok3b = all(
                c.comp(
                    rho_bg[(a, b)],
                    m.t_mor(fwd.on_mor(combo_bg[a]), c.identity[b]),
                )
                == rho_bg[(a, b)]
                for a in ca.objects() for b in c.objects()
            )
            if ok3b:
                count += 1
    return TheoremReport(report, count)


def exhaustive_verify_e1_universal(em: EnrichedMonoidalCategory, action: UnitalAction,
                        cap: int | None = None,
                        res: CenterResult | None = None) -> TheoremReport:
    """Check that the category of half-braided objects is terminal among
    monoidal unital actions on em.

    The action must carry the monoidal cells f2. Builds the comparison
    functor into the E1 center, checks both pasting components, and
    counts the mediating isomorphisms by exhaustive search.
    """
    report = ValidationReport("E1 universal property")
    res = res or gamma1(em, cap)
    ghost = res.category.host
    host = ghost.host
    z2 = res.witnesses["z2"]
    z2mon, _, z2incl = z2
    zc = z2mon.base
    objs = res.witnesses["objects"]
    brackets = res.witnesses["brackets"]
    obj_index = {
        (x, tuple(sorted(hb.components.items()))): i
        for i, (x, hb) in enumerate(objs)
    }

    e = em.host
    m = e.base
    c = m.base
    laM = action.actor
    la = laM.host
    mA = la.base
    ca = mA.base
    bg = action.odot.background
    nM = e.n_objects
    nB = c.n_objects
    mB = c.n_morphisms
    unit_l = action.unit_obj
    unit_b = m.unit
    unit_M = em.unit_obj
    u_e = underlying_category(e)
    u_la = underlying_category(la)

    def pr(a, x):
        return a * nM + x

    def po(a, b):
        return a * nB + b

    def odot_obj(a, x):
        return action.odot.on_obj(pr(a, x))

    def odot_el(a1, x1, a2, x2, el1, el2):
        return _apply_pair(action.odot, nM, mB, a1, x1, a2, x2, el1, el2)

    inv_xi = {
        x: _el_inv(e, odot_obj(unit_l, x), x, action.xi_el[x])
        for x in range(nM)
    }

    P = []
    for a in la.objects():
        pa = odot_obj(a, unit_M)
        comps = {}
        for mo in range(nM):
            o = [
                em.t(mo, pa),
                em.t(odot_obj(unit_l, mo), pa),
                odot_obj(laM.t(unit_l, a), em.t(mo, unit_M)),
                odot_obj(a, mo),
                odot_obj(laM.t(a, unit_l), em.t(unit_M, mo)),
                em.t(pa, odot_obj(unit_l, mo)),
                em.t(pa, mo),
            ]
            els = [
                _t_el(em, mo, odot_obj(unit_l, mo), pa, pa, inv_xi[mo], e.one(pa)),
                action.f2[((unit_l, mo), (a, unit_M))],
                odot_el(
                    laM.t(unit_l, a), em.t(mo, unit_M), a, mo,
                    laM.l_el(a), em.r_el(mo),
                ),
                odot_el(
                    a, mo, laM.t(a, unit_l), em.t(unit_M, mo),
                    _el_inv(la, laM.t(a, unit_l), a, laM.r_el(a)),
                    _el_inv(e, em.t(unit_M, mo), mo, em.l_el(mo)),
                ),
                _el_inv(
                    e, em.t(pa, odot_obj(unit_l, mo)),
                    odot_obj(laM.t(a, unit_l), em.t(unit_M, mo)),
                    action.f2[((a, unit_M), (unit_l, mo))],
                ),
                _t_el(em, pa, pa, odot_obj(unit_l, mo), mo, e.one(pa),
                      action.xi_el[mo]),
            ]
            comps[mo] = _el_path(e, o, els)
        pos = obj_index.get((pa, tuple(sorted(comps.items()))))
        if pos is None:
            report.add("induced-half-braiding-missing", (a,))
        P.append(pos)
    if not report.ok:
        return TheoremReport(report)

    sub_obj = {z2incl.on_obj(i): i for i in zc.objects()}
    sub_mor = {
        (zc.dom[k], zc.cod[k], z2incl.on_mor(k)): k for k in zc.morphisms()
    }

    def z2_lift(zsrc, ztgt, f):
        k = sub_mor.get((zsrc, ztgt, f))
        if k is None:
            raise StructureError("morphism not in the transparent subcategory")
        return k

    phat_obj = []
    for a in ca.objects():
        pos = sub_obj.get(bg.on_obj(po(a, unit_b)))
        if pos is None:
            report.add("background-image-not-transparent", (a,))
        phat_obj.append(pos)
    if not report.ok:
        return TheoremReport(report)
    phat_mor = tuple(
        z2_lift(
            phat_obj[ca.dom[f]], phat_obj[ca.cod[f]],
            bg.on_mor(f * mB + c.identity[unit_b]),
        )
        for f in ca.morphisms()
    )
    ph_mult = {}
    for a, b in itertools.product(ca.objects(), repeat=2):
        g = c.comp(
            bg.on_mor(ca.identity[mA.t_obj(a, b)] * mB + m.l(unit_b)),
            bg.m2(po(a, unit_b), po(b, unit_b)),
        )
        ph_mult[(a, b)] = z2_lift(
            z2mon.t_obj(phat_obj[a], phat_obj[b]),
            phat_obj[mA.t_obj(a, b)], g,
        )
    ph_unit = z2_lift(
        z2mon.unit, phat_obj[mA.unit], _mor_inv(c, action.xi_bg[unit_b])
    )
    phat = LaxMonoidalFunctor(
        mA, z2mon, Functor(ca, zc, tuple(phat_obj), phat_mor),
        ph_unit, ph_mult, "strong",
    )
    for v in check_lax_monoidal_functor(phat).violations:
        report.add("background-functor-" + v.law, v.instance, v.detail)

    comps = {}
    for a, b in itertools.product(la.objects(), repeat=2):
        h = la.hom(a, b)
        route = c.comp(
            action.odot.at(pr(a, unit_M), pr(b, unit_M)),
            bg.on_mor(ca.identity[h] * mB + e.one(unit_M)),
        )
        comps[(a, b)] = _factor_element(
            z2, e, brackets[(P[a], P[b])], phat_obj[h], route
        )
    ecp = EnrichedFunctor(phat, la, host, tuple(P), comps)
    for v in exhaustive_check_enriched_functor(ecp).violations:
        report.add("comparison-functor-" + v.law, v.instance, v.detail)

    rho_bg = {}
    for a in ca.objects():
        for b in c.objects():
            rho_bg[(a, b)] = c.comp_many(
                bg.on_mor(mA.r(a) * mB + m.l(b)),
                bg.m2(po(a, unit_b), po(mA.unit, b)),
                m.t_mor(
                    c.identity[bg.on_obj(po(a, unit_b))],
                    _mor_inv(c, action.xi_bg[b]),
                ),
            )
    rho_el = {}
    for a in la.objects():
        pa = odot_obj(a, unit_M)
        for mo in range(nM):
            o = [
                em.t(pa, mo),
                em.t(pa, odot_obj(unit_l, mo)),
                odot_obj(laM.t(a, unit_l), em.t(unit_M, mo)),
                odot_obj(a, mo),
            ]
            els = [
                _t_el(em, pa, pa, mo, odot_obj(unit_l, mo), e.one(pa), inv_xi[mo]),
                action.f2[((a, unit_M), (unit_l, mo))],
                odot_el(
                    laM.t(a, unit_l), em.t(unit_M, mo), a, mo,
                    laM.r_el(a), em.l_el(mo),
                ),
            ]
            rho_el[pr(a, mo)] = _el_path(e, o, els)

    star_op = exhaustive_compose_enriched_functors(
        em.tensor,
        product_enriched_functor(res.forgetful, identity_enriched_functor(e)),
    )
    fun1 = exhaustive_compose_enriched_functors(
        star_op, product_enriched_functor(ecp, identity_enriched_functor(e))
    )
    nat = NatTransf(
        fun1.background.functor, bg.functor,
        tuple(rho_bg[(a, b)] for a in ca.objects() for b in c.objects()),
    )
    ecrho = EnrichedNat(
        LaxMonoidalNat(fun1.background, bg, nat), fun1, action.odot, rho_el
    )
    for v in exhaustive_check_enriched_nat(ecrho).violations:
        report.add("rho-" + v.law, v.instance, v.detail)

    for mo in range(nM):
        lhs = _el_path(
            e,
            [em.t(unit_M, mo), em.t(odot_obj(unit_l, unit_M), mo),
             odot_obj(unit_l, mo), mo],
            [
                _t_el(em, unit_M, odot_obj(unit_l, unit_M), mo, mo,
                      inv_xi[unit_M], e.one(mo)),
                rho_el[pr(unit_l, mo)],
                action.xi_el[mo],
            ],
        )
        if lhs != em.l_el(mo):
            report.add("pasting-underlying", (mo,))
    for b in c.objects():
        lhs = c.comp_many(
            action.xi_bg[b],
            rho_bg[(mA.unit, b)],
            m.t_mor(_mor_inv(c, action.xi_bg[unit_b]), c.identity[b]),
        )
        if lhs != m.l(b):
            report.add("pasting-background", (b,))

    u_host = underlying_category(host)
    budget = Budget(cap, "mediating isomorphism search")
    pools_bg = [sorted(zc.hom(phat_obj[a], phat_obj[a])) for a in ca.objects()]
    pools_el = [
        sorted(zc.hom(z2mon.unit, host.hom(P[a], P[a]))) for a in la.objects()
    ]
    count = 0
    for combo_bg in itertools.product(*pools_bg):
        bg_nat = NatTransf(phat.functor, phat.functor, combo_bg)
        if not check_nat_transf(bg_nat).ok:
            continue
        if any(find_inverse(zc, k) is None for k in combo_bg):
            continue
        lm_nat = LaxMonoidalNat(phat, phat, bg_nat)
        for combo_el in itertools.product(*pools_el):
            budget.spend()
            alpha = dict(enumerate(combo_el))
            if any(
                find_inverse(u_host.cat, u_host.index[(P[a], P[a], alpha[a])])
                is None
                for a in la.objects()
            ):
                continue
            if not exhaustive_check_enriched_nat(EnrichedNat(lm_nat, ecp, ecp, alpha)).ok:
                continue
            ok3 = all(
                _el_comp(
                    e, em.t(odot_obj(a, unit_M), mo),
                    em.t(odot_obj(a, unit_M), mo), odot_obj(a, mo),
                    rho_el[pr(a, mo)],
                    _apply_pair(star_op, nM, mB, P[a], mo, P[a], mo,
                                alpha[a], e.one(mo)),
                )
                == rho_el[pr(a, mo)]
                for a in la.objects() for mo in range(nM)
            )
            if not ok3:
                continue
            ok3b = all(
                c.comp(
                    rho_bg[(a, b)],
                    m.t_mor(z2incl.on_mor(combo_bg[a]), c.identity[b]),
                )
                == rho_bg[(a, b)]
                for a in ca.objects() for b in c.objects()
            )
            if ok3b:
                count += 1
    return TheoremReport(report, count)


def exhaustive_verify_e2_universal(eb: EnrichedBraidedCategory, action: UnitalAction,
                        cap: int | None = None,
                        res: CenterResult | None = None) -> TheoremReport:
    """Check that the transparent subcategory is terminal among braided
    monoidal unital actions on eb.

    Like the E1 check, but the induced half-braidings must agree with the
    braiding of eb, so the comparison lands in the full subcategory of
    transparent objects.
    """
    report = ValidationReport("E2 universal property")
    res = res or gamma2(eb, cap)
    em = eb.host
    host = res.category.host.host
    trans = res.witnesses["objects"]
    pos_of = {x: i for i, x in enumerate(trans)}

    e = em.host
    m = e.base
    c = m.base
    laM = action.actor
    la = laM.host
    mA = la.base
    ca = mA.base
    bg = action.odot.background
    nM = e.n_objects
    nB = c.n_objects
    mB = c.n_morphisms
    unit_l = action.unit_obj
    unit_b = m.unit
    unit_M = em.unit_obj
    u_e = underlying_category(e)
    u_la = underlying_category(la)

    def pr(a, x):
        return a * nM + x

    def po(a, b):
        return a * nB + b

    def odot_obj(a, x):
        return action.odot.on_obj(pr(a, x))

    def odot_el(a1, x1, a2, x2, el1, el2):
        return _apply_pair(action.odot, nM, mB, a1, x1, a2, x2, el1, el2)

    inv_xi = {
        x: _el_inv(e, odot_obj(unit_l, x), x, action.xi_el[x])
        for x in range(nM)
    }

    P = []
    for a in la.objects():
        pa = odot_obj(a, unit_M)
        pos = pos_of.get(pa)
        if pos is None:
            report.add("image-not-transparent", (a,))
            P.append(None)
            continue
        for mo in range(nM):
            o = [
                em.t(mo, pa),
                em.t(odot_obj(unit_l, mo), pa),
                odot_obj(laM.t(unit_l, a), em.t(mo, unit_M)),
                odot_obj(a, mo),
                odot_obj(laM.t(a, unit_l), em.t(unit_M, mo)),
                em.t(pa, odot_obj(unit_l, mo)),
                em.t(pa, mo),
            ]
            els = [
                _t_el(em, mo, odot_obj(unit_l, mo), pa, pa, inv_xi[mo], e.one(pa)),
                action.f2[((unit_l, mo), (a, unit_M))],
                odot_el(
                    laM.t(unit_l, a), em.t(mo, unit_M), a, mo,
                    laM.l_el(a), em.r_el(mo),
                ),
                odot_el(
                    a, mo, laM.t(a, unit_l), em.t(unit_M, mo),
                    _el_inv(la, laM.t(a, unit_l), a, laM.r_el(a)),
                    _el_inv(e, em.t(unit_M, mo), mo, em.l_el(mo)),
                ),
                _el_inv(
                    e, em.t(pa, odot_obj(unit_l, mo)),
                    odot_obj(laM.t(a, unit_l), em.t(unit_M, mo)),
                    action.f2[((a, unit_M), (unit_l, mo))],
                ),
                _t_el(em, pa, pa, odot_obj(unit_l, mo), mo, e.one(pa),
                      action.xi_el[mo]),
            ]
            if _el_path(e, o, els) != eb.braiding_el[(mo, pa)]:
                report.add("induced-braiding-mismatch", (a, mo))
        P.append(pos)
    if not report.ok:
        return TheoremReport(report)

    phat_obj = tuple(bg.on_obj(po(a, unit_b)) for a in ca.objects())
    phat_mor = tuple(
        bg.on_mor(f * mB + c.identity[unit_b]) for f in ca.morphisms()
    )
    ph_mult = {}
    for a, b in itertools.product(ca.objects(), repeat=2):
        ph_mult[(a, b)] = c.comp(
            bg.on_mor(ca.identity[mA.t_obj(a, b)] * mB + m.l(unit_b)),
            bg.m2(po(a, unit_b), po(b, unit_b)),
        )
    ph_unit = _mor_inv(c, action.xi_bg[unit_b])
    phat = LaxMonoidalFunctor(
        mA, m, Functor(ca, c, phat_obj, phat_mor), ph_unit, ph_mult, "strong"
    )
    for v in check_lax_monoidal_functor(phat).violations:
        report.add("background-functor-" + v.law, v.instance, v.detail)

    comps = {}
    for a, b in itertools.product(la.objects(), repeat=2):
        h = la.hom(a, b)
        comps[(a, b)] = c.comp(
            action.odot.at(pr(a, unit_M), pr(b, unit_M)),
            bg.on_mor(ca.identity[h] * mB + e.one(unit_M)),
        )
    ecp = EnrichedFunctor(phat, la, host, tuple(P), comps)
    for v in exhaustive_check_enriched_functor(ecp).violations:
        report.add("comparison-functor-" + v.law, v.instance, v.detail)

    rho_bg = {}
    for a in ca.objects():
        for b in c.objects():
            rho_bg[(a, b)] = c.comp_many(
                bg.on_mor(mA.r(a) * mB + m.l(b)),
                bg.m2(po(a, unit_b), po(mA.unit, b)),
                m.t_mor(
                    c.identity[bg.on_obj(po(a, unit_b))],
                    _mor_inv(c, action.xi_bg[b]),
                ),
            )
    rho_el = {}
    for a in la.objects():
        pa = odot_obj(a, unit_M)
        for mo in range(nM):
            o = [
                em.t(pa, mo),
                em.t(pa, odot_obj(unit_l, mo)),
                odot_obj(laM.t(a, unit_l), em.t(unit_M, mo)),
                odot_obj(a, mo),
            ]
            els = [
                _t_el(em, pa, pa, mo, odot_obj(unit_l, mo), e.one(pa), inv_xi[mo]),
                action.f2[((a, unit_M), (unit_l, mo))],
                odot_el(
                    laM.t(a, unit_l), em.t(unit_M, mo), a, mo,
                    laM.r_el(a), em.l_el(mo),
                ),
            ]
            rho_el[pr(a, mo)] = _el_path(e, o, els)

    star_op = exhaustive_compose_enriched_functors(
        em.tensor,
        product_enriched_functor(res.forgetful, identity_enriched_functor(e)),
    )
    fun1 = exhaustive_compose_enriched_functors(
        star_op, product_enriched_functor(ecp, identity_enriched_functor(e))
    )
    nat = NatTransf(
        fun1.background.functor, bg.functor,
        tuple(rho_bg[(a, b)] for a in ca.objects() for b in c.objects()),
    )
    ecrho = EnrichedNat(
        LaxMonoidalNat(fun1.background, bg, nat), fun1, action.odot, rho_el
    )
    for v in exhaustive_check_enriched_nat(ecrho).violations:
        report.add("rho-" + v.law, v.instance, v.detail)

    for mo in range(nM):
        lhs = _el_path(
            e,
            [em.t(unit_M, mo), em.t(odot_obj(unit_l, unit_M), mo),
             odot_obj(unit_l, mo), mo],
            [
                _t_el(em, unit_M, odot_obj(unit_l, unit_M), mo, mo,
                      inv_xi[unit_M], e.one(mo)),
                rho_el[pr(unit_l, mo)],
                action.xi_el[mo],
            ],
        )
        if lhs != em.l_el(mo):
            report.add("pasting-underlying", (mo,))
    for b in c.objects():
        lhs = c.comp_many(
            action.xi_bg[b],
            rho_bg[(mA.unit, b)],
            m.t_mor(_mor_inv(c, action.xi_bg[unit_b]), c.identity[b]),
        )
        if lhs != m.l(b):
            report.add("pasting-background", (b,))

    u_host = underlying_category(host)
    budget = Budget(cap, "mediating isomorphism search")
    pools_bg = [sorted(c.hom(phat_obj[a], phat_obj[a])) for a in ca.objects()]
    pools_el = [
        sorted(c.hom(m.unit, host.hom(P[a], P[a]))) for a in la.objects()
    ]
    count = 0
    for combo_bg in itertools.product(*pools_bg):
        bg_nat = NatTransf(phat.functor, phat.functor, combo_bg)
        if not check_nat_transf(bg_nat).ok:
            continue
        if any(find_inverse(c, k) is None for k in combo_bg):
            continue
        lm_nat = LaxMonoidalNat(phat, phat, bg_nat)
        for combo_el in itertools.product(*pools_el):
            budget.spend()
            alpha = dict(enumerate(combo_el))
            if any(
                find_inverse(u_host.cat, u_host.index[(P[a], P[a], alpha[a])])
                is None
                for a in la.objects()
            ):
                continue
            if not exhaustive_check_enriched_nat(EnrichedNat(lm_nat, ecp, ecp, alpha)).ok:
                continue
            ok3 = all(
                _el_comp(
                    e, em.t(odot_obj(a, unit_M), mo),
                    em.t(odot_obj(a, unit_M), mo), odot_obj(a, mo),
                    rho_el[pr(a, mo)],
                    _apply_pair(star_op, nM, mB, P[a], mo, P[a], mo,
                                alpha[a], e.one(mo)),
                )
                == rho_el[pr(a, mo)]
                for a in la.objects() for mo in range(nM)
            )
            if not ok3:
                continue
            ok3b = all(
                c.comp(rho_bg[(a, b)], m.t_mor(combo_bg[a], c.identity[b]))
                == rho_bg[(a, b)]
                for a in ca.objects() for b in c.objects()
            )
            if ok3b:
                count += 1
    return TheoremReport(report, count)


# --- enumerations before the search kernel ---

# The parent bodies of every enumeration that now runs on core._search,
# verbatim except for their names and for nested calls, which go to the
# oracle copies. Each tries every combination of its pools and filters.


def exhaustive_enumerate_functors(
    c: FinCategory, d: FinCategory, cap: int | None = None
) -> list[Functor]:
    """All functors C -> D in lexicographic (obj_map, then mor_map) order."""
    budget = Budget(cap, "functor enumeration")
    out: list[Functor] = []
    non_identity = [f for f in c.morphisms() if f not in set(c.identity)]
    forced = {}
    for x in c.objects():
        forced[c.identity[x]] = x

    for obj_map in itertools.product(range(d.n_objects), repeat=c.n_objects):
        budget.spend()
        mor_map = [0] * c.n_morphisms
        for e, x in forced.items():
            mor_map[e] = d.identity[obj_map[x]]
        candidates = {
            f: d.hom(obj_map[c.dom[f]], obj_map[c.cod[f]]) for f in non_identity
        }
        if any(not v for v in candidates.values()):
            continue

        def consistent(upto: int) -> bool:
            assigned = set(forced) | set(non_identity[: upto + 1])
            for (g, f), h in c.compose.items():
                if g in assigned and f in assigned and h in assigned:
                    if d.comp(mor_map[g], mor_map[f]) != mor_map[h]:
                        return False
            return True

        def backtrack(i: int) -> None:
            budget.spend()
            if i == len(non_identity):
                out.append(Functor(c, d, tuple(obj_map), tuple(mor_map)))
                return
            f = non_identity[i]
            for m in candidates[f]:
                mor_map[f] = m
                if consistent(i):
                    backtrack(i + 1)
            mor_map[f] = 0

        backtrack(0)
    return out


def exhaustive_enumerate_nat_transfs(
    f: Functor, g: Functor, cap: int | None = None
) -> list[NatTransf]:
    budget = Budget(cap, "natural transformation enumeration")
    c, d = f.source, f.target
    per_object = [sorted(d.hom(f.obj_map[x], g.obj_map[x])) for x in c.objects()]
    out = []
    for comps in itertools.product(*per_object):
        budget.spend()
        nat = NatTransf(f, g, comps)
        if check_nat_transf(nat).ok:
            out.append(nat)
    return out


def exhaustive_iso_search(
    c: FinCategory, d: FinCategory, cap: int | None = None
) -> Functor | None:
    """First isomorphism C -> D in deterministic order, or None."""
    if c.n_objects != d.n_objects or c.n_morphisms != d.n_morphisms:
        return None
    budget = Budget(cap, "isomorphism search")
    sig_c = [_degree_signature(c, x) for x in c.objects()]
    sig_d = [_degree_signature(d, x) for x in d.objects()]
    if sorted(sig_c) != sorted(sig_d):
        return None

    obj_map = [-1] * c.n_objects
    used_obj = [False] * d.n_objects

    def try_morphisms() -> Functor | None:
        mor_map = [-1] * c.n_morphisms
        used = [False] * d.n_morphisms
        for x in c.objects():
            e = c.identity[x]
            mor_map[e] = d.identity[obj_map[x]]
            used[mor_map[e]] = True
        non_identity = [f for f in c.morphisms() if mor_map[f] == -1]

        def backtrack(i: int) -> Functor | None:
            budget.spend()
            if i == len(non_identity):
                fun = Functor(c, d, tuple(obj_map), tuple(mor_map))
                return fun if exhaustive_check_functor(fun).ok else None
            f = non_identity[i]
            for m in d.hom(obj_map[c.dom[f]], obj_map[c.cod[f]]):
                if used[m]:
                    continue
                mor_map[f] = m
                used[m] = True
                ok = True
                assigned = [a for a in c.morphisms() if mor_map[a] != -1]
                for g in assigned:
                    for h in assigned:
                        if (g, h) in c.compose:
                            img = mor_map[c.compose[(g, h)]]
                            if img != -1 and d.comp(mor_map[g], mor_map[h]) != img:
                                ok = False
                                break
                    if not ok:
                        break
                if ok:
                    res = backtrack(i + 1)
                    if res is not None:
                        return res
                used[m] = False
                mor_map[f] = -1
            return None

        return backtrack(0)

    def assign_obj(x: int) -> Functor | None:
        budget.spend()
        if x == c.n_objects:
            return try_morphisms()
        for y in d.objects():
            if used_obj[y] or sig_c[x] != sig_d[y]:
                continue
            obj_map[x] = y
            used_obj[y] = True
            res = assign_obj(x + 1)
            if res is not None:
                return res
            used_obj[y] = False
        obj_map[x] = -1
        return None

    return assign_obj(0)


def exhaustive_enumerate_rlax(
    r: LaxMonoidalFunctor,
    src: CanonicalCategory,
    tgt: CanonicalCategory,
    cap: int | None = None,
) -> list:
    """All r-lax functors along r between the modules, by brute force."""
    budget = Budget(cap, "r-lax enumeration")
    out = []
    cl, cm = src.module.carrier, tgt.module.carrier
    a_objs = list(src.module.base.base.objects())
    for f in exhaustive_enumerate_functors(cl, cm, cap):
        pools = []
        keys = []
        for a in a_objs:
            for x in cl.objects():
                keys.append((a, x))
                pools.append(
                    cm.hom(
                        tgt.module.a_obj(r.on_obj(a), f.obj_map[x]),
                        f.obj_map[src.module.a_obj(a, x)],
                    )
                )
        for combo in itertools.product(*pools):
            budget.spend()
            rl = RLaxStructure(
                r, src.module, tgt.module, f, dict(zip(keys, combo))
            )
            if check_rlax(rl).ok:
                out.append(rl)
    return out


def exhaustive_enumerate_enriched_functors(
    r: LaxMonoidalFunctor,
    src: CanonicalCategory,
    tgt: CanonicalCategory,
    cap: int | None = None,
) -> list:
    """All enriched functors along the background r, by brute force."""
    budget = Budget(cap, "enriched functor enumeration")
    e1, e2 = src.enriched, tgt.enriched
    cb = r.target.base
    out = []
    n = e1.n_objects
    for obj_map in itertools.product(range(e2.n_objects), repeat=n):
        pools = []
        keys = []
        for x, y in itertools.product(range(n), repeat=2):
            keys.append((x, y))
            pools.append(
                cb.hom(r.on_obj(e1.hom(x, y)), e2.hom(obj_map[x], obj_map[y]))
            )
        for combo in itertools.product(*pools):
            budget.spend()
            f = EnrichedFunctor(r, e1, e2, obj_map, dict(zip(keys, combo)))
            if exhaustive_check_enriched_functor(f).ok:
                out.append(f)
    return out


def _exhaustive_identity_background_laws(src: EnrichedCategory, tgt: EnrichedCategory,
                                         obj_map: tuple, comps: dict) -> bool:
    m = tgt.base
    c = m.base
    for x in src.objects():
        if c.comp(comps[(x, x)], src.one(x)) != tgt.one(obj_map[x]):
            return False
    for x, y, z in itertools.product(src.objects(), repeat=3):
        lhs = c.comp(comps[(x, z)], src.c(x, y, z))
        rhs = c.comp(
            tgt.c(obj_map[x], obj_map[y], obj_map[z]),
            m.t_mor(comps[(y, z)], comps[(x, y)]),
        )
        if lhs != rhs:
            return False
    return True


def _exhaustive_identity_background_functors(src: EnrichedCategory, tgt: EnrichedCategory,
                                             obj_maps, invertible: bool, budget: Budget):
    """Yield the enriched functors src -> tgt with identity background.

    Object maps come in the given order; each hom component ranges over the
    sorted base morphisms between the hom objects, only the invertible ones
    when invertible is set. Every component family spends one candidate.
    """
    m = src.base
    c = m.base
    bg = identity_lax(m)
    keys = list(itertools.product(src.objects(), repeat=2))
    for obj_map in obj_maps:
        pools = []
        for x, y in keys:
            pool = [
                f
                for f in c.hom(src.hom(x, y), tgt.hom(obj_map[x], obj_map[y]))
                if not invertible or find_inverse(c, f) is not None
            ]
            if not pool:
                break
            pools.append(sorted(pool))
        else:
            for combo in itertools.product(*pools):
                budget.spend()
                comps = dict(zip(keys, combo))
                if _exhaustive_identity_background_laws(src, tgt, obj_map, comps):
                    yield EnrichedFunctor(bg, src, tgt, obj_map, comps)


def exhaustive_enumerate_identity_background_functors(
    src: EnrichedCategory, tgt: EnrichedCategory, cap: int | None = None
) -> list:
    """All enriched functors src -> tgt whose background is the identity.

    Enumeration is exhaustive: a call that returns has seen every candidate
    object map and component family, so the list is complete.
    """
    if src.base != tgt.base:
        raise StructureError("functor enumeration needs a shared base")
    budget = Budget(cap, "enriched endofunctor enumeration")
    obj_maps = itertools.product(tgt.objects(), repeat=src.n_objects)
    return list(_exhaustive_identity_background_functors(src, tgt, obj_maps, False, budget))


def exhaustive_enriched_iso_search(
    e1: EnrichedCategory, e2: EnrichedCategory, cap: int | None = None
) -> EnrichedFunctor | None:
    """An identity-background enriched isomorphism e1 -> e2, if any.

    Searches object bijections and invertible hom components exhaustively.
    """
    if e1.base != e2.base:
        return None
    if e1.n_objects != e2.n_objects:
        return None
    budget = Budget(cap, "enriched isomorphism search")
    perms = itertools.permutations(range(e1.n_objects))
    return next(_exhaustive_identity_background_functors(e1, e2, perms, True, budget), None)


def _exhaustive_family_square_ok(e: EnrichedCategory, fF: EnrichedFunctor,
                                 fG: EnrichedFunctor, hb: HalfBraidingOrd,
                                 comps: dict) -> bool:
    m = e.base
    c = m.base
    for x, y in itertools.product(e.objects(), repeat=2):
        h = e.hom(x, y)
        up = c.comp_many(
            e.c(fF.on_obj(x), fF.on_obj(y), fG.on_obj(y)),
            m.t_mor(comps[y], fF.at(x, y)),
            hb.components[h],
        )
        down = c.comp(
            e.c(fF.on_obj(x), fG.on_obj(x), fG.on_obj(y)),
            m.t_mor(fG.at(x, y), comps[x]),
        )
        if up != down:
            return False
    return True


def exhaustive_bracket_family(e: EnrichedCategory, fF: EnrichedFunctor,
                              fG: EnrichedFunctor, z1,
                              cap: int | None = None) -> Bracket | None:
    """The terminal half-braided family from fF to fG, if one exists.

    Families pair an object a of the ordinary center z1 of the base with
    components I(a) -> hom(Fx, Gx) that slide past every hom; morphisms
    are center morphisms compatible with both families.
    """
    c = e.base.base
    budget = Budget(cap, "half-braided family enumeration")
    fwd = z1.forgetful
    objects = []
    for i, (_, hb) in enumerate(z1.object_data):
        ia = fwd.on_obj(i)
        pools = []
        for x in e.objects():
            pool = c.hom(ia, e.hom(fF.on_obj(x), fG.on_obj(x)))
            if not pool:
                break
            pools.append(sorted(pool))
        else:
            for combo in itertools.product(*pools):
                budget.spend()
                comps = dict(enumerate(combo))
                if _exhaustive_family_square_ok(e, fF, fG, hb, comps):
                    objects.append(Family(i, combo))
    return _terminal_bracket(c, fwd, objects, budget)


def exhaustive_check_module_functor(rl: RLaxStructure) -> ValidationReport:
    """The parent body of check_module_functor, verbatim except that it
    reads an r-lax functor along the identity of the shared base, whose
    cells are beta; the background rl.r is not read."""
    report = ValidationReport("module functor")
    report.extend(exhaustive_check_functor(rl.functor))
    if rl.source.base is not rl.target.base and rl.source.base != rl.target.base:
        raise StructureError("module functor needs a shared base")
    if not report.ok:
        return report
    a_cat = rl.source.base
    cl, cm = rl.source.carrier, rl.target.carrier
    typed = True
    for a, x in itertools.product(a_cat.base.objects(), cl.objects()):
        f = rl.beta.get((a, x))
        if f is None:
            raise StructureError(f"module functor cell missing at {(a, x)}")
        typed &= _expect(
            report, "module-functor-typing", (a, x), cm, f,
            rl.target.a_obj(a, rl.on_obj(x)), rl.on_obj(rl.source.a_obj(a, x)),
        )
    if not typed:
        return report
    for f in a_cat.base.morphisms():
        for p in cl.morphisms():
            a, x = a_cat.base.dom[f], cl.dom[p]
            ap, xp = a_cat.base.cod[f], cl.cod[p]
            lhs = cm.comp(rl.b(ap, xp), rl.target.a_mor(f, rl.on_mor(p)))
            rhs = cm.comp(rl.on_mor(rl.source.a_mor(f, p)), rl.b(a, x))
            if lhs != rhs:
                report.add("module-functor-naturality", (f, p))
    for a, b, x in itertools.product(
        a_cat.base.objects(), a_cat.base.objects(), cl.objects()
    ):
        lhs = cm.comp_many(
            rl.b(a, rl.source.a_obj(b, x)),
            rl.target.a_mor(a_cat.base.identity[a], rl.b(b, x)),
            rl.target.o(a, b, rl.on_obj(x)),
        )
        rhs = cm.comp(rl.on_mor(rl.source.o(a, b, x)), rl.b(a_cat.t_obj(a, b), x))
        if lhs != rhs:
            report.add("module-functor-associativity", (a, b, x))
    for x in cl.objects():
        lhs = cm.comp(rl.on_mor(rl.source.u(x)), rl.b(a_cat.unit, x))
        if lhs != rl.target.u(rl.on_obj(x)):
            report.add("module-functor-unit", (x,))
    return report


def exhaustive_enumerate_module_endofunctors(mod: ModuleAction, cap: int | None) -> list:
    """The lax module endofunctors of mod, as r-lax functors along the
    identity of its base, by brute force."""
    budget = Budget(cap, "module endofunctor enumeration")
    bg = identity_lax(mod.base)
    cc = mod.carrier
    mb = mod.base.base
    found = []
    for fun in exhaustive_enumerate_functors(cc, cc, cap):
        keys = [(a, x) for a in mb.objects() for x in cc.objects()]
        pools = []
        for a, x in keys:
            pool = cc.hom(
                mod.a_obj(a, fun.obj_map[x]), fun.obj_map[mod.a_obj(a, x)]
            )
            if not pool:
                pools = None
                break
            pools.append(sorted(pool))
        if pools is None:
            continue
        for combo in itertools.product(*pools):
            budget.spend()
            mf = RLaxStructure(bg, mod, mod, fun, dict(zip(keys, combo)))
            if exhaustive_check_module_functor(mf).ok:
                found.append(mf)
    return found


def exhaustive_module_nats(mod: ModuleAction, mfs: list, cap: int | None) -> list:
    """The natural-transformation loop of e0_center_via_module: every
    (i, j, components) between the module endofunctors mfs."""
    cc = mod.carrier
    budget = Budget(cap, "module endofunctor category")
    nats = []
    for i, fi in enumerate(mfs):
        for j, fj in enumerate(mfs):
            pools = [
                sorted(cc.hom(fi.functor.obj_map[x], fj.functor.obj_map[x]))
                for x in cc.objects()
            ]
            if any(not p for p in pools):
                continue
            for combo in itertools.product(*pools):
                budget.spend()
                nat = NatTransf(fi.functor, fj.functor, combo)
                if not check_nat_transf(nat).ok:
                    continue
                if check_module_nat(fi, fj, nat).ok:
                    nats.append((i, j, combo))
    return nats


def exhaustive_enumerate_half_braidings(
    m: MonoidalCategory, x: int, budget: Budget | None = None
) -> list[HalfBraidingOrd]:
    """All half-braidings on x, deterministically ordered."""
    c = m.base
    budget = budget or Budget(None, "half-braiding enumeration")
    candidates = []
    for z in c.objects():
        opts = [
            f
            for f in c.hom(m.t_obj(z, x), m.t_obj(x, z))
            if find_inverse(c, f) is not None
        ]
        candidates.append(opts)
    out = []
    for combo in itertools.product(*candidates):
        budget.spend()
        hb = HalfBraidingOrd(x, dict(enumerate(combo)))
        if check_half_braiding(m, hb).ok:
            out.append(hb)
    return out


def exhaustive_enumerate_enriched_half_braidings(
    em: EnrichedMonoidalCategory, x: int, cap: int | None = None
) -> list:
    """All enriched half-braidings on x, in lexicographic component order."""
    e = em.host
    m = e.base
    c = m.base
    u = underlying_category(e)
    um = underlying_monoidal(em)
    budget = Budget(cap, "enriched half-braiding enumeration")
    candidates = []
    for z in e.objects():
        pool = sorted(c.hom(m.unit, e.hom(em.t(z, x), em.t(x, z))))
        candidates.append(pool)
    found = []
    for combo in itertools.product(*candidates):
        budget.spend()
        hb = EnrichedHalfBraiding(x, dict(enumerate(combo)))
        if check_enriched_half_braiding(em, hb).ok:
            found.append(hb)
    return found


# --- the E0 center before whiskered tensor cells ---
#
# The parent body of centers.e0_center, verbatim except that it mediates
# through _scan_mediate, the parent _mediate, which rescans the center hom
# set for every composite instead of reading the bracket's certificate.


def _scan_mediate(c: FinCategory, incl: LaxMonoidalFunctor, bracket: Bracket,
                  src_z: int, family: tuple) -> int:
    """The unique center morphism src_z -> bracket.obj through which the
    bracket's components give family."""
    hits = [
        k
        for k in incl.source.base.hom(src_z, bracket.obj)
        if _factors(c, incl, k, bracket.components, family)
    ]
    if len(hits) != 1:
        raise StructureError(f"expected one mediating morphism, found {len(hits)}")
    return hits[0]


def exhaustive_e0_center(e: EnrichedCategory, cap: int | None = None,
                         cell_keys=None) -> CenterResult:
    """The E0 center with every one of the n^4 tensor cells mediated on its
    own from its cell family. With cell_keys, only the cells at those keys
    (p, q) are mediated, and the tensor holds only them."""
    star = condition_star(e, Budget(cap, "E0 center"))
    missing = [p for p, br in star.brackets.items() if br is None]
    if missing:
        raise StructureError(
            f"no terminal half-braided family for pairs {sorted(missing)}"
        )
    z1 = star.z1
    functors = star.functors
    brackets = star.brackets
    m = e.base
    c = m.base
    zmon = z1.monoidal
    fwd = z1.forgetful
    n = len(functors)
    fun_index = {_functor_key(f): i for i, f in enumerate(functors)}

    hom_obj = {(i, j): brackets[(i, j)].obj for i, j in brackets}
    ident = {}
    for i, fF in enumerate(functors):
        family = [e.one(fF.on_obj(x)) for x in e.objects()]
        ident[i] = _scan_mediate(c, fwd, brackets[(i, i)], zmon.unit, family)
    comp = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        a, b = brackets[(i, j)], brackets[(j, k)]
        family = []
        for x in e.objects():
            fx = (functors[i].on_obj(x), functors[j].on_obj(x), functors[k].on_obj(x))
            family.append(c.comp(
                e.c(*fx), m.t_mor(b.components[x], a.components[x])
            ))
        comp[(i, j, k)] = _scan_mediate(
            c, fwd, brackets[(i, k)], zmon.t_obj(b.obj, a.obj), family
        )
    host = EnrichedCategory(zmon, n, hom_obj, ident, comp)

    t_obj = {}
    for i, j in itertools.product(range(n), repeat=2):
        key = _functor_key(compose_enriched_functors(functors[i], functors[j]))
        if key not in fun_index:
            raise StructureError(f"endofunctor list not closed under composition at {(i, j)}")
        t_obj[(i, j)] = fun_index[key]
    if cell_keys is None:
        cell_keys = itertools.product(range(n * n), repeat=2)
    cells = {
        (p, q): exhaustive_e0_cell(
            e, functors, brackets, zmon, fwd, t_obj, *divmod(p, n), *divmod(q, n)
        )
        for p, q in cell_keys
    }
    tensor_obj_map = tuple(t_obj[(i, j)] for i in range(n) for j in range(n))
    tensor = EnrichedFunctor(
        braided_tensor_lax_structure(z1.braided),
        cartesian_product_enriched(host, host),
        host,
        tensor_obj_map,
        cells,
    )
    unit_idx = fun_index[_functor_key(identity_enriched_functor(e))]
    for i, j, k in itertools.product(range(n), repeat=3):
        if t_obj[(t_obj[(i, j)], k)] != t_obj[(i, t_obj[(j, k)])]:
            raise StructureError("endofunctor composition is not associative")
    assoc = {
        (i, j, k): ident[t_obj[(t_obj[(i, j)], k)]]
        for i, j, k in itertools.product(range(n), repeat=3)
    }
    left = tuple(ident[i] for i in range(n))
    right = tuple(ident[i] for i in range(n))
    category = EnrichedMonoidalCategory(
        host, z1.braided, tensor, unit_idx, assoc, left, right
    )
    witnesses = {
        "host": e,
        "functors": functors,
        "brackets": brackets,
        "z1": z1,
        "tensor_obj": t_obj,
        "unit_obj": unit_idx,
    }
    return CenterResult("E0", category, witnesses)


def exhaustive_e0_cell(e: EnrichedCategory, functors, brackets, zmon, fwd,
                       t_obj: dict, i: int, j: int, k: int, l: int) -> int:
    """The tensor cell hom(i, k) x hom(j, l) -> hom(ij, kl) of the E0
    center: the one mediator of its cell family, found by a scan."""
    m = e.base
    c = m.base
    a, b = brackets[(i, k)], brackets[(j, l)]
    family = []
    for x in e.objects():
        jx, lx = functors[j].on_obj(x), functors[l].on_obj(x)
        ij_x = functors[i].on_obj(jx)
        il_x = functors[i].on_obj(lx)
        kl_x = functors[k].on_obj(lx)
        family.append(c.comp(
            e.c(ij_x, il_x, kl_x),
            m.t_mor(
                a.components[lx],
                c.comp(functors[i].at(jx, lx), b.components[x]),
            ),
        ))
    return _scan_mediate(
        c, fwd, brackets[(t_obj[(i, j)], t_obj[(k, l)])],
        zmon.t_obj(a.obj, b.obj), family,
    )


# --- the lax-functor checker and the right-dual search with their mirrors ---
#
# The parent bodies of check_lax_monoidal_functor, which also took an
# "oplax" direction, and of find_right_dual, which mirrored find_left_dual,
# verbatim.


def exhaustive_check_lax_monoidal_functor(f: LaxMonoidalFunctor) -> ValidationReport:
    report = ValidationReport("lax monoidal functor")
    a, b = f.source, f.target
    c = b.base
    report.extend(exhaustive_check_functor(f.functor))
    if f.direction not in ("lax", "oplax", "strong"):
        raise StructureError(f"unknown direction {f.direction!r}")
    if not report.ok:
        return report
    oplax = f.direction == "oplax"

    typed = True
    du, cu = (f.on_obj(a.unit), b.unit) if oplax else (b.unit, f.on_obj(a.unit))
    typed &= _expect(report, "unit-cell-typing", (), c, f.unit_cell, du, cu)
    for x, y in itertools.product(a.base.objects(), repeat=2):
        cell = f.mult.get((x, y))
        if cell is None:
            raise StructureError(f"mult cell missing at {(x, y)}")
        fx_fy = b.t_obj(f.on_obj(x), f.on_obj(y))
        fxy = f.on_obj(a.t_obj(x, y))
        d0, c0 = (fxy, fx_fy) if oplax else (fx_fy, fxy)
        typed &= _expect(report, "mult-cell-typing", (x, y), c, cell, d0, c0)
    if not typed:
        return report

    # naturality of mult
    for p, q in itertools.product(a.base.morphisms(), repeat=2):
        x, y = a.base.dom[p], a.base.dom[q]
        xp, yp = a.base.cod[p], a.base.cod[q]
        if oplax:
            lhs = c.comp(f.m2(xp, yp), f.on_mor(a.t_mor(p, q)))
            rhs = c.comp(b.t_mor(f.on_mor(p), f.on_mor(q)), f.m2(x, y))
        else:
            lhs = c.comp(f.m2(xp, yp), b.t_mor(f.on_mor(p), f.on_mor(q)))
            rhs = c.comp(f.on_mor(a.t_mor(p, q)), f.m2(x, y))
        if lhs != rhs:
            report.add("mult-naturality", (p, q))

    # lax associativity / unitality (in the lax direction; oplax is mirrored)
    def m2d(x, y):
        return f.m2(x, y)

    for x, y, z in itertools.product(a.base.objects(), repeat=3):
        fx, fy, fz = f.on_obj(x), f.on_obj(y), f.on_obj(z)
        if not oplax:
            lhs = c.comp_many(
                f.on_mor(a.a(x, y, z)), m2d(a.t_obj(x, y), z),
                b.t_mor(m2d(x, y), c.identity[fz]),
            )
            rhs = c.comp_many(
                m2d(x, a.t_obj(y, z)), b.t_mor(c.identity[fx], m2d(y, z)),
                b.a(fx, fy, fz),
            )
        else:
            lhs = c.comp_many(
                b.t_mor(m2d(x, y), c.identity[fz]), m2d(a.t_obj(x, y), z),
            )
            rhs = c.comp_many(
                inv(b, b.a(fx, fy, fz)), b.t_mor(c.identity[fx], m2d(y, z)),
                m2d(x, a.t_obj(y, z)), f.on_mor(a.a(x, y, z)),
            )
        if lhs != rhs:
            report.add("lax-associativity", (x, y, z))

    for x in a.base.objects():
        fx = f.on_obj(x)
        if not oplax:
            lhs = c.comp_many(
                f.on_mor(a.l(x)), m2d(a.unit, x),
                b.t_mor(f.unit_cell, c.identity[fx]),
            )
            if lhs != b.l(fx):
                report.add("lax-left-unitality", (x,))
            rhs = c.comp_many(
                f.on_mor(a.r(x)), m2d(x, a.unit),
                b.t_mor(c.identity[fx], f.unit_cell),
            )
            if rhs != b.r(fx):
                report.add("lax-right-unitality", (x,))
        else:
            lhs = c.comp_many(
                b.l(fx), b.t_mor(f.unit_cell, c.identity[fx]), m2d(a.unit, x),
            )
            if lhs != f.on_mor(a.l(x)):
                report.add("lax-left-unitality", (x,))
            rhs = c.comp_many(
                b.r(fx), b.t_mor(c.identity[fx], f.unit_cell), m2d(x, a.unit),
            )
            if rhs != f.on_mor(a.r(x)):
                report.add("lax-right-unitality", (x,))

    if f.direction == "strong":
        if find_inverse(c, f.unit_cell) is None:
            report.add("cell-invertibility", ("unit",))
        for x, y in itertools.product(a.base.objects(), repeat=2):
            if find_inverse(c, f.m2(x, y)) is None:
                report.add("cell-invertibility", (x, y))
    return report


def exhaustive_find_right_dual(m: MonoidalCategory, x: int) -> DualityWitness | None:
    """Search a right dual: ev x@d -> 1, coev 1 -> d@x."""
    c = m.base
    for d in c.objects():
        for ev in c.hom(m.t_obj(x, d), m.unit):
            for coev in c.hom(m.unit, m.t_obj(d, x)):
                # x -> x@1 -> x@(d@x) -> (x@d)@x -> 1@x -> x
                zig_x = c.comp_many(
                    m.l(x),
                    m.t_mor(ev, c.identity[x]),
                    inv(m, m.a(x, d, x)),
                    m.t_mor(c.identity[x], coev),
                    inv(m, m.r(x)),
                )
                # d -> 1@d -> (d@x)@d -> d@(x@d) -> d@1 -> d
                zig_d = c.comp_many(
                    m.r(d),
                    m.t_mor(c.identity[d], ev),
                    m.a(d, x, d),
                    m.t_mor(coev, c.identity[d]),
                    inv(m, m.l(d)),
                )
                if zig_x == c.identity[x] and zig_d == c.identity[d]:
                    return DualityWitness(x, d, ev, coev)
    return None


# --- the tensor background and the bracket squares before lazy reads ---
#
# The parent bodies of monoidal._braided_tensor_lax_structure, which built
# every mult cell into a dict, and of centers.bracket_pair with
# _bracket_square_ok, which composed both legs of the sliding square at
# every z afresh for each candidate, verbatim.


def eager_braided_tensor_lax_structure(b: BraidedStructure) -> LaxMonoidalFunctor:
    m = b.host
    prod = product_monoidal(m, m)
    n = m.base.n_objects
    mult = {}
    for p, q in itertools.product(prod.base.objects(), repeat=2):
        a1, b1 = divmod(p, n)
        a2, b2 = divmod(q, n)
        # (a1@b1)@(a2@b2) -> (a1@a2)@(b1@b2), swapping with c_{b1,a2}
        mult[(p, q)] = mid_swap(m, a1, b1, a2, b2, lambda u, v: b.c(u, v))
    unit = inv(m, m.l(m.unit))
    tensor = Functor(prod.base, m.base, m.tensor.obj_map, m.tensor.mor_map)
    return LaxMonoidalFunctor(prod, m, tensor, unit, mult, "strong")


def _exhaustive_bracket_square_ok(em: EnrichedMonoidalCategory, oi, oj, a_host: int,
                                  zeta: int) -> bool:
    e = em.host
    m = e.base
    c = m.base
    x, hbx = oi
    y, hby = oj
    for z in e.objects():
        up = c.comp_many(
            hom_post(e, em.t(z, x), em.t(z, y), em.t(y, z), hby.components[z]),
            em.t_cell(z, x, z, y),
            m.t_mor(e.one(z), zeta),
            inv(m, m.l(a_host)),
        )
        down = c.comp_many(
            hom_pre(e, em.t(z, x), em.t(x, z), em.t(y, z), hbx.components[z]),
            em.t_cell(x, z, y, z),
            m.t_mor(zeta, e.one(z)),
            inv(m, m.r(a_host)),
        )
        if up != down:
            return False
    return True


def exhaustive_bracket_pair(em: EnrichedMonoidalCategory, z2: tuple, oi, oj,
                            budget: Budget) -> Bracket | None:
    """The terminal bracket pair from oi to oj, if one exists.

    Pairs join a transparent base object with a morphism zeta into
    hom(x, y) satisfying the sliding square; morphisms come from the
    transparent subcategory and must commute with both legs.
    """
    z2mon, _, z2incl = z2
    e = em.host
    c = e.base.base
    x, y = oi[0], oj[0]
    objects = []
    for az in z2mon.base.objects():
        a_host = z2incl.on_obj(az)
        for zeta in sorted(c.hom(a_host, e.hom(x, y))):
            budget.spend()
            if _exhaustive_bracket_square_ok(em, oi, oj, a_host, zeta):
                objects.append(Family(az, (zeta,)))
    return _terminal_bracket(c, z2incl, objects, budget)


def bracket_pair_used(em: EnrichedMonoidalCategory, z2: tuple, oi, oj, used: int,
                      raised: bool) -> int:
    """The ``Budget.used`` of ``centers.bracket_pair`` on inputs where
    ``exhaustive_bracket_pair`` spent used units and then returned (raised
    False) or raised. The search spends the oracle's candidates and one unit
    per transparent object it enters, as variable 0 of ``core._search``:
    every one, unless the oracle raised at a candidate; then each up to the
    one that owns the oracle's last spent candidate."""
    z2mon, _, z2incl = z2
    e = em.host
    hom = e.hom(oi[0], oj[0])
    candidates = 0
    for az in z2mon.base.objects():
        candidates += len(e.base.base.hom(z2incl.on_obj(az), hom))
        if raised and used <= candidates:
            return used + az + 1
    return used + z2mon.base.n_objects


# --- the E1 center's tensor cells before lazy reads ---
#
# The parent cell loop of centers.gamma1, verbatim, which composed and
# mediated all n^4 tensor cells into a dict before returning; it reads the
# objects, brackets, transparent subcategory and tensor object table from
# the witnesses of res = gamma1(em).


def eager_gamma1_cells(em: EnrichedMonoidalCategory, res: CenterResult) -> dict:
    e = em.host
    m = e.base
    c = m.base
    objs = res.witnesses["objects"]
    brackets = res.witnesses["brackets"]
    t1 = res.witnesses["tensor_obj"]
    z2mon, _, z2incl = res.witnesses["z2"]
    n = len(objs)
    cells = {}
    for i, j in itertools.product(range(n), repeat=2):
        for k, l in itertools.product(range(n), repeat=2):
            bik, bjl = brackets[(i, k)], brackets[(j, l)]
            route = c.comp(
                em.t_cell(objs[i][0], objs[j][0], objs[k][0], objs[l][0]),
                m.t_mor(bik.zeta, bjl.zeta),
            )
            cells[(i * n + j, k * n + l)] = _mediate(
                c, z2incl, brackets[(t1[(i, j)], t1[(k, l)])],
                z2mon.t_obj(bik.obj, bjl.obj), (route,),
            )
    return cells


# --- the E1/E2 evaluation action before memoised odot and lazy f2 ---
#
# The parent body of centers._center_evaluation_action, verbatim: it built
# the acting composite from em, not from the center's own host, and every
# f2 cell into a dict. Its cells come from the live centers._el_mid_swap,
# so that a cell that cannot be computed raises the same error in both
# builders (test_evaluation_action pins the message). parent_el_mid_swap is
# the parent body of centers._el_mid_swap, which composed the mid-swap
# element by element before it became a reading of monoidal.mid_swap in
# the underlying monoidal category; test_centers compares the two.


def parent_el_mid_swap(em: EnrichedMonoidalCategory, a1: int, a2: int, b1: int,
                       b2: int, swap_el: int) -> int:
    """Element (a1@a2)@(b1@b2) -> (a1@b1)@(a2@b2) exchanging the middle
    factors with swap_el: 1 -> hom(a2@b1, b1@a2)."""
    e = em.host
    t = em.t
    objs = [
        t(t(a1, a2), t(b1, b2)),
        t(a1, t(a2, t(b1, b2))),
        t(a1, t(t(a2, b1), b2)),
        t(a1, t(t(b1, a2), b2)),
        t(a1, t(b1, t(a2, b2))),
        t(t(a1, b1), t(a2, b2)),
    ]
    els = [
        em.a_el(a1, a2, t(b1, b2)),
        _t_el(em, a1, a1, t(a2, t(b1, b2)), t(t(a2, b1), b2),
              e.one(a1),
              _el_inv(e, t(t(a2, b1), b2), t(a2, t(b1, b2)),
                      em.a_el(a2, b1, b2))),
        _t_el(em, a1, a1, t(t(a2, b1), b2), t(t(b1, a2), b2),
              e.one(a1), _t_el(em, t(a2, b1), t(b1, a2), b2, b2,
                               swap_el, e.one(b2))),
        _t_el(em, a1, a1, t(t(b1, a2), b2), t(b1, t(a2, b2)),
              e.one(a1), em.a_el(b1, a2, b2)),
        _el_inv(e, t(t(a1, b1), t(a2, b2)), t(a1, t(b1, t(a2, b2))),
                em.a_el(a1, b1, t(a2, b2))),
    ]
    return _el_path(e, objs, els)


def eager_center_evaluation_action(res: CenterResult, em: EnrichedMonoidalCategory,
                                   carriers: list, swap, unit_obj: int) -> UnitalAction:
    """A center acting on its host by tensoring with the carrier.

    carriers[i] is the host object under center object i, and swap(j, p)
    the element 1 -> hom(p @ carriers[j], carriers[j] @ p) that makes the
    action monoidal.
    """
    e = em.host
    odot = _computed(compose_enriched_functors(
        em.tensor,
        product_enriched_functor(res.forgetful, identity_enriched_functor(e)),
    ))
    f2 = {}
    for i, xa in enumerate(carriers):
        for j, xb in enumerate(carriers):
            for p, q in itertools.product(range(e.n_objects), repeat=2):
                f2[((i, p), (j, q))] = _el_mid_swap(em, xa, p, xb, q, swap(j, p))
    # The unit isomorphism is the one of em acting on itself.
    tensor = tensor_action(em)
    return UnitalAction(
        res.category.host, e, odot, unit_obj, tensor.xi_el, tensor.xi_bg, f2
    )


# --- the centers' constructions before they were shared ---
#
# Parent bodies of centers and monoidal, verbatim but for the import of the
# names they read and the half-braided key, which ``_half_braided_index``
# now builds behind a lookup: ``_parent_half_braided_index`` is its parent
# body, the dict the parent sites read with ``.get``.


def _parent_half_braided_index(pairs) -> dict:
    return {
        (x, tuple(sorted(hb.components.items()))): i
        for i, (x, hb) in enumerate(pairs)
    }


def parent_gamma1_module_side(mm, cap: int | None = None) -> ModuleAction:
    """The parent body of ``centers.gamma1_of_canonical`` up to the module
    it hands to its second canonical construction, which it returns."""
    budget = Budget(cap, "E1 center of a canonical category")
    can = canonical_construction(mm.module, budget)
    em = canonical_monoidal(mm, can)
    gamma1(em, budget)

    mod = mm.module
    mA = mod.base
    ca = mA.base
    lm = mm.carrier_monoidal
    cc = mod.carrier
    z1m = drinfeld_center_z1(lm, budget)
    zm = z1m.monoidal
    zc = zm.base
    fwd = z1m.forgetful
    z1_obj_index = _parent_half_braided_index(z1m.object_data)
    lift_mor = _lifter(fwd)

    phi_obj = []
    for a in ca.objects():
        x = mod.a_obj(a, lm.unit)
        comps = {}
        for z in cc.objects():
            comps[z] = cc.comp_many(
                lm.t_mor(cc.identity[x], mod.u(z)),
                mm.i(a, mA.unit, lm.unit, z),
                mod.a_mor(inv(mA, mA.r(a)), inv(lm, lm.l(z))),
                mod.a_mor(mA.l(a), lm.r(z)),
                inv(lm, mm.i(mA.unit, a, z, lm.unit)),
                lm.t_mor(inv(lm, mod.u(z)), cc.identity[x]),
            )
        pos = z1_obj_index.get((x, tuple(sorted(comps.items()))))
        if pos is None:
            raise StructureError(
                f"action of {a} on the carrier unit is not central"
            )
        phi_obj.append(pos)
    phi_mor = []
    for f in ca.morphisms():
        g = mod.a_mor(f, cc.identity[lm.unit])
        phi_mor.append(lift_mor(phi_obj[ca.dom[f]], phi_obj[ca.cod[f]], g))
    phi2 = {}
    for a, b in itertools.product(ca.objects(), repeat=2):
        g = cc.comp(
            mod.a_mor(ca.identity[mA.t_obj(a, b)], lm.l(lm.unit)),
            inv(lm, mm.i(a, b, lm.unit, lm.unit)),
        )
        phi2[(a, b)] = lift_mor(
            zm.t_obj(phi_obj[a], phi_obj[b]), phi_obj[mA.t_obj(a, b)], g
        )
    phi0 = lift_mor(zm.unit, phi_obj[mA.unit], inv(lm, mod.u(lm.unit)))

    submon, subbr, subincl = muger_centralizer(z1m.braided, phi_obj)
    sub_obj = {subincl.on_obj(i): i for i in submon.base.objects()}
    sub_mor = {subincl.on_mor(k): k for k in submon.base.morphisms()}
    z2 = muger_center_z2(mm.base_braiding)
    z2mon, z2br, z2incl = z2

    act_obj, act_mor = [], []
    for a2 in z2mon.base.objects():
        pa = phi_obj[z2incl.on_obj(a2)]
        for x in submon.base.objects():
            tgt = zm.t_obj(pa, subincl.on_obj(x))
            if tgt not in sub_obj:
                raise StructureError("centralizer is not closed under the action")
            act_obj.append(sub_obj[tgt])
    for f2 in z2mon.base.morphisms():
        pf = phi_mor[z2incl.on_mor(f2)]
        for p in submon.base.morphisms():
            act_mor.append(sub_mor[zm.t_mor(pf, subincl.on_mor(p))])
    act = Functor(
        product_category(z2mon.base, submon.base), submon.base,
        tuple(act_obj), tuple(act_mor),
    )
    oplax_assoc = {}
    for a2, b2 in itertools.product(z2mon.base.objects(), repeat=2):
        a, b = z2incl.on_obj(a2), z2incl.on_obj(b2)
        for x in submon.base.objects():
            ix = subincl.on_obj(x)
            g = zc.comp(
                zm.a(phi_obj[a], phi_obj[b], ix),
                zm.t_mor(inv(zm, phi2[(a, b)]), zc.identity[ix]),
            )
            oplax_assoc[(a2, b2, x)] = sub_mor[g]
    oplax_unit = []
    for x in submon.base.objects():
        ix = subincl.on_obj(x)
        g = zc.comp(zm.l(ix), zm.t_mor(inv(zm, phi0), zc.identity[ix]))
        oplax_unit.append(sub_mor[g])
    strong_a = all(
        find_inverse(submon.base, f) is not None for f in oplax_assoc.values()
    )
    strong_u = all(find_inverse(submon.base, f) is not None for f in oplax_unit)
    modB = ModuleAction(
        z2mon, submon.base, act, oplax_assoc, tuple(oplax_unit),
        strong_a, strong_u,
    )
    return modB


def parent_gamma2_module_side(mm, carrier_braiding: BraidedStructure,
                              cap: int | None = None) -> ModuleAction:
    """The parent body of ``centers.gamma2_of_canonical`` up to the module
    it hands to its second canonical construction, which it returns."""
    budget = Budget(cap, "E2 center of a canonical category")
    can = canonical_construction(mm.module, budget)
    eb = canonical_braided(mm, carrier_braiding, can, carrier_braiding.symmetric_flag)
    gamma2(eb)

    subL, subbr, subincl = muger_center_z2(carrier_braiding)
    mod = mm.module
    mA = mod.base
    ca = mA.base
    sub_obj = {subincl.on_obj(i): i for i in subL.base.objects()}
    sub_mor = {subincl.on_mor(k): k for k in subL.base.morphisms()}
    act_obj, act_mor = [], []
    for a in ca.objects():
        for x in subL.base.objects():
            t = mod.a_obj(a, subincl.on_obj(x))
            if t not in sub_obj:
                raise StructureError(
                    "transparent carrier objects are not closed under the action"
                )
            act_obj.append(sub_obj[t])
    for f in ca.morphisms():
        for p in subL.base.morphisms():
            act_mor.append(sub_mor[mod.a_mor(f, subincl.on_mor(p))])
    act = Functor(
        product_category(ca, subL.base), subL.base,
        tuple(act_obj), tuple(act_mor),
    )
    oplax_assoc = {
        (a, b, x): sub_mor[mod.o(a, b, subincl.on_obj(x))]
        for a, b in itertools.product(ca.objects(), repeat=2)
        for x in subL.base.objects()
    }
    oplax_unit = tuple(
        sub_mor[mod.u(subincl.on_obj(x))] for x in subL.base.objects()
    )
    mod2 = ModuleAction(
        mA, subL.base, act, oplax_assoc, oplax_unit,
        mod.strongly_associative, mod.strongly_unital,
    )
    interchange = {
        (a, b, x, y): sub_mor[mm.i(a, b, subincl.on_obj(x), subincl.on_obj(y))]
        for a, b in itertools.product(ca.objects(), repeat=2)
        for x, y in itertools.product(subL.base.objects(), repeat=2)
    }
    MonoidalModuleCells(
        mod2, mm.base_braiding, subL, interchange, sub_mor[mm.unit_cell]
    )
    return mod2


def parent_z1_tensor_unit(m: MonoidalCategory, z_objects: list) -> tuple:
    """The tensor object map and unit of ``monoidal.drinfeld_center_z1``'s
    parent body on the half-braided objects z_objects of m."""
    nz = len(z_objects)
    z_index = _parent_half_braided_index(z_objects)

    def tensor_obj(i: int, j: int) -> int:
        (x, gamma), (y, delta) = z_objects[i], z_objects[j]
        comps = _tensor_half_braiding(m, x, gamma.components, y, delta.components)
        pos = z_index.get((m.t_obj(x, y), tuple(sorted(comps.items()))))
        if pos is None:
            raise StructureError(
                f"tensor of half-braided objects not recognized at {(i, j)}"
            )
        return pos

    t_obj_map = tuple(tensor_obj(i, j) for i, j in itertools.product(range(nz), repeat=2))
    z_unit = z_index.get((m.unit, tuple(sorted(_unit_half_braiding(m).items()))))
    if z_unit is None:
        raise StructureError("unit half-braiding not recognized")
    return t_obj_map, z_unit


def parent_gamma1_tensor_unit(em: EnrichedMonoidalCategory, objs: list) -> tuple:
    """The tensor object table t1 and the unit of ``centers.gamma1``'s
    parent body on its enriched half-braided objects objs."""
    e = em.host
    u = underlying_category(e)
    um = underlying_monoidal(em)
    obj_index = _parent_half_braided_index(objs)
    n = len(objs)
    under = cache(lambda i: underlying_half_braiding(em, objs[i][1]))
    t1 = {}
    for i, j in itertools.product(range(n), repeat=2):
        x, y = objs[i][0], objs[j][0]
        gx, gy = under(i), under(j)
        comps = {
            z: u.elements[k][2]
            for z, k in _tensor_half_braiding(um, x, gx.components, y, gy.components).items()
        }
        pos = obj_index.get((em.t(x, y), tuple(sorted(comps.items()))))
        if pos is None:
            raise StructureError(
                f"tensor of half-braided objects not recognized at {(i, j)}"
            )
        t1[(i, j)] = pos
    unit_comps = {z: u.elements[k][2] for z, k in _unit_half_braiding(um).items()}
    unit_idx = obj_index.get((em.unit_obj, tuple(sorted(unit_comps.items()))))
    if unit_idx is None:
        raise StructureError("unit half-braiding not recognized")
    return t1, unit_idx


def parent_gamma1_host(em: EnrichedMonoidalCategory, res: CenterResult) -> EnrichedCategory:
    """The enriched category of terminal bracket pairs of ``centers.gamma1``'s
    parent body; it reads the objects, brackets and transparent subcategory
    from the witnesses of res = gamma1(em)."""
    e = em.host
    m = e.base
    c = m.base
    objs = res.witnesses["objects"]
    brackets = res.witnesses["brackets"]
    z2mon, _, z2incl = res.witnesses["z2"]
    n = len(objs)
    hom_obj = {p: br.obj for p, br in brackets.items()}
    ident = {
        i: _mediate(c, z2incl, brackets[(i, i)], z2mon.unit, (e.one(x),))
        for i, (x, _) in enumerate(objs)
    }
    comp = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        bjk, bij = brackets[(j, k)], brackets[(i, j)]
        route = c.comp(
            e.c(objs[i][0], objs[j][0], objs[k][0]),
            m.t_mor(bjk.zeta, bij.zeta),
        )
        comp[(i, j, k)] = _mediate(
            c, z2incl, brackets[(i, k)], z2mon.t_obj(bjk.obj, bij.obj), (route,)
        )
    return EnrichedCategory(z2mon, n, hom_obj, ident, comp)


# --- the centers' square checks before the thin-host gates ---
#
# The parent bodies of centers.bracket_family, centers._terminal_bracket and
# enriched_monoidal.check_enriched_half_braiding, verbatim except that the
# family search calls the frozen square check and terminal finder of this
# file. They compose every sliding square and every factoring, on thin
# hosts too.


def ungated_terminal_bracket(c: FinCategory, incl: LaxMonoidalFunctor, objects: list,
                             budget: Budget) -> Bracket | None:
    """The first terminal family among objects, if one exists.

    incl maps the center into the base c. Morphisms are the center
    morphisms through which the target family gives the source family;
    each candidate spends one unit of budget.
    """
    zc = incl.source.base
    morphisms = []
    for p, src in enumerate(objects):
        for q, tgt in enumerate(objects):
            for k in zc.hom(src.z_obj, tgt.z_obj):
                budget.spend()
                if _factors(c, incl, k, tgt.components, src.components):
                    morphisms.append((p, q, k))
    incoming = {q: {} for q in range(len(objects))}
    for p, q, k in morphisms:
        incoming[q].setdefault(p, []).append(k)
    for q, obj in enumerate(objects):
        if all(len(incoming[q].get(p, ())) == 1 for p in range(len(objects))):
            mediators = {p: ks[0] for p, ks in incoming[q].items()}
            return Bracket(obj.z_obj, obj.components, mediators,
                           tuple(objects), tuple(morphisms), incl)
    return None


def ungated_bracket_family(e: EnrichedCategory, fF: EnrichedFunctor,
                           fG: EnrichedFunctor, z1, budget: Budget) -> Bracket | None:
    """The terminal half-braided family from fF to fG, if one exists.

    Families pair an object a of the ordinary center z1 of the base with
    components I(a) -> hom(Fx, Gx) that slide past every hom; morphisms
    are center morphisms compatible with both families. The center object
    is the first variable of the search, the components the rest.
    """
    c = e.base.base
    fwd = z1.forgetful

    def domain(i, v):
        if i == 0:
            return range(len(z1.object_data))
        return c.hom(fwd.on_obj(v[0]), e.hom(fF.on_obj(i - 1), fG.on_obj(i - 1)))

    def slides(v):
        return _exhaustive_family_square_ok(e, fF, fG, z1.object_data[v[0]][1], v[1:])

    n = e.n_objects
    objects = [
        Family(v[0], v[1:]) for v in _search(n + 1, domain, [(n, slides)], budget)
    ]
    return ungated_terminal_bracket(c, fwd, objects, budget)


def ungated_check_enriched_half_braiding(
    em: EnrichedMonoidalCategory, hb: EnrichedHalfBraiding
) -> ValidationReport:
    report = ValidationReport("enriched half-braiding")
    e = em.host
    m = e.base
    c = m.base
    x = hb.carrier
    um = underlying_monoidal(em)
    try:
        under = underlying_half_braiding(em, hb)
    except KeyError as bad:
        report.add("half-braiding-element", (), str(bad))
        return report
    _absorb(report, check_half_braiding(um, under), "underlying")

    for y, z in itertools.product(e.objects(), repeat=2):
        h = e.hom(y, z)
        post = c.comp_many(
            hom_post(e, em.t(y, x), em.t(z, x), em.t(x, z), hb.components[z]),
            em.t_cell(y, x, z, x),
            m.t_mor(c.identity[h], e.one(x)),
            inv(m, m.r(h)),
        )
        pre = c.comp_many(
            hom_pre(e, em.t(y, x), em.t(x, y), em.t(x, z), hb.components[y]),
            em.t_cell(x, y, x, z),
            m.t_mor(e.one(x), c.identity[h]),
            inv(m, m.l(h)),
        )
        if post != pre:
            report.add("enriched-half-braiding-naturality", (y, z))
    return report


def counting_calls(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that appends the arguments of each
    call to the returned list."""
    calls = []
    inner = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls
