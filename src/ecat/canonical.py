"""Promoting a module with all internal homs to an enriched category.

The canonical construction takes a strongly unital action whose internal
homs [x, y] all exist and produces an enriched category with hom objects
[x, y]; identities and compositions are the unique mediators of the
defining evaluation diagrams. The rest of the module implements the
correspondences between r-lax data on the module side and enriched
functors and naturals on the enriched side, plus the monoidal and braided
upgrades of the construction.

Under the construction, r-lax functors along a background r correspond to
enriched functors along r (``verify_canonical_2functor``). Both sides are
enumerated by the one search of their level, ``actions._rlax_search`` and
``enriched._enriched_functor_search``, which the identity-background
searches of ``centers`` share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ecat.core import (
    Functor,
    NatTransf,
    product_category,
)
from ecat.actions import (
    InternalHom,
    ModuleAction,
    MonoidalModuleCells,
    RLaxStructure,
    _rlax_search,
    compose_rlax,
    identity_rlax,
    internal_hom,
)
from ecat.enriched import (
    EnrichedCategory,
    EnrichedFunctor,
    EnrichedNat,
    _computed,
    _enriched_functor_search,
    cartesian_product_enriched,
    compose_enriched_functors,
    identity_enriched_functor,
    underlying_category,
)
from ecat.enriched_monoidal import (
    EnrichedBraidedCategory,
    EnrichedMonoidalCategory,
)
from ecat.monoidal import (
    BraidedStructure,
    LaxMonoidalFunctor,
    LaxMonoidalNat,
    MonoidalCategory,
    braided_tensor_lax_structure,
    check_lax_monoidal_functor,
    find_inverse,
)
from ecat.report import Budget, StructureError, ValidationReport


@dataclass(frozen=True, eq=True)
class CanonicalCategory:
    """A canonical construction together with its internal-hom witnesses."""

    module: ModuleAction
    homs: dict  # (x,y) -> InternalHom
    enriched: EnrichedCategory

    def hom(self, x: int, y: int) -> InternalHom:
        return self.homs[(x, y)]


def canonical_construction(
    mod: ModuleAction, cap: int | Budget | None = None
) -> CanonicalCategory:
    """Build the enriched category with hom objects the internal homs.

    The identity element at x mediates the unitor and the composition
    mediates evaluation after evaluation; both are unique by terminality
    of the internal-hom pairs.

    mod is not validated: the result means nothing unless
    ``check_module(mod)`` passes. An invalid mod can still raise
    StructureError (a module that is not strongly unital, a pair with no
    internal hom, a mistyped composite) or KeyError (a missing associator
    cell, or a mistyped unitor or composite route, which has no mediator).
    One budget of cap units bounds every search.
    """
    if not mod.strongly_unital:
        raise StructureError("canonical construction needs a strongly unital module")
    c = mod.carrier
    m = mod.base
    budget = Budget.of(cap, "internal hom search")
    homs = {}
    for x, y in itertools.product(c.objects(), repeat=2):
        ih = internal_hom(mod, x, y, budget)
        if ih is None:
            raise StructureError(f"internal hom missing for pair {(x, y)}")
        homs[(x, y)] = ih
    hom_obj = {p: ih.hom_obj for p, ih in homs.items()}
    ident = {}
    for x in c.objects():
        ident[x] = homs[(x, x)].mediate(m.unit, mod.u(x))
    comp = {}
    for x, y, z in itertools.product(c.objects(), repeat=3):
        hyz, hxy = hom_obj[(y, z)], hom_obj[(x, y)]
        route = c.comp_many(
            homs[(y, z)].ev,
            mod.a_mor(m.base.identity[hyz], homs[(x, y)].ev),
            mod.o(hyz, hxy, x),
        )
        comp[(x, y, z)] = homs[(x, z)].mediate(m.t_obj(hyz, hxy), route)
    enriched = EnrichedCategory(m, c.n_objects, hom_obj, ident, comp)
    return CanonicalCategory(mod, homs, enriched)


def coev(can: CanonicalCategory, a: int, x: int) -> int:
    """The unit a -> [x, a.x] of the evaluation adjunction."""
    mod = can.module
    ax = mod.a_obj(a, x)
    return can.hom(x, ax).mediate(a, mod.carrier.identity[ax])


def underline(can: CanonicalCategory, f: int) -> int:
    """Transport a carrier morphism f: y -> y' to an element 1 -> [y, y']."""
    mod = can.module
    c = mod.carrier
    y, yp = c.dom[f], c.cod[f]
    return can.hom(y, yp).mediate(mod.base.unit, c.comp(f, mod.u(y)))


def realize(can: CanonicalCategory, x: int, y: int, el: int) -> int:
    """The inverse transport: an element 1 -> [x, y] as a carrier morphism."""
    mod = can.module
    c = mod.carrier
    u_inv = find_inverse(c, mod.u(x))
    if u_inv is None:
        raise StructureError(f"unitor at {x} is not invertible")
    return c.comp_many(
        can.hom(x, y).ev, mod.a_mor(el, c.identity[x]), u_inv
    )


def hom_post_mor(can: CanonicalCategory, x: int, g: int) -> int:
    """[x, g]: [x, u] -> [x, v] in the background, for g: u -> v in the carrier."""
    mod = can.module
    c = mod.carrier
    u, v = c.dom[g], c.cod[g]
    ih_u = can.hom(x, u)
    return can.hom(x, v).mediate(ih_u.hom_obj, c.comp(g, ih_u.ev))


def carrier_identification(can: CanonicalCategory) -> Functor:
    """The isomorphism from the carrier onto the underlying category.

    Identity on objects; a morphism goes to its transported element. The
    tests verify bijectivity and functoriality morphism by morphism.
    """
    u = underlying_category(can.enriched)
    c = can.module.carrier
    mor_map = []
    for f in c.morphisms():
        x, y = c.dom[f], c.cod[f]
        mor_map.append(u.index[(x, y, underline(can, f))])
    return Functor(c, u.cat, tuple(c.objects()), tuple(mor_map))


# --- the 1-cell correspondence ---


def rlax_from_enriched_functor(
    f: EnrichedFunctor, src: CanonicalCategory, tgt: CanonicalCategory
) -> RLaxStructure:
    """Extract the r-lax data of an enriched functor between canonicals."""
    if f.source != src.enriched or f.target != tgt.enriched:
        raise StructureError("functor endpoints are not the given canonicals")
    r = f.background
    cb = r.target.base
    cl, cm = src.module.carrier, tgt.module.carrier
    mor_map = []
    for p in cl.morphisms():
        x, y = cl.dom[p], cl.cod[p]
        el = cb.comp_many(
            f.at(x, y), r.on_mor(underline(src, p)), r.unit_cell
        )
        mor_map.append(realize(tgt, f.on_obj(x), f.on_obj(y), el))
    functor = Functor(cl, cm, f.obj_map, tuple(mor_map))
    beta = {}
    for a in src.module.base.base.objects():
        for x in cl.objects():
            ax = src.module.a_obj(a, x)
            g = cb.comp(f.at(x, ax), r.on_mor(coev(src, a, x)))
            beta[(a, x)] = cm.comp(
                tgt.hom(f.on_obj(x), f.on_obj(ax)).ev,
                tgt.module.a_mor(g, cm.identity[f.on_obj(x)]),
            )
    return RLaxStructure(r, src.module, tgt.module, functor, beta)


def enriched_functor_from_rlax(
    rl: RLaxStructure, src: CanonicalCategory, tgt: CanonicalCategory
) -> EnrichedFunctor:
    """Promote an r-lax functor to an enriched functor between canonicals."""
    if rl.source != src.module or rl.target != tgt.module:
        raise StructureError("r-lax endpoints are not the given modules")
    r = rl.r
    cb = r.target.base
    comps = {}
    for x, y in itertools.product(src.module.carrier.objects(), repeat=2):
        h = src.enriched.hom(x, y)
        fx = rl.on_obj(x)
        b = r.on_obj(h)
        comps[(x, y)] = cb.comp_many(
            hom_post_mor(tgt, fx, rl.on_mor(src.hom(x, y).ev)),
            hom_post_mor(tgt, fx, rl.b(h, x)),
            coev(tgt, b, fx),
        )
    return EnrichedFunctor(r, src.enriched, tgt.enriched, rl.functor.obj_map, comps)


# --- the 2-cell correspondence ---


def enriched_nat_from_xilax(
    xihat: LaxMonoidalNat,
    xi: NatTransf,
    f1: EnrichedFunctor,
    f2: EnrichedFunctor,
    tgt: CanonicalCategory,
) -> EnrichedNat:
    comps = {
        x: underline(tgt, xi.components[x])
        for x in f1.source.objects()
    }
    return EnrichedNat(xihat, f1, f2, comps)


def xilax_from_enriched_nat(
    n: EnrichedNat,
    f1rl: RLaxStructure,
    f2rl: RLaxStructure,
    tgt: CanonicalCategory,
) -> NatTransf:
    comps = tuple(
        realize(tgt, f1rl.on_obj(x), f2rl.on_obj(x), n.at(x))
        for x in f1rl.source.carrier.objects()
    )
    return NatTransf(f1rl.functor, f2rl.functor, comps)


# --- the monoidal upgrade ---


def canonical_monoidal(
    mm: MonoidalModuleCells, can: CanonicalCategory | None = None
) -> EnrichedMonoidalCategory:
    """The enriched monoidal structure induced by a monoidal module.

    The tensor cells mediate evaluation through the interchange; the
    coherence elements are the transported carrier coherences.
    """
    can = can or canonical_construction(mm.module)
    mod = mm.module
    lm = mm.carrier_monoidal
    c = mod.carrier
    m = mod.base
    e = can.enriched
    n = e.n_objects
    cells = {}
    for x1, y1, x2, y2 in itertools.product(range(n), repeat=4):
        h1, h2 = e.hom(x1, x2), e.hom(y1, y2)
        route = c.comp(
            lm.t_mor(can.hom(x1, x2).ev, can.hom(y1, y2).ev),
            mm.i(h1, h2, x1, y1),
        )
        cells[(x1 * n + y1, x2 * n + y2)] = can.hom(
            lm.t_obj(x1, y1), lm.t_obj(x2, y2)
        ).mediate(m.t_obj(h1, h2), route)
    obj_map = tuple(lm.t_obj(x, y) for x in range(n) for y in range(n))
    tensor = EnrichedFunctor(
        braided_tensor_lax_structure(mm.base_braiding),
        cartesian_product_enriched(e, e),
        e,
        obj_map,
        cells,
    )
    assoc = {
        (x, y, z): underline(can, lm.a(x, y, z))
        for x, y, z in itertools.product(range(n), repeat=3)
    }
    left = tuple(underline(can, lm.l(x)) for x in range(n))
    right = tuple(underline(can, lm.r(x)) for x in range(n))
    return EnrichedMonoidalCategory(
        e, mm.base_braiding, tensor, lm.unit, assoc, left, right
    )


def monoidal_cells_from_enriched(
    em: EnrichedMonoidalCategory, can: CanonicalCategory
) -> MonoidalModuleCells:
    """Extract the monoidal-module data of a canonical enriched monoidal.

    Inverse to the construction above: the carrier monoidal structure is
    transported back through the carrier identification and the
    interchange cells are recovered from the tensor cells at coevaluations.
    """
    mod = can.module
    c = mod.carrier
    m = mod.base
    ca = m.base
    n = c.n_objects
    obj_map, mor_map = [], []
    for x, y in itertools.product(range(n), repeat=2):
        obj_map.append(em.t(x, y))
    lam_inv = find_inverse(ca, m.l(m.unit))
    for p in c.morphisms():
        for q in c.morphisms():
            x, y = c.dom[p], c.dom[q]
            xp, yp = c.cod[p], c.cod[q]
            el = ca.comp_many(
                em.t_cell(x, y, xp, yp),
                m.t_mor(underline(can, p), underline(can, q)),
                lam_inv,
            )
            mor_map.append(realize(can, em.t(x, y), em.t(xp, yp), el))
    tensor = Functor(product_category(c, c), c, tuple(obj_map), tuple(mor_map))
    lm = MonoidalCategory(
        c,
        tensor,
        em.unit_obj,
        {
            t: realize(can, em.t(em.t(t[0], t[1]), t[2]), em.t(t[0], em.t(t[1], t[2])), em.a_el(*t))
            for t in itertools.product(range(n), repeat=3)
        },
        tuple(realize(can, em.t(em.unit_obj, x), x, em.l_el(x)) for x in range(n)),
        tuple(realize(can, em.t(x, em.unit_obj), x, em.r_el(x)) for x in range(n)),
    )
    interchange = {}
    for a, b in itertools.product(m.base.objects(), repeat=2):
        for x, y in itertools.product(range(n), repeat=2):
            ax, by = mod.a_obj(a, x), mod.a_obj(b, y)
            g = ca.comp(
                em.t_cell(x, y, ax, by),
                m.t_mor(coev(can, a, x), coev(can, b, y)),
            )
            interchange[(a, b, x, y)] = c.comp(
                can.hom(lm.t_obj(x, y), lm.t_obj(ax, by)).ev,
                mod.a_mor(g, c.identity[lm.t_obj(x, y)]),
            )
    return MonoidalModuleCells(
        mod, em.braiding, lm, interchange, mod.u(lm.unit)
    )


# --- the braided upgrade ---


def check_braided_module(
    mm: MonoidalModuleCells, carrier_braiding: BraidedStructure
) -> ValidationReport:
    """The compatibility square between the interchange and the braidings."""
    report = ValidationReport("braided monoidal module")
    mod = mm.module
    c = mod.carrier
    m = mod.base
    lc = carrier_braiding
    if lc.host != mm.carrier_monoidal:
        report.add("carrier-braiding-host", ())
        return report
    for a, b in itertools.product(m.base.objects(), repeat=2):
        for x, y in itertools.product(c.objects(), repeat=2):
            lhs = c.comp(
                lc.c(mod.a_obj(a, x), mod.a_obj(b, y)), mm.i(a, b, x, y)
            )
            rhs = c.comp(
                mm.i(b, a, y, x),
                mod.a_mor(mm.base_braiding.c(a, b), lc.c(x, y)),
            )
            if lhs != rhs:
                report.add("braided-module-square", (a, b, x, y))
    return report


def canonical_braided(
    mm: MonoidalModuleCells,
    carrier_braiding: BraidedStructure,
    can: CanonicalCategory | None = None,
    symmetric: bool = False,
) -> EnrichedBraidedCategory:
    """The enriched braiding transported from a braided monoidal module."""
    rep = check_braided_module(mm, carrier_braiding)
    if not rep.ok:
        raise StructureError(
            "module is not braided: " + rep.violations[0].law
            + f" at {rep.violations[0].instance}"
        )
    can = can or canonical_construction(mm.module)
    em = canonical_monoidal(mm, can)
    n = can.enriched.n_objects
    els = {
        (x, y): underline(can, carrier_braiding.c(x, y))
        for x, y in itertools.product(range(n), repeat=2)
    }
    return EnrichedBraidedCategory(em, els, symmetric)


# --- 2-functoriality checks ---


def enumerate_rlax(
    r: LaxMonoidalFunctor,
    src: CanonicalCategory,
    tgt: CanonicalCategory,
    cap: int | Budget | None = None,
) -> list:
    """All r-lax functors along r between the modules (``_rlax_search``)."""
    return _rlax_search(r, src.module, tgt.module, Budget.of(cap, "r-lax enumeration"))


def enumerate_enriched_functors(
    r: LaxMonoidalFunctor,
    src: CanonicalCategory,
    tgt: CanonicalCategory,
    cap: int | Budget | None = None,
) -> list:
    """All enriched functors along the background r
    (``_enriched_functor_search``); none when r is not lax monoidal."""
    budget = Budget.of(cap, "enriched functor enumeration")
    if not check_lax_monoidal_functor(r).ok:
        return []
    return list(_enriched_functor_search(r, src.enriched, tgt.enriched, budget))


def verify_canonical_2functor(
    pairs: list[tuple[CanonicalCategory, CanonicalCategory, LaxMonoidalFunctor]],
    cap: int | Budget | None = None,
) -> ValidationReport:
    """Functoriality and local bijectivity of the canonical construction.

    For every (source, target, background) triple the two brute-force
    enumerations must biject under the mutually inverse translations, and
    identities and composites must be preserved where endpoints match.
    One budget of cap units bounds every enumeration of every triple.
    """
    report = ValidationReport("canonical construction 2-functoriality")
    images = {}
    budget = Budget.of(cap, "canonical 2-functoriality")
    for k, (src, tgt, r) in enumerate(pairs):
        rls = _rlax_search(r, src.module, tgt.module, budget)
        efs = enumerate_enriched_functors(r, src, tgt, budget)
        if len(rls) != len(efs):
            report.add("local-bijectivity-count", (k, len(rls), len(efs)))
        seen = []
        for rl in rls:
            f = enriched_functor_from_rlax(rl, src, tgt)
            if f not in efs:
                report.add("image-not-enriched-functor", (k,))
                continue
            if rlax_from_enriched_functor(f, src, tgt) != rl:
                report.add("round-trip-rlax", (k,))
            seen.append(f)
        for f in efs:
            if f not in seen:
                report.add("local-surjectivity", (k,))
        images[k] = (rls, src, tgt)

    done = []
    for k1, (rls1, src1, mid1) in images.items():
        if src1.enriched in done:
            continue
        done.append(src1.enriched)
        fi = enriched_functor_from_rlax(identity_rlax(src1.module), src1, src1)
        ref = identity_enriched_functor(src1.enriched)
        if fi.obj_map != ref.obj_map or fi.components != ref.components:
            report.add("identity-preservation", (k1,))
    for k1, (rls1, src1, mid) in images.items():
        for k2, (rls2, mid2, tgt2) in images.items():
            if mid.module != mid2.module:
                continue
            for f1 in rls1:
                for f2 in rls2:
                    lhs = enriched_functor_from_rlax(
                        compose_rlax(f2, f1), src1, tgt2
                    )
                    rhs = _computed(compose_enriched_functors(
                        enriched_functor_from_rlax(f2, mid2, tgt2),
                        enriched_functor_from_rlax(f1, src1, mid),
                    ))
                    if lhs.obj_map != rhs.obj_map or lhs.components != rhs.components:
                        report.add("composition-preservation", (k1, k2))
    return report
