"""Categories enriched in a finite monoidal category.

Hom objects, identity elements and composition morphisms are stored as
explicit tables over the enriching base. Every construction here keeps the
base non-strict: unitors and associators are inserted explicitly.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from ecat.core import (
    FinCategory,
    Functor,
    NatTransf,
    ProductMapping,
    ProductSequence,
    identity_functor,
    product_category,
)
from ecat.monoidal import (
    LaxMonoidalFunctor,
    LaxMonoidalNat,
    MonoidalCategory,
    _expect,
    check_lax_monoidal_functor,
    check_lax_monoidal_nat,
    compose_lax,
    identity_lax,
    identity_lax_nat,
    inv,
    product_lax,
    reversed_monoidal,
    strict_monoidal,
)
from ecat.report import StructureError, ValidationReport


@dataclass(frozen=True, eq=True)
class EnrichedCategory:
    base: MonoidalCategory
    n_objects: int
    hom_obj: Mapping  # (x,y) -> object of base
    ident: Mapping  # x -> morphism 1 -> hom(x,x)
    comp: Mapping  # (x,y,z) -> morphism hom(y,z)@hom(x,y) -> hom(x,z)

    def objects(self):
        return range(self.n_objects)

    def hom(self, x: int, y: int) -> int:
        return self.hom_obj[(x, y)]

    def one(self, x: int) -> int:
        return self.ident[x]

    def c(self, x: int, y: int, z: int) -> int:
        return self.comp[(x, y, z)]


def check_enriched(e: EnrichedCategory) -> ValidationReport:
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


@dataclass(frozen=True, eq=True)
class UnderlyingResult:
    """The underlying ordinary category of an enriched category.

    Morphisms x -> y are the base morphisms 1 -> hom(x,y), enumerated in
    lexicographic (x, y, base morphism) order.
    """

    enriched: EnrichedCategory
    cat: FinCategory
    elements: tuple  # morphism index -> (x, y, base morphism 1 -> hom(x,y))
    index: dict  # (x, y, base morphism) -> morphism index

    def elem(self, k: int):
        return self.elements[k]


def underlying_category(e: EnrichedCategory) -> UnderlyingResult:
    m = e.base
    c = m.base
    elements = []
    for x, y in itertools.product(e.objects(), repeat=2):
        for f in c.hom(m.unit, e.hom(x, y)):
            elements.append((x, y, f))
    index = {t: k for k, t in enumerate(elements)}
    dom = tuple(t[0] for t in elements)
    cod = tuple(t[1] for t in elements)
    identity = tuple(index[(x, x, e.one(x))] for x in e.objects())
    compose = {}
    lam_inv = inv(m, m.l(m.unit))
    for kf, (x, y, f) in enumerate(elements):
        for kg, (yp, z, g) in enumerate(elements):
            if yp != y:
                continue
            h = c.comp_many(e.c(x, y, z), m.t_mor(g, f), lam_inv)
            compose[(kg, kf)] = index[(x, z, h)]
    cat = FinCategory(e.n_objects, dom, cod, identity, compose)
    return UnderlyingResult(e, cat, tuple(elements), index)


def hom_post(e: EnrichedCategory, w: int, y: int, z: int, g: int) -> int:
    """hom(w, g): hom(w,y) -> hom(w,z) for an element g: 1 -> hom(y,z)."""
    m = e.base
    c = m.base
    h = e.hom(w, y)
    return c.comp_many(e.c(w, y, z), m.t_mor(g, c.identity[h]), inv(m, m.l(h)))


def hom_pre(e: EnrichedCategory, x: int, y: int, w: int, f: int) -> int:
    """hom(f, w): hom(y,w) -> hom(x,w) for an element f: 1 -> hom(x,y)."""
    m = e.base
    c = m.base
    h = e.hom(y, w)
    return c.comp_many(e.c(x, y, w), m.t_mor(c.identity[h], f), inv(m, m.r(h)))


def hom_bifunctor(e: EnrichedCategory) -> Functor:
    """The functor underlying(e)^op x underlying(e) -> base on hom objects."""
    from ecat.core import opposite_category

    u = underlying_category(e)
    src = product_category(opposite_category(u.cat), u.cat)
    c = e.base.base
    n = e.n_objects
    obj_map = tuple(e.hom(x, y) for x in e.objects() for y in e.objects())
    mor_map = []
    for kf in range(u.cat.n_morphisms):
        x, y, f = u.elements[kf]
        for kg in range(u.cat.n_morphisms):
            w, z, g = u.elements[kg]
            # hom(f, g): hom(y, w) -> hom(x, z)
            mor_map.append(c.comp(hom_post(e, x, w, z, g), hom_pre(e, x, y, w, f)))
    return Functor(src, c, obj_map, tuple(mor_map))


def opposite_enriched(e: EnrichedCategory) -> EnrichedCategory:
    """The opposite category, enriched over the reversed base."""
    rev = reversed_monoidal(e.base)
    hom_obj = {(x, y): e.hom(y, x) for x, y in itertools.product(e.objects(), repeat=2)}
    comp = {}
    for x, y, z in itertools.product(e.objects(), repeat=3):
        # hom^op(y,z) @rev hom^op(x,y) = hom(x,y) @ hom(y,x)... over rev,
        # the source object equals hom(y,x) @rev... spelled via e's tables:
        comp[(x, y, z)] = e.c(z, y, x)
    return EnrichedCategory(rev, e.n_objects, hom_obj, dict(e.ident), comp)


@dataclass(frozen=True, eq=True)
class EnrichedFunctor:
    background: LaxMonoidalFunctor  # between the bases
    source: EnrichedCategory
    target: EnrichedCategory
    obj_map: Sequence[int]
    components: Mapping  # (x,y) -> background(hom(x,y)) -> hom'(Fx,Fy)

    def on_obj(self, x: int) -> int:
        return self.obj_map[x]

    def at(self, x: int, y: int) -> int:
        return self.components[(x, y)]


def check_enriched_functor(f: EnrichedFunctor) -> ValidationReport:
    report = ValidationReport("enriched functor")
    report.extend(check_lax_monoidal_functor(f.background))
    if not report.ok:
        return report
    return _check_enriched_functor_laws(f, report)


def _check_enriched_functor_laws(
    f: EnrichedFunctor, report: ValidationReport
) -> ValidationReport:
    """Add to report the enriched-functor laws of f (component typing, then
    identity and composition), taking its background as a valid lax
    monoidal functor."""
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


def identity_enriched_functor(e: EnrichedCategory) -> EnrichedFunctor:
    comps = {
        (x, y): e.base.base.identity[e.hom(x, y)]
        for x, y in itertools.product(e.objects(), repeat=2)
    }
    return EnrichedFunctor(
        identity_lax(e.base), e, e, tuple(e.objects()), comps
    )


def compose_enriched_functors(g: EnrichedFunctor, f: EnrichedFunctor) -> EnrichedFunctor:
    c = g.target.base.base
    comps = {}
    for x, y in itertools.product(f.source.objects(), repeat=2):
        comps[(x, y)] = c.comp(
            g.at(f.on_obj(x), f.on_obj(y)),
            g.background.on_mor(f.at(x, y)),
        )
    return EnrichedFunctor(
        compose_lax(g.background, f.background),
        f.source, g.target,
        tuple(g.on_obj(f.on_obj(x)) for x in f.source.objects()),
        comps,
    )


@dataclass(frozen=True, eq=True)
class EnrichedNat:
    background: LaxMonoidalNat
    source: EnrichedFunctor
    target: EnrichedFunctor
    components: dict  # x -> morphism 1_B -> hom'(Fx, Gx)

    def at(self, x: int) -> int:
        return self.components[x]


def check_enriched_nat(n: EnrichedNat) -> ValidationReport:
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


def identity_enriched_nat(f: EnrichedFunctor) -> EnrichedNat:
    comps = {x: f.target.one(f.on_obj(x)) for x in f.source.objects()}
    return EnrichedNat(identity_lax_nat(f.background), f, f, comps)


def vcomp_enriched_nats(beta: EnrichedNat, alpha: EnrichedNat) -> EnrichedNat:
    """beta after alpha, componentwise composition in the underlying sense."""
    from ecat.core import vcomp_nats

    f = alpha.source
    k = beta.target
    e2 = f.target
    m2 = e2.base
    c = m2.base
    comps = {}
    for x in f.source.objects():
        comps[x] = c.comp_many(
            e2.c(f.on_obj(x), alpha.target.on_obj(x), k.on_obj(x)),
            m2.t_mor(beta.at(x), alpha.at(x)),
            inv(m2, m2.l(m2.unit)),
        )
    bg = LaxMonoidalNat(
        alpha.background.source, beta.background.target,
        vcomp_nats(beta.background.nat, alpha.background.nat),
    )
    return EnrichedNat(bg, f, k, comps)


def hcomp_enriched_nats(eta: EnrichedNat, xi: EnrichedNat) -> EnrichedNat:
    """eta * xi for xi: F => G (lower) and eta: H => K (upper)."""
    from ecat.core import hcomp_nats

    f, g = xi.source, xi.target
    h, k = eta.source, eta.target
    e3 = k.target
    c = e3.base.base
    comps = {}
    for x in f.source.objects():
        # component at x: K(xi_x) . eta_{F(x)} in the underlying category
        kxi = c.comp_many(
            k.at(f.on_obj(x), g.on_obj(x)),
            k.background.on_mor(xi.at(x)),
            k.background.unit_cell,
        )
        comps[x] = c.comp_many(
            e3.c(
                h.on_obj(f.on_obj(x)), k.on_obj(f.on_obj(x)), k.on_obj(g.on_obj(x))
            ),
            e3.base.t_mor(kxi, eta.at(f.on_obj(x))),
            inv(e3.base, e3.base.l(e3.base.unit)),
        )
    bg = LaxMonoidalNat(
        compose_lax(h.background, f.background),
        compose_lax(k.background, g.background),
        hcomp_nats(eta.background.nat, xi.background.nat),
    )
    return EnrichedNat(bg, compose_enriched_functors(h, f), compose_enriched_functors(k, g), comps)


def underlying_functor(
    f: EnrichedFunctor, us: UnderlyingResult | None = None, ut: UnderlyingResult | None = None
) -> Functor:
    us = us or underlying_category(f.source)
    ut = ut or underlying_category(f.target)
    c = f.target.base.base
    mor_map = []
    for x, y, g in us.elements:
        img = c.comp_many(f.at(x, y), f.background.on_mor(g), f.background.unit_cell)
        mor_map.append(ut.index[(f.on_obj(x), f.on_obj(y), img)])
    return Functor(us.cat, ut.cat, f.obj_map, tuple(mor_map))


def underlying_nat(
    n: EnrichedNat, us: UnderlyingResult | None = None, ut: UnderlyingResult | None = None
) -> NatTransf:
    us = us or underlying_category(n.source.source)
    ut = ut or underlying_category(n.source.target)
    comps = tuple(
        ut.index[(n.source.on_obj(x), n.target.on_obj(x), n.at(x))]
        for x in n.source.source.objects()
    )
    return NatTransf(
        underlying_functor(n.source, us, ut),
        underlying_functor(n.target, us, ut),
        comps,
    )


def cartesian_product_enriched(
    e1: EnrichedCategory, e2: EnrichedCategory
) -> EnrichedCategory:
    """The product category, enriched over the product base, as views."""
    from ecat.monoidal import product_monoidal

    n1, n2 = e1.n_objects, e2.n_objects
    b1, b2 = e1.base.base, e2.base.base
    return EnrichedCategory(
        product_monoidal(e1.base, e2.base),
        n1 * n2,
        ProductMapping([(e1.hom_obj, n1, b1.n_objects), (e2.hom_obj, n2, b2.n_objects)], 2),
        ProductMapping([(e1.ident, n1, b1.n_morphisms), (e2.ident, n2, b2.n_morphisms)], 1),
        ProductMapping([(e1.comp, n1, b1.n_morphisms), (e2.comp, n2, b2.n_morphisms)], 3),
    )


def star_enriched() -> EnrichedCategory:
    """The one-object enriched category over the trivial base."""
    from ecat.monoidal import trivial_monoidal

    return EnrichedCategory(trivial_monoidal(), 1, {(0, 0): 0}, {0: 0}, {(0, 0, 0): 0})


def object_functor(e: EnrichedCategory, x: int) -> EnrichedFunctor:
    """The enriched functor * -> e picking the object x."""
    from ecat.monoidal import unit_pick_lax

    return EnrichedFunctor(
        unit_pick_lax(e.base), star_enriched(), e, (x,), {(0, 0): e.one(x)}
    )


def product_enriched_functor(f: EnrichedFunctor, g: EnrichedFunctor) -> EnrichedFunctor:
    """F x G between the cartesian product categories, as views."""
    fs, gs = f.source.n_objects, g.source.n_objects
    obj = ProductSequence(
        [(f.obj_map, fs, f.target.n_objects), (g.obj_map, gs, g.target.n_objects)]
    )
    comps = ProductMapping([
        (f.components, fs, f.background.target.base.n_morphisms),
        (g.components, gs, g.background.target.base.n_morphisms),
    ], 2)
    return EnrichedFunctor(
        product_lax(f.background, g.background),
        cartesian_product_enriched(f.source, g.source),
        cartesian_product_enriched(f.target, g.target),
        obj,
        comps,
    )


def swap_enriched_functor(e1: EnrichedCategory, e2: EnrichedCategory) -> EnrichedFunctor:
    """The switching functor e1 x e2 -> e2 x e1."""
    from ecat.monoidal import swap_lax

    src = cartesian_product_enriched(e1, e2)
    tgt = cartesian_product_enriched(e2, e1)
    bg = swap_lax(e1.base, e2.base)
    obj = tuple(
        x2 * e1.n_objects + x1
        for x1 in e1.objects()
        for x2 in e2.objects()
    )
    c = bg.target.base
    comps = {
        (x, y): c.identity[bg.on_obj(src.hom(x, y))]
        for x, y in itertools.product(range(src.n_objects), repeat=2)
    }
    return EnrichedFunctor(bg, src, tgt, obj, comps)


def pushforward(r: LaxMonoidalFunctor, e: EnrichedCategory) -> EnrichedCategory:
    """Transport the enrichment along a lax monoidal functor on the base."""
    if r.direction == "oplax":
        raise StructureError("pushforward needs a lax-direction functor")
    c = r.target.base
    hom_obj = {
        (x, y): r.on_obj(e.hom(x, y))
        for x, y in itertools.product(e.objects(), repeat=2)
    }
    ident = {
        x: c.comp(r.on_mor(e.one(x)), r.unit_cell) for x in e.objects()
    }
    comp = {}
    for x, y, z in itertools.product(e.objects(), repeat=3):
        comp[(x, y, z)] = c.comp(
            r.on_mor(e.c(x, y, z)), r.m2(e.hom(y, z), e.hom(x, y))
        )
    return EnrichedCategory(r.target, e.n_objects, hom_obj, ident, comp)


def pushforward_functor(r: LaxMonoidalFunctor, f: EnrichedFunctor) -> EnrichedFunctor:
    """Pushforward of a functor whose background is the identity."""
    comps = {
        (x, y): r.on_mor(f.at(x, y))
        for x, y in itertools.product(f.source.objects(), repeat=2)
    }
    return EnrichedFunctor(
        identity_lax(r.target),
        pushforward(r, f.source), pushforward(r, f.target),
        f.obj_map, comps,
    )


def pushforward_nat(r: LaxMonoidalFunctor, n: EnrichedNat) -> EnrichedNat:
    f = pushforward_functor(r, n.source)
    g = pushforward_functor(r, n.target)
    comps = {
        x: r.target.base.comp(r.on_mor(n.at(x)), r.unit_cell)
        for x in n.source.source.objects()
    }
    return EnrichedNat(identity_lax_nat(identity_lax(r.target)), f, g, comps)


def nat_pushforward_functor(
    phi: LaxMonoidalNat, e: EnrichedCategory
) -> EnrichedFunctor:
    """The functor phi_*: R_*(e) -> R'_*(e) with components phi at hom objects."""
    comps = {
        (x, y): phi.at(e.hom(x, y))
        for x, y in itertools.product(e.objects(), repeat=2)
    }
    return EnrichedFunctor(
        identity_lax(phi.source.target),
        pushforward(phi.source, e), pushforward(phi.target, e),
        tuple(e.objects()), comps,
    )


def split_functor(f: EnrichedFunctor) -> tuple:
    """An enriched functor as (background, base-identity functor from the
    pushforward of its source)."""
    check = pushforward(f.background, f.source)
    checked = EnrichedFunctor(
        identity_lax(f.background.target), check, f.target, f.obj_map,
        dict(f.components),
    )
    return f.background, checked


def merge_functor(bg: LaxMonoidalFunctor, checked: EnrichedFunctor, source: EnrichedCategory) -> EnrichedFunctor:
    return EnrichedFunctor(bg, source, checked.target, checked.obj_map, dict(checked.components))


def split_nat(n: EnrichedNat) -> tuple:
    """An enriched nat as (background, B-natural transformation between the
    split functors, target corrected along the background pushforward)."""
    _, fcheck = split_functor(n.source)
    _, gcheck = split_functor(n.target)
    phi_star = nat_pushforward_functor(n.background, n.source.source)
    checked = EnrichedNat(
        identity_lax_nat(identity_lax(n.background.source.target)),
        fcheck,
        compose_enriched_functors(gcheck, phi_star),
        dict(n.components),
    )
    return n.background, checked


def merge_nat(
    bg: LaxMonoidalNat, checked: EnrichedNat, f: EnrichedFunctor, g: EnrichedFunctor
) -> EnrichedNat:
    return EnrichedNat(bg, f, g, dict(checked.components))


def finset_skeletal(sizes: tuple) -> FinCategory:
    """Skeletal finite sets with the given underlying sizes as objects.

    Morphisms i -> j are functions between sets of those sizes, encoded
    lexicographically.
    """
    sizes = tuple(sizes)
    mors = _finset_morphisms(sizes)
    index = {t: k for k, t in enumerate(mors)}
    dom = tuple(t[0] for t in mors)
    cod = tuple(t[1] for t in mors)
    identity = tuple(
        index[(i, i, tuple(range(si)))] for i, si in enumerate(sizes)
    )
    compose = {}
    for kf, (i, j, fn) in enumerate(mors):
        for kg, (jp, k, gn) in enumerate(mors):
            if jp != j:
                continue
            compose[(kg, kf)] = index[(i, k, tuple(gn[v] for v in fn))]
    return FinCategory(len(sizes), dom, cod, identity, compose)


def finset_monoidal(sizes: tuple) -> MonoidalCategory:
    """Cartesian products of finite sets; sizes must be closed under product.

    The tensor of sets of sizes m and n has size m*n, with pairs (p, q)
    encoded as p*n + q; this makes the structure strict on indices.
    """
    sizes = tuple(sizes)
    c = finset_skeletal(sizes)
    size_index = {}
    for i, s in enumerate(sizes):
        if s in size_index:
            raise StructureError("duplicate sizes are not allowed")
        size_index[s] = i
    for s, t in itertools.product(sizes, repeat=2):
        if s * t not in size_index:
            raise StructureError(f"sizes not closed under product at {s}*{t}")
    if 1 not in size_index:
        raise StructureError("a unit needs size 1 among the sizes")

    mors = _finset_morphisms(sizes)
    index = {t: k for k, t in enumerate(mors)}
    n = len(sizes)
    obj_map = [0] * (n * n)
    for i, j in itertools.product(range(n), repeat=2):
        obj_map[i * n + j] = size_index[sizes[i] * sizes[j]]
    nm = len(mors)
    mor_map = [0] * (nm * nm)
    for kf, (i1, j1, fn) in enumerate(mors):
        for kg, (i2, j2, gn) in enumerate(mors):
            si2, sj2 = sizes[i2], sizes[j2]
            prod_fn = tuple(
                fn[p] * sj2 + gn[q]
                for p in range(sizes[i1])
                for q in range(si2)
            )
            mor_map[kf * nm + kg] = index[
                (size_index[sizes[i1] * si2], size_index[sizes[j1] * sj2], prod_fn)
            ]
    tensor = Functor(product_category(c, c), c, tuple(obj_map), tuple(mor_map))
    return strict_monoidal(c, tensor, size_index[1])


def finset_braiding(m: MonoidalCategory, sizes: tuple):
    """The symmetric swap on the skeletal finite-set category."""
    from ecat.monoidal import BraidedStructure

    sizes = tuple(sizes)
    c = m.base
    size_index = {s: i for i, s in enumerate(sizes)}
    mors = _finset_morphisms(sizes)
    braiding = {}
    for i, j in itertools.product(range(len(sizes)), repeat=2):
        si, sj = sizes[i], sizes[j]
        fn = tuple(
            (k % sj) * si + (k // sj) for k in range(si * sj)
        )
        target = size_index[si * sj]
        # locate the morphism with this function table
        found = None
        for f in c.hom(m.t_obj(i, j), m.t_obj(j, i)):
            if mors[f][2] == fn:
                found = f
                break
        braiding[(i, j)] = found
    return BraidedStructure(m, braiding, True)


def _finset_morphisms(sizes: tuple) -> list[tuple[int, int, tuple]]:
    """Morphisms of the skeletal finite-set category in index order, each as
    (source size index, target size index, function table)."""
    mors = []
    for i, si in enumerate(sizes):
        for j, sj in enumerate(sizes):
            for fn in itertools.product(range(sj), repeat=si):
                mors.append((i, j, fn))
    return mors


def hom_set_lax_functor(m: MonoidalCategory, sizes: tuple) -> LaxMonoidalFunctor:
    """The functor A(1,-) landing in skeletal finite sets.

    sizes must contain the cardinality of every hom set A(1,x), closed
    under products with a unit size 1.
    """
    target = finset_monoidal(sizes)
    sizes = tuple(sizes)
    size_index = {s: i for i, s in enumerate(sizes)}
    mors = _finset_morphisms(sizes)
    mor_index = {t: k for k, t in enumerate(mors)}

    c = m.base
    hom_sets = {x: list(c.hom(m.unit, x)) for x in c.objects()}
    obj_map = []
    for x in c.objects():
        if len(hom_sets[x]) not in size_index:
            raise StructureError(f"size {len(hom_sets[x])} missing from the target")
        obj_map.append(size_index[len(hom_sets[x])])
    mor_map = []
    for f in c.morphisms():
        x, y = c.dom[f], c.cod[f]
        fn = tuple(hom_sets[y].index(c.comp(f, g)) for g in hom_sets[x])
        mor_map.append(mor_index[(obj_map[x], obj_map[y], fn)])
    functor = Functor(c, target.base, tuple(obj_map), tuple(mor_map))

    unit_elems = hom_sets[m.unit]
    unit_cell = mor_index[(size_index[1], obj_map[m.unit], (unit_elems.index(c.identity[m.unit]),))]
    lam_inv = inv(m, m.l(m.unit))
    mult = {}
    for x, y in itertools.product(c.objects(), repeat=2):
        pairs_target = hom_sets[m.t_obj(x, y)]
        fn = tuple(
            pairs_target.index(c.comp(m.t_mor(f, g), lam_inv))
            for f in hom_sets[x]
            for g in hom_sets[y]
        )
        mult[(x, y)] = mor_index[
            (size_index[len(hom_sets[x]) * len(hom_sets[y])], obj_map[m.t_obj(x, y)], fn)
        ]
    return LaxMonoidalFunctor(m, target, functor, unit_cell, mult, "lax")
