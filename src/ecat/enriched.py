"""Categories enriched in a finite monoidal category.

Hom objects, identity elements and composition morphisms are stored as
explicit tables over the enriching base. Every construction here keeps the
base non-strict: unitors and associators are inserted explicitly. Each
``EnrichedCategory`` keeps its underlying category, built once, for all readers.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from ecat.core import (
    FinCategory,
    Functor,
    LazyPairTable,
    NatTransf,
    ProductMapping,
    ProductSequence,
    _search,
    hcomp_nats,
    kept,
    labelled_bifunctor,
    labelled_category,
    opposite_category,
    product_category,
    vcomp_nats,
)
from ecat.monoidal import (
    BraidedStructure,
    DrinfeldCenter,
    LaxMonoidalFunctor,
    LaxMonoidalNat,
    MonoidalCategory,
    _expect,
    _is_monoidal,
    check_lax_monoidal_functor,
    check_lax_monoidal_nat,
    compose_lax,
    find_inverse,
    identity_lax,
    identity_lax_nat,
    inv,
    product_lax,
    product_monoidal,
    reversed_monoidal,
    strict_monoidal,
    swap_lax,
    trivial_monoidal,
    unit_pick_lax,
)
from ecat.report import Budget, StructureError, ValidationReport


@dataclass(frozen=True, eq=True)
class EnrichedCategory:
    """A category enriched in base."""

    base: MonoidalCategory
    n_objects: int
    hom_obj: Mapping  # (x,y) -> object of base
    ident: Mapping  # x -> morphism 1 -> hom(x,x)
    comp: Mapping  # (x,y,z) -> morphism hom(y,z)@hom(x,y) -> hom(x,z)
    _kept: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
    if not typed or (c.thin and _is_monoidal(m)):
        return report  # on a thin base the laws below equate parallel morphisms

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


@kept
def _thin_host(e: EnrichedCategory) -> bool:
    """Whether the base category of e is thin, the base passes
    ``monoidal._is_monoidal`` and e passes ``check_enriched``; False when a
    check raises.

    This is the precondition of the centers' square gates: on such an e
    every composite of its identity and composition cells with the base
    tensor, associators and unitors is defined, and any two parallel
    composites are equal (Lawvere 1973; Kelly 1982 §1). So a square built
    from them commutes once its other cells are typed (``_typed_cells``).
    These gates read it, directly or through ``_typed_cells``:

    - ``centers._bracket_search``: the E0 sliding squares of
      ``bracket_family`` (its functors' components, ``_half_braiding_cells``
      and the Z1 forgetful functor, typed once per functor and once per
      center in ``condition_star``) and the E1 ones of ``bracket_pair``
      (``_bracket_cells``), with the factorings of ``_terminal_bracket``;
    - ``enriched_monoidal.check_enriched_half_braiding``: its naturality
      squares;
    - ``centers._nat_report``: the naturality squares of the verifiers'
      rho and mediator nats, after ``_check_enriched_nat_typing``, where
      the verifier does not decide the whole nat;
    - ``centers._ev_typed``: the action of a center on its host, which
      types the unmaterialised composite that rho starts from;
    - ``centers._UniversalCheck.run``: rho whole, its background and
      elements typed against the object maps of that composite, and each
      mediator candidate, typed by its search domain;
    - ``centers._comparison_report``: the composition law of the
      verifiers' comparison functor.
    """
    try:
        return e.base.base.thin and _is_monoidal(e.base) and check_enriched(e).ok
    except Exception:
        return False


def _typed_cells(e: EnrichedCategory, cells) -> bool:
    """Whether e passes ``_thin_host`` and each (f, dom, cod) of the iterable
    cells is a morphism dom -> cod of the base category; False when reading
    a cell raises, so that the caller's own loop reads it again and raises."""
    if not _thin_host(e):
        return False
    c = e.base.base
    n, doms, cods = c.n_morphisms, c.dom, c.cod
    try:
        return all(0 <= f < n and doms[f] == dom and cods[f] == cod for f, dom, cod in cells)
    except Exception:
        return False


def _functor_cells(f: LaxMonoidalFunctor):
    """(f(k), f(dom k), f(cod k)) for each morphism k of the source of f: f
    is typed on morphisms when each is a morphism of that type."""
    s = f.source.base
    return ((f.on_mor(k), f.on_obj(s.dom[k]), f.on_obj(s.cod[k])) for k in s.morphisms())


def _lax_cells(f: LaxMonoidalFunctor):
    """f on each morphism (``_functor_cells``), its unit cell 1 -> F(1) and
    (f2(x, y), Fx @ Fy, F(x @ y)) for each object pair (x, y) of the source
    of f: every cell of f, each as (f, dom, cod) for ``_typed_cells``."""
    s, t = f.source, f.target
    yield from _functor_cells(f)
    yield f.unit_cell, t.unit, f.on_obj(s.unit)
    for x, y in itertools.product(s.base.objects(), repeat=2):
        yield f.m2(x, y), t.t_obj(f.on_obj(x), f.on_obj(y)), f.on_obj(s.t_obj(x, y))


def _enriched_functor_cells(f: EnrichedFunctor):
    """(f(x, y), bg(hom(x, y)), hom(Fx, Fy)) for each object pair (x, y) of
    the source of f, in order, with bg its background: its components, each
    as (f, dom, cod) for ``_typed_cells``. Nothing is read before the first
    cell is asked for."""
    at, obj, bg_obj = f.components, f.obj_map, f.background.functor.obj_map
    hom, hom2 = f.source.hom_obj, f.target.hom_obj
    for x, y in itertools.product(f.source.objects(), repeat=2):
        yield at[(x, y)], bg_obj[hom[(x, y)]], hom2[(obj[x], obj[y])]


def _half_braiding_cells(e: EnrichedCategory, z1: DrinfeldCenter):
    """The half-braiding of each object a of the center z1 at each hom
    object h of e, h@a -> a@h with a its forgetful image, each as
    (f, dom, cod) for ``_typed_cells``. With the components of two
    endofunctors and z1's forgetful functor on morphisms, these are the
    cells that the E0 sliding squares and factorings of families between
    those endofunctors read besides a candidate's components
    (``centers.bracket_family``). Nothing is read before the first cell is
    asked for."""
    m = e.base
    fwd = z1.forgetful
    # every hom object is read by check_enriched
    homs = {e.hom(x, y) for x, y in itertools.product(e.objects(), repeat=2)}
    for i, (_, hb) in enumerate(z1.object_data):
        for h in homs:
            yield hb.components[h], m.t_obj(h, fwd.on_obj(i)), m.t_obj(fwd.on_obj(i), h)


def _bracket_cells(em, oi: tuple, oj: tuple):
    """The cells that the E1 sliding squares and factorings of bracket pairs
    from oi = (x, hbx) to oj = (y, hby) read besides a candidate zeta and the
    inclusion of the transparent objects on morphisms, each as
    (f, dom, cod) for ``_typed_cells``: at each object z of the host e of
    em, hbx[z]: 1 -> hom(z@x, x@z), hby[z]: 1 -> hom(z@y, y@z) and the
    tensor cells at (z, x, z, y) and (x, z, y, z) (``centers.bracket_pair``).
    Nothing is read before the first cell is asked for."""
    e = em.host
    m = e.base
    t = em.t
    (x, hbx), (y, hby) = oi, oj
    for z in e.objects():
        yield hbx.components[z], m.unit, e.hom(t(z, x), t(x, z))
        yield hby.components[z], m.unit, e.hom(t(z, y), t(y, z))
        yield (em.t_cell(z, x, z, y), m.t_obj(e.hom(z, z), e.hom(x, y)),
               e.hom(t(z, x), t(z, y)))
        yield (em.t_cell(x, z, y, z), m.t_obj(e.hom(x, y), e.hom(z, z)),
               e.hom(t(x, z), t(y, z)))


@dataclass(frozen=True, eq=True)
class UnderlyingResult:
    """The underlying ordinary category of an enriched category, a labelled
    presentation (``core.labelled_category``).

    Morphisms x -> y are the base morphisms 1 -> hom(x,y), enumerated in
    lexicographic (x, y, base morphism) order.
    """

    cat: FinCategory
    elements: tuple  # morphism index -> (x, y, base morphism 1 -> hom(x,y))
    index: dict  # (x, y, base morphism) -> morphism index


@kept
def underlying_category(e: EnrichedCategory) -> UnderlyingResult:
    """The underlying category of e."""
    m = e.base
    c = m.base
    elements = [
        (x, y, f)
        for x, y in itertools.product(e.objects(), repeat=2)
        for f in c.hom(m.unit, e.hom(x, y))
    ]
    lam_inv = inv(m, m.l(m.unit))
    cat, index = labelled_category(
        e.n_objects, elements, e.one,
        lambda g, f: c.comp_many(e.c(f[0], f[1], g[1]), m.t_mor(g[2], f[2]), lam_inv),
    )
    return UnderlyingResult(cat, tuple(elements), index)


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
        # the composite at (x, y, z) is e's at (z, y, x): hom(y, x) @ hom(z, y) -> hom(z, x)
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
    if report.ok and _check_enriched_functor_laws(f, report):
        _check_enriched_functor_composition(f, report)
    return report


def _check_enriched_functor_laws(f: EnrichedFunctor, report: ValidationReport) -> bool:
    """Add to report the component typing of f and, when every component
    is typed, its identity law; return whether every component is typed.

    The background is taken as a valid lax monoidal functor. The
    composition law is left to ``_check_enriched_functor_composition``, so
    that a caller that can decide it otherwise (``check_enriched_monoidal``
    on a thin base) skips only that loop.
    """
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
        return False
    for x in e.objects():
        lhs = c.comp_many(f.at(x, x), bg.on_mor(e.one(x)), bg.unit_cell)
        if lhs != e2.one(f.on_obj(x)):
            report.add("enriched-functor-identity", (x,))
    return True


def _check_enriched_functor_composition(f: EnrichedFunctor, report: ValidationReport) -> None:
    """Add to report every (x, y, z) whose composition square of f fails,
    given typed components and a valid lax monoidal background."""
    e, e2 = f.source, f.target
    bg = f.background
    c = e2.base.base
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


def _enriched_functor_search(r: LaxMonoidalFunctor, src: EnrichedCategory,
                             tgt: EnrichedCategory, budget: Budget, iso: bool = False):
    """Yield the enriched functors src -> tgt along the background r.

    The object map comes first, in lexicographic order, then one hom
    component per pair (x, y) in order, ranging over the base morphisms
    r(hom(x, y)) -> hom(Fx, Fy). An object pair with no such morphism
    prunes the object map; the identity law at x and the composition law at
    (x, y, z) are checked once their components are assigned. r is taken
    to be a valid lax monoidal functor, and the background half of each law
    is composed once per search. With iso set, object maps are bijections
    and components invertible.
    """
    m = tgt.base
    c = m.base
    comp, t_mor, tgt_one, tgt_comp = c.comp, m.t_mor, tgt.ident, tgt.comp
    n = src.n_objects
    keys = list(itertools.product(src.objects(), repeat=2))
    r_mor, r_mult, hom = r.functor.mor_map, r.mult, src.hom_obj
    r_hom = {k: r.on_obj(hom[k]) for k in keys}

    def pool(x, y, a):
        return [
            f for f in c.hom(r_hom[(x, y)], tgt.hom(a[x], a[y]))
            if not iso or find_inverse(c, f) is not None
        ]

    def domain(i, a):
        return tgt.objects() if i < n else pool(*keys[i - n], a)

    # The component at (x, y) is variable n + x*n + y. Each law is listed
    # under the last variable it reads, with its background half composed.
    units = [[] for _ in range(n + len(keys))]
    comps = [[] for _ in range(n + len(keys))]
    for x in range(n):
        xx = n + x * n + x
        units[xx].append((x, xx, comp(r_mor[src.ident[x]], r.unit_cell)))
    for x, y, z in itertools.product(range(n), repeat=3):
        xz, yz, xy = n + x * n + z, n + y * n + z, n + x * n + y
        bg = comp(r_mor[src.comp[(x, y, z)]], r_mult[(hom[(y, z)], hom[(x, y)])])
        comps[max(xz, yz, xy)].append((x, y, z, xz, yz, xy, bg))

    def laws(a, units, comps):
        """The identity laws F(x, x) . r(one(x)) . r0 = one(Fx) and the
        composition laws F(x, z) . r(c(x, y, z)) . r2 = c(Fx, Fy, Fz) .
        (F(y, z) @ F(x, y)) listed under one variable."""
        return all(comp(a[xx], bg) == tgt_one[a[x]] for x, xx, bg in units) and all(
            comp(a[xz], bg) == comp(tgt_comp[(a[x], a[y], a[z])], t_mor(a[yz], a[xy]))
            for x, y, z, xz, yz, xy, bg in comps
        )

    constraints = [(x, lambda a, x=x: a[x] not in a[:x]) for x in range(n)] if iso else []
    constraints += [(max(x, y), lambda a, k=(x, y): bool(pool(*k, a))) for x, y in keys]
    constraints += [
        (i, lambda a, u=u, c3=c3: laws(a, u, c3))
        for i, (u, c3) in enumerate(zip(units, comps)) if u or c3
    ]
    for a in _search(n + len(keys), domain, constraints, budget):
        yield EnrichedFunctor(r, src, tgt, a[:n], dict(zip(keys, a[n:])))


def identity_enriched_functor(e: EnrichedCategory) -> EnrichedFunctor:
    comps = {
        (x, y): e.base.base.identity[e.hom(x, y)]
        for x, y in itertools.product(e.objects(), repeat=2)
    }
    return EnrichedFunctor(
        identity_lax(e.base), e, e, tuple(e.objects()), comps
    )


def compose_enriched_functors(g: EnrichedFunctor, f: EnrichedFunctor) -> EnrichedFunctor:
    """g after f. Its components, g(Fx, Fy) . g^(f(x, y)) at (x, y), are a
    ``LazyPairTable``, as are the mult cells of its background
    (``compose_lax``), so each is computed when it is first read.
    ``_computed`` reads them all."""
    comp = g.target.base.base.comp

    def component(x: int, y: int) -> int:
        return comp(g.at(f.on_obj(x), f.on_obj(y)), g.background.on_mor(f.at(x, y)))

    return EnrichedFunctor(
        compose_lax(g.background, f.background),
        f.source, g.target,
        tuple(g.on_obj(f.on_obj(x)) for x in f.source.objects()),
        LazyPairTable(f.source.n_objects, component),
    )


def _computed(f: EnrichedFunctor) -> EnrichedFunctor:
    """f after reading each mult cell of its background and then each of
    its components, in (x, y) order, so that a composite with an entry
    that cannot be computed raises here, where the composite built as
    dicts raised."""
    dict(f.background.mult)
    dict(f.components)
    return f


@dataclass(frozen=True, eq=True)
class EnrichedNat:
    background: LaxMonoidalNat
    source: EnrichedFunctor
    target: EnrichedFunctor
    components: dict  # x -> morphism 1_B -> hom'(Fx, Gx)

    def at(self, x: int) -> int:
        return self.components[x]


def _enriched_nat(source: EnrichedFunctor, target: EnrichedFunctor,
                  bg_components, components: dict) -> EnrichedNat:
    """source => target over the monoidal nat of their backgrounds."""
    s, t = source.background, target.background
    bg = LaxMonoidalNat(s, t, NatTransf(s.functor, t.functor, tuple(bg_components)))
    return EnrichedNat(bg, source, target, components)


def check_enriched_nat(n: EnrichedNat) -> ValidationReport:
    report = ValidationReport("enriched natural transformation")
    if _check_enriched_nat_typing(n, report):
        _check_enriched_nat_squares(n, report)
    return report


def _check_enriched_nat_typing(n: EnrichedNat, report: ValidationReport) -> bool:
    """Add to report the violations of n's background (``check_lax_monoidal_nat``)
    and of its component typing; return whether there are none, that is
    whether the naturality squares are to be checked.

    The squares are left to ``_check_enriched_nat_squares``, so that a caller
    that can decide them otherwise (``centers._nat_report`` on a thin host)
    skips only that loop."""
    report.extend(check_lax_monoidal_nat(n.background))
    if not report.ok:
        return False
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
    return typed


def _check_enriched_nat_squares(n: EnrichedNat, report: ValidationReport) -> None:
    """Add to report every (x, y) whose naturality square of n fails, by
    either route, given a valid background and typed components."""
    for x, y in itertools.product(n.source.source.objects(), repeat=2):
        if not _nat_square(n, x, y):
            report.add("enriched-nat-square", (x, y))
        if not _nat_hom_route(n, x, y):
            report.add("enriched-nat-square-hom-route", (x, y))


def _nat_square(n: EnrichedNat, x: int, y: int) -> bool:
    """Whether the naturality square of n at the object pair (x, y)
    commutes."""
    f, g = n.source, n.target
    e2 = f.target
    m2 = e2.base
    c = m2.base
    h = f.source.hom(x, y)
    fx, gy = f.on_obj(x), g.on_obj(y)
    lhs = c.comp_many(
        e2.c(fx, f.on_obj(y), gy),
        m2.t_mor(n.at(y), f.at(x, y)),
        inv(m2, m2.l(f.background.on_obj(h))),
    )
    rhs = c.comp_many(
        e2.c(fx, g.on_obj(x), gy),
        m2.t_mor(g.at(x, y), n.at(x)),
        inv(m2, m2.r(g.background.on_obj(h))),
        n.background.at(h),
    )
    return lhs == rhs


def _nat_hom_route(n: EnrichedNat, x: int, y: int) -> bool:
    """Whether the naturality square of n at (x, y), routed through
    ``hom_post`` and ``hom_pre``, commutes."""
    f, g = n.source, n.target
    e, e2 = f.source, f.target
    c = e2.base.base
    lhs = c.comp(
        hom_post(e2, f.on_obj(x), f.on_obj(y), g.on_obj(y), n.at(y)),
        f.at(x, y),
    )
    rhs = c.comp_many(
        hom_pre(e2, f.on_obj(x), g.on_obj(x), g.on_obj(y), n.at(x)),
        g.at(x, y),
        n.background.at(e.hom(x, y)),
    )
    return lhs == rhs


def identity_enriched_nat(f: EnrichedFunctor) -> EnrichedNat:
    comps = {x: f.target.one(f.on_obj(x)) for x in f.source.objects()}
    return EnrichedNat(identity_lax_nat(f.background), f, f, comps)


def vcomp_enriched_nats(beta: EnrichedNat, alpha: EnrichedNat) -> EnrichedNat:
    """beta after alpha, componentwise composition in the underlying sense."""
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
    hf = _computed(compose_enriched_functors(h, f))
    kg = _computed(compose_enriched_functors(k, g))
    bg = LaxMonoidalNat(
        hf.background, kg.background, hcomp_nats(eta.background.nat, xi.background.nat)
    )
    return EnrichedNat(bg, hf, kg, comps)


def underlying_functor(f: EnrichedFunctor) -> Functor:
    us = underlying_category(f.source)
    ut = underlying_category(f.target)
    c = f.target.base.base
    mor_map = []
    for x, y, g in us.elements:
        img = c.comp_many(f.at(x, y), f.background.on_mor(g), f.background.unit_cell)
        mor_map.append(ut.index[(f.on_obj(x), f.on_obj(y), img)])
    return Functor(us.cat, ut.cat, f.obj_map, tuple(mor_map))


def underlying_nat(n: EnrichedNat) -> NatTransf:
    ut = underlying_category(n.source.target)
    comps = tuple(
        ut.index[(n.source.on_obj(x), n.target.on_obj(x), n.at(x))]
        for x in n.source.source.objects()
    )
    return NatTransf(underlying_functor(n.source), underlying_functor(n.target), comps)


def cartesian_product_enriched(
    e1: EnrichedCategory, e2: EnrichedCategory
) -> EnrichedCategory:
    """The product category, enriched over the product base, as views."""
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
    return EnrichedCategory(trivial_monoidal(), 1, {(0, 0): 0}, {0: 0}, {(0, 0, 0): 0})


def object_functor(e: EnrichedCategory, x: int) -> EnrichedFunctor:
    """The enriched functor * -> e picking the object x."""
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
        _computed(compose_enriched_functors(gcheck, phi_star)),
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
    return _finset(tuple(sizes))[0]


def _finset(sizes: tuple) -> tuple:
    """The skeletal finite-set category on sizes, its morphisms in index
    order, each as (source size index, target size index, function table),
    and the number of each."""
    mors = [
        (i, j, fn)
        for i, si in enumerate(sizes)
        for j, sj in enumerate(sizes)
        for fn in itertools.product(range(sj), repeat=si)
    ]
    cat, index = labelled_category(
        len(sizes), mors, lambda i: tuple(range(sizes[i])),
        lambda g, f: tuple(g[2][v] for v in f[2]),
    )
    return cat, mors, index


def finset_monoidal(sizes: tuple) -> MonoidalCategory:
    """Cartesian products of finite sets; sizes must be closed under product.

    The tensor of sets of sizes m and n has size m*n, with pairs (p, q)
    encoded as p*n + q; this makes the structure strict on indices.
    """
    sizes = tuple(sizes)
    c, mors, index = _finset(sizes)
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
    obj_map = tuple(size_index[si * sj] for si in sizes for sj in sizes)
    tensor = labelled_bifunctor(
        c, mors, index, obj_map,
        lambda f, g: tuple(p * sizes[g[1]] + q for p in f[2] for q in g[2]),
    )
    return strict_monoidal(c, tensor, size_index[1])


def finset_braiding(m: MonoidalCategory, sizes: tuple):
    """The symmetric swap on the skeletal finite-set category."""
    sizes = tuple(sizes)
    index = _finset(sizes)[2]
    braiding = {}
    for i, j in itertools.product(range(len(sizes)), repeat=2):
        si, sj = sizes[i], sizes[j]
        fn = tuple((k % sj) * si + (k // sj) for k in range(si * sj))
        braiding[(i, j)] = index.get((m.t_obj(i, j), m.t_obj(j, i), fn))
    return BraidedStructure(m, braiding, True)


def hom_set_lax_functor(m: MonoidalCategory, sizes: tuple) -> LaxMonoidalFunctor:
    """The functor A(1,-) landing in skeletal finite sets.

    sizes must contain the cardinality of every hom set A(1,x), closed
    under products with a unit size 1.
    """
    target = finset_monoidal(sizes)
    sizes = tuple(sizes)
    size_index = {s: i for i, s in enumerate(sizes)}
    mor_index = _finset(sizes)[2]

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
