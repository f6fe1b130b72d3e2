"""Enriched monoidal and braided categories over a braided base.

The tensor product is a genuine enriched functor from the cartesian square,
and its background is pinned to the braiding-induced lax structure on the
base tensor functor. Coherence data (associator, unitors, braiding) are
enriched natural transformations whose backgrounds are the base coherence
cells. Every law is validated square by square, with one exception: when
the base is a valid braided monoidal category, the pinned tensor background
is a strong monoidal functor by Joyal–Street, so ``check_enriched_monoidal``
decides it from that fact instead of checking its lax laws again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ecat.core import Functor, NatTransf, _is_product, check_category, product_category
from ecat.monoidal import (
    AlgebraObject,
    BraidedStructure,
    HalfBraidingOrd,
    LaxMonoidalFunctor,
    LaxMonoidalNat,
    MonoidalCategory,
    _expect,
    anti_braiding,
    braided_tensor_lax_structure,
    check_braided,
    check_braided_lax_functor,
    check_half_braiding,
    check_lax_monoidal_functor,
    check_lax_monoidal_nat,
    check_monoidal,
    find_inverse,
    inv,
)
from ecat.enriched import (
    EnrichedCategory,
    EnrichedFunctor,
    EnrichedNat,
    UnderlyingResult,
    _check_enriched_functor_laws,
    cartesian_product_enriched,
    check_enriched,
    check_enriched_functor,
    check_enriched_nat,
    compose_enriched_functors,
    hom_post,
    hom_pre,
    identity_enriched_functor,
    object_functor,
    product_enriched_functor,
    swap_enriched_functor,
    underlying_category,
    underlying_functor,
    underlying_nat,
)
from ecat.report import Budget, StructureError, ValidationReport


@dataclass(frozen=True, eq=True)
class EnrichedMonoidalCategory:
    """An enriched category with a tensor enriched functor and unit.

    The associator and unitor entries are elements: base morphisms from the
    base unit into the relevant hom objects. Their backgrounds are, by
    definition, the coherence cells of the base and are not stored.
    """

    host: EnrichedCategory
    braiding: BraidedStructure  # on host.base
    tensor: EnrichedFunctor  # cartesian square of host -> host
    unit_obj: int
    associator: dict  # (x,y,z) -> 1 -> hom((x@y)@z, x@(y@z))
    left_unitor: tuple  # x -> 1 -> hom(unit@x, x)
    right_unitor: tuple  # x -> 1 -> hom(x@unit, x)

    def pair(self, x: int, y: int) -> int:
        return x * self.host.n_objects + y

    def t(self, x: int, y: int) -> int:
        return self.tensor.on_obj(self.pair(x, y))

    def t_cell(self, x: int, y: int, xp: int, yp: int) -> int:
        """Tensor component hom(x,xp) @ hom(y,yp) -> hom(x@y, xp@yp)."""
        return self.tensor.at(self.pair(x, y), self.pair(xp, yp))

    def a_el(self, x: int, y: int, z: int) -> int:
        return self.associator[(x, y, z)]

    def l_el(self, x: int) -> int:
        return self.left_unitor[x]

    def r_el(self, x: int) -> int:
        return self.right_unitor[x]


def _absorb(report: ValidationReport, sub: ValidationReport, prefix: str) -> bool:
    for v in sub.violations:
        report.add(f"{prefix}:{v.law}", v.instance, v.detail)
    return sub.ok


def associator_nat(em: EnrichedMonoidalCategory) -> EnrichedNat:
    """The associator as an enriched nat @(@x1) => @(1x@)."""
    e = em.host
    n = e.n_objects
    ide = identity_enriched_functor(e)
    left = compose_enriched_functors(em.tensor, product_enriched_functor(em.tensor, ide))
    right = compose_enriched_functors(em.tensor, product_enriched_functor(ide, em.tensor))
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


def _one_sided_unit_functor(em: EnrichedMonoidalCategory, side: str) -> EnrichedFunctor:
    """The functor unit@- (side 'l') or -@unit (side 'r') on the host."""
    e = em.host
    m = e.base
    c = m.base
    u = em.unit_obj
    um = m.unit

    def tgt(a):
        return m.t_obj(um, a) if side == "l" else m.t_obj(a, um)

    obj = tuple(tgt(a) for a in c.objects())
    mor = tuple(
        m.t_mor(c.identity[um], f) if side == "l" else m.t_mor(f, c.identity[um])
        for f in c.morphisms()
    )
    fun = Functor(c, c, obj, mor)
    if side == "l":
        unit_cell = inv(m, m.l(um))
        mult = {
            (a, b): c.comp(inv(m, m.l(m.t_obj(a, b))), m.t_mor(m.l(a), m.l(b)))
            for a, b in itertools.product(c.objects(), repeat=2)
        }
    else:
        unit_cell = inv(m, m.r(um))
        mult = {
            (a, b): c.comp(inv(m, m.r(m.t_obj(a, b))), m.t_mor(m.r(a), m.r(b)))
            for a, b in itertools.product(c.objects(), repeat=2)
        }
    bg = LaxMonoidalFunctor(m, m, fun, unit_cell, mult, "strong")
    comps = {}
    for x, y in itertools.product(e.objects(), repeat=2):
        if side == "l":
            comps[(x, y)] = c.comp(
                em.t_cell(u, x, u, y),
                m.t_mor(e.one(u), c.identity[e.hom(x, y)]),
            )
        else:
            comps[(x, y)] = c.comp(
                em.t_cell(x, u, y, u),
                m.t_mor(c.identity[e.hom(x, y)], e.one(u)),
            )
    obj_map = tuple(em.t(u, x) if side == "l" else em.t(x, u) for x in e.objects())
    return EnrichedFunctor(bg, e, e, obj_map, comps)


def unitor_nat(em: EnrichedMonoidalCategory, side: str) -> EnrichedNat:
    """The left ('l') or right ('r') unitor as an enriched nat to the identity."""
    e = em.host
    m = e.base
    src = _one_sided_unit_functor(em, side)
    ide = identity_enriched_functor(e)
    comps = {}
    nat_comps = []
    for x in e.objects():
        comps[x] = em.l_el(x) if side == "l" else em.r_el(x)
    for a in m.base.objects():
        nat_comps.append(m.l(a) if side == "l" else m.r(a))
    bg = LaxMonoidalNat(
        src.background,
        ide.background,
        NatTransf(src.background.functor, ide.background.functor, tuple(nat_comps)),
    )
    return EnrichedNat(bg, src, ide, comps)


def underlying_monoidal(
    em: EnrichedMonoidalCategory, u: UnderlyingResult | None = None
) -> MonoidalCategory:
    """Extract the underlying monoidal category of the host."""
    e = em.host
    u = u or underlying_category(e)
    m = e.base
    c = m.base
    n = e.n_objects
    mu = u.cat.n_morphisms
    lam_inv = inv(m, m.l(m.unit))
    obj_map = tuple(em.t(i, j) for i in range(n) for j in range(n))
    mor_map = []
    try:
        for x, y, f in u.elements:
            for z, w, g in u.elements:
                h = c.comp_many(em.t_cell(x, z, y, w), m.t_mor(f, g), lam_inv)
                mor_map.append(u.index[(em.t(x, z), em.t(y, w), h)])
        assoc = {
            (i, j, k): u.index[
                (em.t(em.t(i, j), k), em.t(i, em.t(j, k)), em.a_el(i, j, k))
            ]
            for i, j, k in itertools.product(range(n), repeat=3)
        }
        lun = tuple(
            u.index[(em.t(em.unit_obj, x), x, em.l_el(x))] for x in range(n)
        )
        run = tuple(
            u.index[(em.t(x, em.unit_obj), x, em.r_el(x))] for x in range(n)
        )
    except KeyError as bad:
        raise StructureError(f"structure component is not an element: {bad}")
    tensor = Functor(product_category(u.cat, u.cat), u.cat, obj_map, tuple(mor_map))
    return MonoidalCategory(u.cat, tensor, em.unit_obj, assoc, lun, run)


def _tensor_background_is_strong(m: MonoidalCategory) -> bool:
    """Whether m is a monoidal category on a category, with its tensor a
    functor from the tables of ``product_category(m.base, m.base)`` into
    ``m.base``.

    Given a braiding that passes ``check_braided``, this makes m a braided
    monoidal category, so the tensor with its braiding-induced cells
    (``braided_tensor_lax_structure``) is a strong monoidal functor
    (Joyal–Street, Braided tensor categories, 1993, §5) and
    ``check_lax_monoidal_functor`` reports nothing on it. False when a
    condition fails or raises.
    """
    c = m.base
    try:
        return (
            m.tensor.target == c
            and _is_product(m.tensor.source, c, c)
            and check_category(c).ok
            and check_monoidal(m).ok
        )
    except Exception:
        return False


def check_enriched_monoidal(em: EnrichedMonoidalCategory) -> ValidationReport:
    """Every failing instance of the enriched-monoidal laws of em, in a
    fixed order.

    Checked in turn: the host is an enriched category (``host:``); the base
    braiding is a braided structure (``base:``); the tensor background is
    the braiding-induced lax structure on the base tensor; the tensor has
    the cartesian square of the host as source and the host as target; the
    tensor is an enriched functor (``tensor:``); the associator and unitor
    elements are typed, and are enriched natural transformations
    (``associator:``, ``left-unitor:``, ``right-unitor:``); the underlying
    category is monoidal (``underlying:``). A wrong shape or a mistyped
    tensor component or coherence element ends the check there.

    When the braiding passes, the background is the pinned one and
    ``_tensor_background_is_strong`` holds, the base is a braided monoidal
    category and the background a strong monoidal functor (Joyal–Street),
    so only the enriched-functor laws of the tensor are checked. Otherwise
    the tensor goes through ``check_enriched_functor`` in full, which also
    reports ``tensor:`` lax-functor violations of a broken base. The report
    is the same either way.
    """
    report = ValidationReport("enriched monoidal category")
    e = em.host
    m = e.base
    c = m.base
    if not 0 <= em.unit_obj < e.n_objects:
        raise StructureError("unit object out of range")
    if em.braiding.host != m:
        report.add("base-mismatch", ())
        return report
    _absorb(report, check_enriched(e), "host")
    braided = _absorb(report, check_braided(em.braiding), "base")
    pinned = em.tensor.background == braided_tensor_lax_structure(em.braiding)
    if not pinned:
        report.add("tensor-background-convention", ())
    if em.tensor.source != cartesian_product_enriched(e, e) or em.tensor.target != e:
        report.add("tensor-shape", ())
        return report
    if braided and pinned and _tensor_background_is_strong(m):
        tensor_report = _check_enriched_functor_laws(
            em.tensor, ValidationReport("enriched functor")
        )
    else:
        tensor_report = check_enriched_functor(em.tensor)
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

    _absorb(report, check_enriched_nat(associator_nat(em)), "associator")
    _absorb(report, check_enriched_nat(unitor_nat(em, "l")), "left-unitor")
    _absorb(report, check_enriched_nat(unitor_nat(em, "r")), "right-unitor")

    try:
        um = underlying_monoidal(em)
    except StructureError as err:
        report.add("underlying-elements", (), str(err))
        return report
    _absorb(report, check_monoidal(um), "underlying")
    return report


def reversed_enriched_monoidal(
    em: EnrichedMonoidalCategory, use_anti_braiding: bool = False
) -> EnrichedMonoidalCategory:
    """The reversed category: same homs, tensor arguments swapped, over the
    anti-braided base.

    The tensor cells are the original cells composed with the braiding of
    the base. Composing with the anti-braiding instead (use_anti_braiding)
    yields an invalid structure whenever the base braiding is not symmetric;
    the flag exists so that tests can witness that failure.
    """
    e = em.host
    m = e.base
    c = m.base
    n = e.n_objects
    abar = anti_braiding(em.braiding)
    u = underlying_category(e)

    def swap_mor(h1: int, h2: int) -> int:
        return abar.c(h1, h2) if use_anti_braiding else em.braiding.c(h1, h2)

    prod = cartesian_product_enriched(e, e)
    obj_map = tuple(em.t(y, x) for x in range(n) for y in range(n))
    comps = {}
    for p, q in itertools.product(range(n * n), repeat=2):
        (x1, y1), (x2, y2) = divmod(p, n), divmod(q, n)
        comps[(p, q)] = c.comp(
            em.t_cell(y1, x1, y2, x2),
            swap_mor(e.hom(x1, x2), e.hom(y1, y2)),
        )
    tensor = EnrichedFunctor(
        braided_tensor_lax_structure(abar), prod, e, obj_map, comps
    )
    assoc = {}
    for x, y, z in itertools.product(range(n), repeat=3):
        k = u.index[
            (em.t(em.t(z, y), x), em.t(z, em.t(y, x)), em.a_el(z, y, x))
        ]
        k_inv = find_inverse(u.cat, k)
        if k_inv is None:
            raise StructureError(f"associator element not invertible at {(z, y, x)}")
        assoc[(x, y, z)] = u.elements[k_inv][2]
    return EnrichedMonoidalCategory(
        e, abar, tensor, em.unit_obj, assoc, em.right_unitor, em.left_unitor
    )


def one_object_enriched_monoidal(
    alg: AlgebraObject, braiding: BraidedStructure
) -> EnrichedMonoidalCategory:
    """The strict one-object enriched monoidal category of a commutative algebra."""
    m = alg.host
    host = EnrichedCategory(
        m, 1, {(0, 0): alg.carrier}, {0: alg.unit}, {(0, 0, 0): alg.mult}
    )
    tensor = EnrichedFunctor(
        braided_tensor_lax_structure(braiding),
        cartesian_product_enriched(host, host),
        host,
        (0,),
        {(0, 0): alg.mult},
    )
    return EnrichedMonoidalCategory(
        host, braiding, tensor, 0, {(0, 0, 0): alg.unit}, (alg.unit,), (alg.unit,)
    )


@dataclass(frozen=True, eq=True)
class EnrichedMonoidalFunctor:
    """An enriched functor with tensor and unit coherence elements.

    f2 maps an object pair (x,y) to the element 1 -> hom(Fx @ Fy, F(x@y));
    f0 is the element 1 -> hom(unit, F(unit)). Their backgrounds are the
    monoidal structure cells carried by the background functor.
    """

    source: EnrichedMonoidalCategory
    target: EnrichedMonoidalCategory
    functor: EnrichedFunctor
    f2: dict
    f0: int


def tensor_coherence_nat(emf: EnrichedMonoidalFunctor) -> EnrichedNat:
    """f2 as an enriched nat @(FxF) => F@ with background the mult cells."""
    s, t = emf.source, emf.target
    f = emf.functor
    left = compose_enriched_functors(t.tensor, product_enriched_functor(f, f))
    right = compose_enriched_functors(f, s.tensor)
    na = s.host.base.base.n_objects
    comps = []
    for p in left.background.source.base.objects():
        a, b = divmod(p, na)
        comps.append(f.background.m2(a, b))
    bg = LaxMonoidalNat(
        left.background,
        right.background,
        NatTransf(left.background.functor, right.background.functor, tuple(comps)),
    )
    n = s.host.n_objects
    components = {
        x * n + y: emf.f2[(x, y)]
        for x, y in itertools.product(range(n), repeat=2)
    }
    return EnrichedNat(bg, left, right, components)


def unit_coherence_nat(emf: EnrichedMonoidalFunctor) -> EnrichedNat:
    """f0 as an enriched nat unit_M => F . unit_L."""
    s, t = emf.source, emf.target
    f = emf.functor
    left = object_functor(t.host, t.unit_obj)
    right = compose_enriched_functors(f, object_functor(s.host, s.unit_obj))
    bg = LaxMonoidalNat(
        left.background,
        right.background,
        NatTransf(
            left.background.functor,
            right.background.functor,
            (f.background.unit_cell,),
        ),
    )
    return EnrichedNat(bg, left, right, {0: emf.f0})


def underlying_monoidal_functor(
    emf: EnrichedMonoidalFunctor,
    us: UnderlyingResult | None = None,
    ut: UnderlyingResult | None = None,
) -> LaxMonoidalFunctor:
    """The underlying functor with its (strong) monoidal structure."""
    s, t = emf.source, emf.target
    us = us or underlying_category(s.host)
    ut = ut or underlying_category(t.host)
    f = emf.functor
    um_s = underlying_monoidal(s, us)
    um_t = underlying_monoidal(t, ut)
    fun = underlying_functor(f, us, ut)
    n = s.host.n_objects
    unit = ut.index[(t.unit_obj, f.on_obj(s.unit_obj), emf.f0)]
    mult = {
        (x, y): ut.index[
            (t.t(f.on_obj(x), f.on_obj(y)), f.on_obj(s.t(x, y)), emf.f2[(x, y)])
        ]
        for x, y in itertools.product(range(n), repeat=2)
    }
    return LaxMonoidalFunctor(um_s, um_t, fun, unit, mult, "strong")


def check_enriched_monoidal_functor(emf: EnrichedMonoidalFunctor) -> ValidationReport:
    report = ValidationReport("enriched monoidal functor")
    s, t = emf.source, emf.target
    f = emf.functor
    c = t.host.base.base
    if f.source != s.host or f.target != t.host:
        report.add("functor-shape", ())
        return report
    _absorb(report, check_enriched_functor(f), "functor")
    _absorb(
        report,
        check_braided_lax_functor(f.background, s.braiding, t.braiding),
        "background",
    )
    typed = _expect(
        report, "unit-coherence-typing", (), c, emf.f0,
        t.host.base.unit, t.host.hom(t.unit_obj, f.on_obj(s.unit_obj)),
    )
    for x, y in itertools.product(s.host.objects(), repeat=2):
        cell = emf.f2.get((x, y))
        if cell is None:
            raise StructureError(f"tensor coherence element missing at {(x, y)}")
        typed &= _expect(
            report, "tensor-coherence-typing", (x, y), c, cell,
            t.host.base.unit,
            t.host.hom(t.t(f.on_obj(x), f.on_obj(y)), f.on_obj(s.t(x, y))),
        )
    if not typed:
        return report
    _absorb(report, check_enriched_nat(tensor_coherence_nat(emf)), "tensor-coherence")
    _absorb(report, check_enriched_nat(unit_coherence_nat(emf)), "unit-coherence")
    try:
        um = underlying_monoidal_functor(emf)
    except StructureError as err:
        report.add("underlying-elements", (), str(err))
        return report
    _absorb(report, check_lax_monoidal_functor(um), "underlying")
    return report


def one_object_enriched_monoidal_functor(
    src: EnrichedMonoidalCategory,
    tgt: EnrichedMonoidalCategory,
    fhat: LaxMonoidalFunctor,
    f_el: int,
    f0: int,
) -> EnrichedMonoidalFunctor:
    """A functor between one-object enriched monoidal categories.

    fhat is a braided functor between the bases, f_el an algebra map from
    fhat of the source hom object to the target hom object, f0 the unit
    coherence element. The tensor coherence element is the identity of the
    single object, matching the strictness of the one-object builders.
    """
    functor = EnrichedFunctor(fhat, src.host, tgt.host, (0,), {(0, 0): f_el})
    return EnrichedMonoidalFunctor(
        src, tgt, functor, {(0, 0): tgt.host.one(0)}, f0
    )


def identity_enriched_monoidal_functor(
    em: EnrichedMonoidalCategory,
) -> EnrichedMonoidalFunctor:
    e = em.host
    u = e.base.unit
    n = e.n_objects
    f2 = {
        (x, y): e.one(em.t(x, y))
        for x, y in itertools.product(range(n), repeat=2)
    }
    return EnrichedMonoidalFunctor(
        em, em, identity_enriched_functor(e), f2, e.one(em.unit_obj)
    )


def check_enriched_monoidal_nat(
    xi: EnrichedNat, femf: EnrichedMonoidalFunctor, gemf: EnrichedMonoidalFunctor
) -> ValidationReport:
    """An enriched nat between enriched monoidal functors, underlying-monoidal."""
    report = ValidationReport("enriched monoidal natural transformation")
    if xi.source != femf.functor or xi.target != gemf.functor:
        report.add("nat-shape", ())
        return report
    _absorb(report, check_enriched_nat(xi), "nat")
    us = underlying_category(femf.source.host)
    ut = underlying_category(femf.target.host)
    under = LaxMonoidalNat(
        underlying_monoidal_functor(femf, us, ut),
        underlying_monoidal_functor(gemf, us, ut),
        underlying_nat(xi, us, ut),
    )
    _absorb(report, check_lax_monoidal_nat(under), "underlying")
    return report


@dataclass(frozen=True, eq=True)
class EnrichedBraidedCategory:
    """An enriched monoidal category with an enriched braiding.

    The braiding entries are elements 1 -> hom(x@y, y@x); the background is,
    by definition, the braiding of the (symmetric) base.
    """

    host: EnrichedMonoidalCategory
    braiding_el: dict  # (x,y) -> 1 -> hom(x@y, y@x)
    symmetric_flag: bool = False


def braiding_nat(eb: EnrichedBraidedCategory) -> EnrichedNat:
    """The braiding as an enriched nat @ => @ . switch."""
    em = eb.host
    e = em.host
    m = e.base
    n = e.n_objects
    sigma = swap_enriched_functor(e, e)
    left = em.tensor
    right = compose_enriched_functors(em.tensor, sigma)
    na = m.base.n_objects
    comps = []
    for p in left.background.source.base.objects():
        a, b = divmod(p, na)
        comps.append(em.braiding.c(a, b))
    bg = LaxMonoidalNat(
        left.background,
        right.background,
        NatTransf(left.background.functor, right.background.functor, tuple(comps)),
    )
    components = {
        x * n + y: eb.braiding_el[(x, y)]
        for x, y in itertools.product(range(n), repeat=2)
    }
    return EnrichedNat(bg, left, right, components)


def check_enriched_braided(eb: EnrichedBraidedCategory) -> ValidationReport:
    em = eb.host
    e = em.host
    m = e.base
    c = m.base
    forced = BraidedStructure(em.braiding.host, em.braiding.braiding, True)
    if not check_braided(forced).ok:
        raise StructureError("enriched braiding needs a symmetric base")
    report = ValidationReport("enriched braided monoidal category")
    typed = True
    for x, y in itertools.product(e.objects(), repeat=2):
        cell = eb.braiding_el.get((x, y))
        if cell is None:
            raise StructureError(f"braiding element missing at {(x, y)}")
        typed &= _expect(
            report, "braiding-typing", (x, y), c, cell,
            m.unit, e.hom(em.t(x, y), em.t(y, x)),
        )
    if not typed:
        return report
    _absorb(report, check_enriched_nat(braiding_nat(eb)), "braiding")

    u = underlying_category(e)
    um = underlying_monoidal(em, u)
    try:
        braid = {
            (x, y): u.index[(em.t(x, y), em.t(y, x), eb.braiding_el[(x, y)])]
            for x, y in itertools.product(e.objects(), repeat=2)
        }
    except KeyError as bad:
        report.add("underlying-elements", (), str(bad))
        return report
    under = BraidedStructure(um, braid, eb.symmetric_flag)
    _absorb(report, check_braided(under), "underlying")
    return report


def check_enriched_symmetric(eb: EnrichedBraidedCategory) -> ValidationReport:
    if not eb.symmetric_flag:
        report = ValidationReport("enriched symmetric monoidal category")
        report.add("symmetric-flag", ())
        return report
    return check_enriched_braided(eb)


@dataclass(frozen=True, eq=True)
class EnrichedHalfBraiding:
    """A half-braiding on an object whose naturality is enriched.

    components[z] is the element 1 -> hom(z @ x, x @ z); the underlying
    morphisms must form an ordinary half-braiding, and the hom-level
    naturality square must commute for every pair of objects.
    """

    carrier: int
    components: dict  # z -> element 1 -> hom(z@x, x@z)


def underlying_half_braiding(
    em: EnrichedMonoidalCategory, hb: EnrichedHalfBraiding, u: UnderlyingResult
) -> HalfBraidingOrd:
    x = hb.carrier
    comps = {
        z: u.index[(em.t(z, x), em.t(x, z), hb.components[z])]
        for z in em.host.objects()
    }
    return HalfBraidingOrd(x, comps)


def check_enriched_half_braiding(
    em: EnrichedMonoidalCategory,
    hb: EnrichedHalfBraiding,
    u: UnderlyingResult | None = None,
    um: MonoidalCategory | None = None,
) -> ValidationReport:
    report = ValidationReport("enriched half-braiding")
    e = em.host
    m = e.base
    c = m.base
    x = hb.carrier
    u = u or underlying_category(e)
    um = um or underlying_monoidal(em, u)
    try:
        under = underlying_half_braiding(em, hb, u)
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


def enumerate_enriched_half_braidings(
    em: EnrichedMonoidalCategory, x: int, cap: int | None = None
) -> list:
    """All enriched half-braidings on x, in lexicographic component order."""
    e = em.host
    m = e.base
    c = m.base
    u = underlying_category(e)
    um = underlying_monoidal(em, u)
    budget = Budget(cap, "enriched half-braiding enumeration")
    candidates = []
    for z in e.objects():
        pool = sorted(c.hom(m.unit, e.hom(em.t(z, x), em.t(x, z))))
        candidates.append(pool)
    found = []
    for combo in itertools.product(*candidates):
        budget.spend()
        hb = EnrichedHalfBraiding(x, dict(enumerate(combo)))
        if check_enriched_half_braiding(em, hb, u, um).ok:
            found.append(hb)
    return found
