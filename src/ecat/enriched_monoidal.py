"""Enriched monoidal and braided categories over a braided base.

The tensor product is a genuine enriched functor from the cartesian square,
and its background is pinned to the braiding-induced lax structure on the
base tensor. Coherence data (associator, unitors, braiding) are enriched
natural transformations whose backgrounds are the base coherence cells.
Every law is validated square by square, with two exceptions in
``check_enriched_monoidal``. When the base is a valid braided monoidal
category (``monoidal._is_monoidal`` and ``check_braided``), the pinned
tensor background is a strong monoidal functor by Joyal–Street, so its lax
laws are not checked again. When, in addition, the host is a valid enriched
category and the base is thin, the one rule of ``FinCategory.thin``
applies: the tensor's composition law and the associator's naturality
follow from typing, so no square of either is read and the associator nat
is not even built. The host, base and underlying checks apply the same
rule on their own, and so does ``check_enriched_half_braiding`` on a thin
host (``enriched._thin_host``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ecat.core import (
    Functor,
    _search,
    kept,
    labelled_bifunctor,
)
from ecat.monoidal import (
    AlgebraObject,
    BraidedStructure,
    HalfBraidingOrd,
    LaxMonoidalFunctor,
    LaxMonoidalNat,
    MonoidalCategory,
    _expect,
    _is_monoidal,
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
    _check_enriched_functor_composition,
    _check_enriched_functor_laws,
    _computed,
    _enriched_nat,
    _typed_cells,
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
    _kept: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
    components = {}
    for x in range(n * n * n):
        ij, k = divmod(x, n)
        i, j = divmod(ij, n)
        components[x] = em.a_el(i, j, k)
    return _enriched_nat(left, right, comps, components)


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
    return _enriched_nat(src, ide, nat_comps, comps)


@kept
def underlying_monoidal(em: EnrichedMonoidalCategory) -> MonoidalCategory:
    """The underlying monoidal category of the host."""
    e = em.host
    u = underlying_category(e)
    m = e.base
    c = m.base
    n = e.n_objects
    lam_inv = inv(m, m.l(m.unit))
    obj_map = tuple(em.t(i, j) for i in range(n) for j in range(n))
    try:
        tensor = labelled_bifunctor(
            u.cat, u.elements, u.index, obj_map,
            lambda f, g: c.comp_many(
                em.t_cell(f[0], g[0], f[1], g[1]), m.t_mor(f[2], g[2]), lam_inv
            ),
        )
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
    return MonoidalCategory(u.cat, tensor, em.unit_obj, assoc, lun, run)


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

    When the braiding passes, the background is the pinned one and the
    base passes ``monoidal._is_monoidal``, the base is a braided monoidal
    category and the background, with its braiding-induced cells, a strong
    monoidal functor (Joyal–Street, Braided tensor categories, 1993, §5),
    so only the enriched-functor laws of the tensor are checked. Otherwise
    the tensor goes through ``check_enriched_functor`` in full, which also
    reports ``tensor:`` lax-functor violations of a broken base.

    One thin condition is decided once, before the tensor section: that
    shortcut holds, nothing has been reported by then (so the host's
    identity and composition cells are typed) and the base category is thin
    (``FinCategory.thin``). Under it, every cell of the two routes of a
    square is typed: the cartesian square's composition cells are built
    from the host's, the background is the pinned strong tensor, and the
    tensor components and coherence elements pass their typing loops, which
    report any cell out of range. So both routes are defined and parallel,
    and equal in a thin base (Lawvere 1973; Kelly 1982 §1). The tensor's
    composition law is then decided without reading a square (its typing
    and identity sections still run), and the associator nat is decided
    without being built: its background on B x B x B is B's associator, a
    monoidal natural transformation between the two composite backgrounds
    (Joyal–Street). Otherwise the tensor's n⁶ composition squares and the
    associator's n⁶ naturality squares are enumerated, reporting or raising
    what they always did.
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
    shortcut = braided and pinned and _is_monoidal(m)
    thin = shortcut and report.ok and c.thin
    if shortcut:
        tensor_report = ValidationReport("enriched functor")
        if _check_enriched_functor_laws(em.tensor, tensor_report) and not thin:
            _check_enriched_functor_composition(em.tensor, tensor_report)
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

    if not thin:
        assoc = associator_nat(em)
        _computed(assoc.source)
        _computed(assoc.target)
        _absorb(report, check_enriched_nat(assoc), "associator")
    _absorb(report, check_enriched_nat(unitor_nat(em, "l")), "left-unitor")
    _absorb(report, check_enriched_nat(unitor_nat(em, "r")), "right-unitor")

    try:
        um = underlying_monoidal(em)
    except StructureError as err:
        report.add("underlying-elements", (), str(err))
        return report
    _absorb(report, check_monoidal(um), "underlying")
    return report


def reversed_enriched_monoidal(em: EnrichedMonoidalCategory) -> EnrichedMonoidalCategory:
    """The reversed category: same homs, tensor arguments swapped, over the
    anti-braided base.

    The tensor cells are the original cells composed with the braiding of
    the base.
    """
    e = em.host
    m = e.base
    c = m.base
    n = e.n_objects
    abar = anti_braiding(em.braiding)
    u = underlying_category(e)
    prod = cartesian_product_enriched(e, e)
    obj_map = tuple(em.t(y, x) for x in range(n) for y in range(n))
    comps = {}
    for p, q in itertools.product(range(n * n), repeat=2):
        (x1, y1), (x2, y2) = divmod(p, n), divmod(q, n)
        comps[(p, q)] = c.comp(
            em.t_cell(y1, x1, y2, x2),
            em.braiding.c(e.hom(x1, x2), e.hom(y1, y2)),
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
    left = _computed(compose_enriched_functors(t.tensor, product_enriched_functor(f, f)))
    right = _computed(compose_enriched_functors(f, s.tensor))
    na = s.host.base.base.n_objects
    comps = []
    for p in left.background.source.base.objects():
        a, b = divmod(p, na)
        comps.append(f.background.m2(a, b))
    n = s.host.n_objects
    components = {
        x * n + y: emf.f2[(x, y)]
        for x, y in itertools.product(range(n), repeat=2)
    }
    return _enriched_nat(left, right, comps, components)


def unit_coherence_nat(emf: EnrichedMonoidalFunctor) -> EnrichedNat:
    """f0 as an enriched nat unit_M => F . unit_L."""
    s, t = emf.source, emf.target
    f = emf.functor
    left = object_functor(t.host, t.unit_obj)
    right = _computed(compose_enriched_functors(f, object_functor(s.host, s.unit_obj)))
    return _enriched_nat(left, right, (f.background.unit_cell,), {0: emf.f0})


def underlying_monoidal_functor(emf: EnrichedMonoidalFunctor) -> LaxMonoidalFunctor:
    """The underlying functor with its (strong) monoidal structure."""
    s, t = emf.source, emf.target
    ut = underlying_category(t.host)
    f = emf.functor
    um_s = underlying_monoidal(s)
    um_t = underlying_monoidal(t)
    fun = underlying_functor(f)
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
    under = LaxMonoidalNat(
        underlying_monoidal_functor(femf),
        underlying_monoidal_functor(gemf),
        underlying_nat(xi),
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
    right = _computed(compose_enriched_functors(em.tensor, sigma))
    na = m.base.n_objects
    comps = []
    for p in left.background.source.base.objects():
        a, b = divmod(p, na)
        comps.append(em.braiding.c(a, b))
    components = {
        x * n + y: eb.braiding_el[(x, y)]
        for x, y in itertools.product(range(n), repeat=2)
    }
    return _enriched_nat(left, right, comps, components)


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
    um = underlying_monoidal(em)
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
    em: EnrichedMonoidalCategory, hb: EnrichedHalfBraiding
) -> HalfBraidingOrd:
    x = hb.carrier
    u = underlying_category(em.host)
    comps = {
        z: u.index[(em.t(z, x), em.t(x, z), hb.components[z])]
        for z in em.host.objects()
    }
    return HalfBraidingOrd(x, comps)


def check_enriched_half_braiding(
    em: EnrichedMonoidalCategory, hb: EnrichedHalfBraiding
) -> ValidationReport:
    """Every failing instance of the laws of hb: its components are elements
    whose underlying morphisms form a half-braiding (``underlying:``), and
    its naturality square commutes at every pair of objects.

    The components are typed once they are elements. When the host passes
    ``enriched._thin_host`` and the tensor cells the squares read are typed,
    both routes of each square are parallel, hence equal, so no square is
    composed; otherwise every square is.
    """
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

    pairs = list(itertools.product(e.objects(), repeat=2))
    if _typed_cells(e, itertools.chain.from_iterable(
        (
            (em.t_cell(y, x, z, x), m.t_obj(e.hom(y, z), e.hom(x, x)),
             e.hom(em.t(y, x), em.t(z, x))),
            (em.t_cell(x, y, x, z), m.t_obj(e.hom(x, x), e.hom(y, z)),
             e.hom(em.t(x, y), em.t(x, z))),
        )
        for y, z in pairs
    )):
        return report
    for y, z in pairs:
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
    em: EnrichedMonoidalCategory, x: int, cap: int | Budget | None = None
) -> list:
    """All enriched half-braidings on x, in lexicographic component order."""
    underlying_monoidal(em)  # raises before the search if a cell is not an element
    budget = Budget.of(cap, "enriched half-braiding enumeration")
    e = em.host
    m = e.base
    c = m.base
    pools = [c.hom(m.unit, e.hom(em.t(z, x), em.t(x, z))) for z in e.objects()]
    hbs = (
        EnrichedHalfBraiding(x, dict(enumerate(combo)))
        for combo in _search(len(pools), lambda z, a: pools[z], (), budget)
    )
    return [hb for hb in hbs if check_enriched_half_braiding(em, hb).ok]
