"""Centers of enriched categories at the three levels E0, E1 and E2.

The E0 center of an enriched category collects its endofunctors, with hom
objects the terminal half-braided families between two endofunctors; it is
a strict monoidal category enriched over the ordinary center of the base.
The E1 center of an enriched monoidal category collects the objects that
carry an enriched half-braiding, enriched over the Mueger center of the
base via terminal bracket pairs. The E2 center of an enriched braided
category is the full subcategory of transparent objects.

Hom objects of the E0 and E1 centers are terminal families: a center object
with components into hom objects (one per object for E0, a single zeta for
E1), searched by ``_bracket_search`` and found by one terminal finder, which
records each family's unique morphism into the terminal one. On a thin host
with typed cells (``enriched._enriched_functor_cells`` and
``_half_braiding_cells``, typed once per functor and once per center by
``condition_star``; ``_bracket_cells``) no sliding square or factoring is
composed, and each pool holds at most one morphism, so one family per
center object is listed, not searched.
Both centers build their category of terminal families with one host,
``_family_host``: identities and composites are the mediators of the
identity and composite families, or on a thin E0 host with typed cells the
only morphisms of their hom sets. A mediator of a listed family is read
from that certificate; only an unlisted family is mediated by a scan.
`check_bracket_terminal` re-checks any such certificate by an exhaustive
morphism scan. The E0 tensor cells are each the composite of a left and a
right whiskering, each whiskering mediated once (``e0_center``).

The three universal-property verifiers run one skeleton: an induced
comparison functor, its background, the unit isomorphism rho and the two
pasting equations, then a brute-force count of the mediating
isomorphisms; each level supplies only how its comparison functor lands
in its center. On a thin host typing decides rho, each mediator
candidate and the comparison functor's composition law (``_UniversalCheck``);
elsewhere each is checked by its public checker.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property

from ecat.actions import (
    ModuleAction,
    MonoidalModuleCells,
    _half_braided_rlax,
    _restricted_module,
    _rlax_key,
    _rlax_search,
    _thin_rlax,
    check_xilax_nat,
    identity_rlax,
    self_module,
)
from ecat.canonical import (
    canonical_braided,
    canonical_construction,
    canonical_monoidal,
)
from ecat.core import (
    FinCategory,
    Functor,
    LazyPairTable,
    NatTransf,
    _nat_search,
    _search,
    check_nat_transf,
    kept,
    labelled_category,
    product_category,
)
from ecat.enriched import (
    EnrichedCategory,
    EnrichedFunctor,
    _bracket_cells,
    _check_enriched_functor_composition,
    _check_enriched_functor_laws,
    _computed,
    _enriched_functor_cells,
    _enriched_functor_search,
    _enriched_nat,
    _functor_cells,
    _half_braiding_cells,
    _lax_cells,
    _thin_host,
    _typed_cells,
    cartesian_product_enriched,
    check_enriched,
    check_enriched_nat,
    compose_enriched_functors,
    hom_post,
    hom_pre,
    identity_enriched_functor,
    product_enriched_functor,
    star_enriched,
    underlying_category,
)
from ecat.enriched_monoidal import (
    EnrichedBraidedCategory,
    EnrichedMonoidalCategory,
    enumerate_enriched_half_braidings,
    underlying_half_braiding,
    underlying_monoidal,
)
from ecat.monoidal import (
    BraidedStructure,
    HalfBraidingOrd,
    LaxMonoidalFunctor,
    _flagged_braiding,
    _half_braided_index,
    _half_braided_tensor,
    braided_tensor_lax_structure,
    check_lax_monoidal_functor,
    compose_lax,
    drinfeld_center_z1,
    find_inverse,
    identity_lax,
    identity_lax_nat,
    inv,
    is_transparent,
    mid_swap,
    muger_center_z2,
    muger_centralizer,
    product_monoidal,
)
from ecat.report import Budget, StructureError, ValidationReport


# --- element-level helpers ---


def _el_comp(e: EnrichedCategory, x: int, y: int, z: int, g: int, f: int) -> int:
    """Compose elements f: 1 -> hom(x,y) and g: 1 -> hom(y,z)."""
    m = e.base
    return m.base.comp_many(e.c(x, y, z), m.t_mor(g, f), inv(m, m.l(m.unit)))


def _el_path(e: EnrichedCategory, objs: list, els: list) -> int:
    """Compose a chain of elements along the object path objs."""
    out = els[0]
    for i in range(1, len(els)):
        out = _el_comp(e, objs[0], objs[i], objs[i + 1], els[i], out)
    return out


def _el_inv(e: EnrichedCategory, x: int, y: int, el: int) -> int:
    """Invert an element through the underlying category."""
    u = underlying_category(e)
    k = u.index.get((x, y, el))
    if k is None:
        raise StructureError(f"no element {el}: {x} -> {y}")
    ki = find_inverse(u.cat, k)
    if ki is None:
        raise StructureError(f"element {el}: {x} -> {y} is not invertible")
    return u.elements[ki][2]


def _t_el(em: EnrichedMonoidalCategory, x1: int, x2: int, y1: int, y2: int,
          f: int, g: int) -> int:
    """Tensor elements f: 1 -> hom(x1,x2) and g: 1 -> hom(y1,y2)."""
    m = em.host.base
    return m.base.comp_many(
        em.t_cell(x1, y1, x2, y2), m.t_mor(f, g), inv(m, m.l(m.unit))
    )


def _el_mid_swap(em: EnrichedMonoidalCategory, a1: int, a2: int, b1: int,
                 b2: int, swap_el: int) -> int:
    """Element (a1@a2)@(b1@b2) -> (a1@b1)@(a2@b2) exchanging the middle
    factors with swap_el: 1 -> hom(a2@b1, b1@a2): ``monoidal.mid_swap`` in
    the underlying monoidal category, read back as an element."""
    u = underlying_category(em.host)
    t = em.t
    return u.elements[mid_swap(
        underlying_monoidal(em), a1, a2, b1, b2,
        lambda v, w: u.index[(t(v, w), t(w, v), swap_el)],
    )][2]


# --- endofunctor enumeration ---


def enumerate_identity_background_functors(
    src: EnrichedCategory, tgt: EnrichedCategory, cap: int | Budget | None = None
) -> list:
    """All enriched functors src -> tgt whose background is the identity.

    Enumeration is exhaustive: a call that returns has seen every candidate
    object map and component family, so the list is complete.
    """
    if src.base != tgt.base:
        raise StructureError("functor enumeration needs a shared base")
    budget = Budget.of(cap, "enriched endofunctor enumeration")
    return list(_enriched_functor_search(identity_lax(src.base), src, tgt, budget))


def _functor_key(f: EnrichedFunctor, thin: bool = False) -> tuple:
    """The object map of f and, unless thin, its components read in (x, y)
    order; on a thin host the object map fixes a typed functor."""
    if thin:
        return tuple(f.obj_map)
    pairs = itertools.product(f.source.objects(), repeat=2)
    return tuple(f.obj_map), tuple(map(f.components.__getitem__, pairs))


# --- terminal families ---


@dataclass
class Family:
    """A center object z_obj with components from it into hom objects.

    A half-braided family of the E0 center has one component
    I(a) -> hom(Fx, Gx) per object x; a bracket pair of the E1 center has
    one component, zeta: a -> hom(x, y)."""

    z_obj: int
    components: tuple


@dataclass
class Bracket:
    """A terminal family, with its mediator certificates.

    objects and morphisms are the category of families it is terminal in:
    a morphism (p, q, k) is a center morphism k from family p to family q.
    mediators maps each family position to its unique morphism into the
    bracket. incl is the inclusion of the center that built it; given that
    inclusion, ``_mediate`` reads the mediator of a listed family from
    mediators instead of scanning the center hom set again."""

    obj: int
    components: tuple
    mediators: dict
    objects: tuple
    morphisms: tuple
    incl: LaxMonoidalFunctor | None = field(default=None, compare=False, repr=False)

    @property
    def zeta(self) -> int:
        return self.components[0]

    @cached_property
    def positions(self) -> dict:
        """The position of each family, keyed by (z_obj, components)."""
        return {(f.z_obj, tuple(f.components)): p for p, f in enumerate(self.objects)}


def _factors(c: FinCategory, incl: LaxMonoidalFunctor, k: int, tgt: tuple,
             src: tuple) -> bool:
    """Whether the components tgt after the center morphism k give src."""
    under = incl.on_mor(k)
    return all(c.comp(t, under) == s for t, s in zip(tgt, src))


def _terminal_bracket(c: FinCategory, incl: LaxMonoidalFunctor, objects: list,
                      budget: Budget, thin: bool = False) -> Bracket | None:
    """The first terminal family among objects, if one exists.

    incl maps the center into the base c. Morphisms are the center
    morphisms through which the target family gives the source family;
    each candidate spends one unit of budget. thin is the caller's verdict
    that c is a thin host on which incl and every family are typed.
    """
    zc = incl.source.base
    morphisms = []
    for p, src in enumerate(objects):
        for q, tgt in enumerate(objects):
            for k in zc.hom(src.z_obj, tgt.z_obj):
                budget.spend()
                if thin or _factors(c, incl, k, tgt.components, src.components):
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


def check_bracket_terminal(bracket: Bracket) -> ValidationReport:
    """Re-verify a terminality certificate by exhaustive morphism scan."""
    report = ValidationReport("terminal family")
    family = Family(bracket.obj, bracket.components)
    if family not in bracket.objects:
        report.add("bracket-object-missing", ())
        return report
    pos = bracket.objects.index(family)
    for p in range(len(bracket.objects)):
        hits = [k for (pp, qq, k) in bracket.morphisms if pp == p and qq == pos]
        if len(hits) != 1:
            report.add("bracket-not-terminal", (p,), f"{len(hits)} morphisms")
        elif hits[0] != bracket.mediators.get(p):
            report.add("bracket-wrong-mediator", (p,))
    return report


def _lifter(incl: LaxMonoidalFunctor):
    """The map (zsrc, ztgt, f) -> the morphism zsrc -> ztgt of the center
    base that incl sends to f, raising when there is none."""
    zc = incl.source.base
    index = {(zc.dom[k], zc.cod[k], incl.on_mor(k)): k for k in zc.morphisms()}

    def lift(zsrc: int, ztgt: int, f: int) -> int:
        k = index.get((zsrc, ztgt, f))
        if k is None:
            raise StructureError("morphism does not lift to the center")
        return k

    return lift


def _mediate(c: FinCategory, incl: LaxMonoidalFunctor, bracket: Bracket,
             src_z: int, family: tuple | None) -> int:
    """The unique center morphism src_z -> bracket.obj through which the
    bracket's components give family.

    When incl built the bracket and (src_z, family) is one of its families,
    this is the bracket's mediator certificate for that family:
    ``_terminal_bracket`` found it by the same ``_factors`` scan over the
    same hom set. Otherwise the hom set is scanned, and exactly one
    morphism must factor the family; every one does when family is None,
    the caller's verdict of a thin host with typed cells.
    """
    if family is not None and incl is bracket.incl:
        pos = bracket.positions.get((src_z, tuple(family)))
        if pos is not None:
            return bracket.mediators[pos]
    hits = [
        k
        for k in incl.source.base.hom(src_z, bracket.obj)
        if family is None or _factors(c, incl, k, bracket.components, family)
    ]
    if len(hits) != 1:
        raise StructureError(f"expected one mediating morphism, found {len(hits)}")
    return hits[0]


def _family_host(e: EnrichedCategory, incl: LaxMonoidalFunctor, brackets: dict,
                 carriers: list, thin: bool = False) -> EnrichedCategory:
    """The enriched category of terminal families, over the center that
    incl includes into the base of e.

    The hom object of (i, j) is the object of ``brackets[(i, j)]``;
    identities and composites are the unique mediators of the identity and
    composite families. carriers[i] lists the objects of e that the
    components of a family out of i start from: F_i(x) for each object x
    (E0), or (x_i,) (E1). thin is the caller's verdict of a thin host with
    typed cells: then no family is composed (``_mediate``).
    """
    m = e.base
    c = m.base
    zmon = incl.source
    n = len(carriers)
    ident = {
        i: _mediate(c, incl, brackets[(i, i)], zmon.unit,
                    None if thin else [e.one(x) for x in xs])
        for i, xs in enumerate(carriers)
    }
    comp = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        a, b = brackets[(i, j)], brackets[(j, k)]
        family = None if thin else [
            c.comp(e.c(xi, xj, xk), m.t_mor(bz, az))
            for xi, xj, xk, az, bz in zip(
                carriers[i], carriers[j], carriers[k], a.components, b.components
            )
        ]
        comp[(i, j, k)] = _mediate(
            c, incl, brackets[(i, k)], zmon.t_obj(b.obj, a.obj), family
        )
    hom_obj = {p: br.obj for p, br in brackets.items()}
    return EnrichedCategory(zmon, n, hom_obj, ident, comp)


def _bracket_search(e: EnrichedCategory, incl: LaxMonoidalFunctor, targets: list,
                    square, thin: bool, budget: Budget) -> Bracket | None:
    """The first terminal family over the center that incl includes into the
    base of e: a center object a (variable 0) with one component
    incl(a) -> targets[i - 1] per variable i after it. square decides a family
    at its last variable, unless thin: the caller's verdict that what square
    and the factorings read besides the components, and incl on morphisms,
    are typed on a thin host (``_typed_cells``). Then every square commutes
    and every family factors, and each pool holds at most one morphism: a
    family is listed for each a whose pools are all non-empty, as
    ``_search(1, ...)``, not searched."""
    c = e.base.base
    k = len(targets)

    def domain(i, v):
        if i == 0:
            return incl.source.base.objects()
        return c.hom(incl.on_obj(v[0]), targets[i - 1])

    if thin:  # the one family of each a with no empty pool: its pools' heads
        heads = {}

        def listed(v):
            x = incl.on_obj(v[0])
            pools = [c.hom(x, t) for t in targets]
            heads[v[0]] = next(zip(*pools), ())
            return all(pools)

        objects = [Family(a, heads[a]) for a, in _search(1, domain, [(0, listed)], budget)]
    else:
        objects = [Family(v[0], v[1:]) for v in _search(k + 1, domain, [(k, square)], budget)]
    return _terminal_bracket(c, incl, objects, budget, thin)


# --- half-braided families between endofunctors ---


def _family_square_ok(e: EnrichedCategory, fF: EnrichedFunctor,
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


def bracket_family(e: EnrichedCategory, fF: EnrichedFunctor,
                   fG: EnrichedFunctor, z1, budget: Budget) -> Bracket | None:
    """The terminal half-braided family from fF to fG, if one exists.

    Families pair an object a of the ordinary center z1 of the base with
    components I(a) -> hom(Fx, Gx) that slide past every hom; morphisms
    are center morphisms compatible with both families (``_bracket_search``,
    thin when the components of fF and fG, the cells of
    ``enriched._half_braiding_cells`` and the forgetful functor of z1 are
    typed).
    """
    cells = itertools.chain(
        _enriched_functor_cells(fF), _enriched_functor_cells(fG),
        _half_braiding_cells(e, z1), _functor_cells(z1.forgetful),
    )
    return _family_search(e, fF, fG, z1, _typed_cells(e, cells), budget)


def _family_search(e: EnrichedCategory, fF: EnrichedFunctor, fG: EnrichedFunctor,
                   z1, thin: bool, budget: Budget) -> Bracket | None:
    """``bracket_family`` with its thin verdict given."""

    def slides(v):
        return _family_square_ok(e, fF, fG, z1.object_data[v[0]][1], v[1:])

    targets = [e.hom(fF.on_obj(x), fG.on_obj(x)) for x in e.objects()]
    return _bracket_search(e, z1.forgetful, targets, slides, thin, budget)


@dataclass
class StarResult:
    """Per-pair terminal families over a fixed endofunctor list."""

    functors: tuple
    brackets: dict  # (i, j) -> Bracket or None
    z1: object
    thin: bool  # every functor and z1 typed on a thin host


def condition_star(e: EnrichedCategory, cap: int | Budget | None = None) -> StarResult:
    """Check whether every endofunctor pair has a terminal family.

    One budget of cap units (None, an int, or a Budget to share) bounds the
    ordinary center, the endofunctor enumeration and every family search.

    The cells that ``bracket_family`` types for a pair are typed here once
    per endofunctor and once for z1, and each pair's search is thin when
    its two functors and z1 are."""
    budget = Budget.of(cap, "E0 center")
    z1 = drinfeld_center_z1(e.base, budget)
    functors = enumerate_identity_background_functors(e, e, budget)
    z1_typed = _typed_cells(
        e, itertools.chain(_half_braiding_cells(e, z1), _functor_cells(z1.forgetful)))
    typed = [z1_typed and _typed_cells(e, _enriched_functor_cells(f)) for f in functors]
    brackets = {}
    for i, fF in enumerate(functors):
        for j, fG in enumerate(functors):
            brackets[(i, j)] = _family_search(
                e, fF, fG, z1, typed[i] and typed[j], budget)
    return StarResult(tuple(functors), brackets, z1, all(typed))


# --- the E0 center ---


@dataclass
class CenterResult:
    """A computed center with its witnesses.

    kind is "E0", "E1" or "E2"; category is the enriched (monoidal,
    braided) category produced; witnesses hold the data needed to re-check
    the computation; forgetful maps back into the input when applicable.
    """

    kind: str
    category: object
    witnesses: dict
    forgetful: object | None = None
    _kept: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def e0_center(e: EnrichedCategory, cap: int | Budget | None = None) -> CenterResult:
    """The strict monoidal category of endofunctors enriched over the
    ordinary center of the base.

    Hom objects are the terminal half-braided families; composition and
    identities are the unique mediators of the evident composite families.
    e must be an enriched category: raises StructureError when
    ``check_enriched(e)`` fails, and when some pair has no terminal family.
    One budget of cap units (None, an int, or a Budget to share) bounds the
    run (``condition_star``).

    The tensor is functor composition, so the tensor cell
    hom(i, k) x hom(j, l) -> hom(ij, kl) is a horizontal composite, and by
    the interchange law (Mac Lane, CWM §II.5) the composite of two
    whiskerings: the right whisker hom(i, k) -> hom(il, kl) by F_l, whose
    family is x -> a_(F_l x), and the left whisker hom(j, l) -> hom(ij, il)
    by F_i, whose family is x -> F_i(jx, lx) . b_x, for the brackets a of
    (i, k) and b of (j, l). Each whisker is mediated the first time a cell
    needs it, and kept; the cell is the host composite of their Z1 tensor.
    That composite is the cell's mediator:

    - Z1's forgetful functor sends a Z1 tensor of morphisms to the base
      tensor of their images, and a Z1 composite to a base composite, by
      construction in ``drinfeld_center_z1``;
    - the base tensor is functorial, so the composition family of
      (ij, il, kl) after the two whiskers is, at each object x, the cell
      family c(ijx, ilx, klx) . (a_(lx) @ F_i(jx, lx) . b_x);
    - so the composite factors the cell family, and the bracket of
      (ij, kl) is terminal, which makes it the unique mediator, the one the
      per-cell search finds. On a thin base this follows from typing alone.

    The n⁴ cells are a ``LazyPairTable``: each is composed when it is
    first read, so a whisker that no cell reads is never mediated.
    """
    budget = Budget.of(cap, "E0 center")
    rep = check_enriched(e)
    if not rep.ok:
        v = rep.violations[0]
        raise StructureError(
            f"E0 center of an invalid enriched category: {v.law} at {v.instance}"
        )
    star = condition_star(e, budget)
    missing = [p for p, br in star.brackets.items() if br is None]
    if missing:
        raise StructureError(
            f"no terminal half-braided family for pairs {sorted(missing)}"
        )
    z1 = star.z1
    functors = star.functors
    brackets = star.brackets
    c = e.base.base
    zmon = z1.monoidal
    fwd = z1.forgetful
    n = len(functors)
    thin = star.thin
    fun_index = {_functor_key(f, thin): i for i, f in enumerate(functors)}

    host = _family_host(
        e, fwd, brackets, [[f.on_obj(x) for x in e.objects()] for f in functors], thin
    )
    ident, comp = host.ident, host.comp

    t_obj = {}
    for i, j in itertools.product(range(n), repeat=2):
        fi, fj = functors[i], functors[j]
        key = (tuple(map(fi.obj_map.__getitem__, fj.obj_map)) if thin
               else _functor_key(compose_enriched_functors(fi, fj)))
        if key not in fun_index:
            raise StructureError(f"endofunctor list not closed under composition at {(i, j)}")
        t_obj[(i, j)] = fun_index[key]

    @cache
    def wr(i: int, k: int, l: int) -> int:
        """hom(i, k) -> hom(il, kl), the right whisker by F_l."""
        a, fl = brackets[(i, k)], functors[l]
        return _mediate(
            c, fwd, brackets[(t_obj[(i, l)], t_obj[(k, l)])], a.obj,
            [a.components[fl.on_obj(x)] for x in e.objects()],
        )

    @cache
    def wl(i: int, j: int, l: int) -> int:
        """hom(j, l) -> hom(ij, il), the left whisker by F_i."""
        b, fi, fj, fl = brackets[(j, l)], functors[i], functors[j], functors[l]
        return _mediate(
            c, fwd, brackets[(t_obj[(i, j)], t_obj[(i, l)])], b.obj,
            [c.comp(fi.at(fj.on_obj(x), fl.on_obj(x)), b.components[x])
             for x in e.objects()],
        )

    z_comp, z_t_mor = zmon.base.comp, zmon.t_mor

    def cell(p: int, q: int) -> int:
        (i, j), (k, l) = divmod(p, n), divmod(q, n)
        return z_comp(
            comp[(t_obj[(i, j)], t_obj[(i, l)], t_obj[(k, l)])],
            z_t_mor(wr(i, k, l), wl(i, j, l)),
        )

    cells = LazyPairTable(n * n, cell)
    tensor_obj_map = tuple(t_obj[(i, j)] for i in range(n) for j in range(n))
    tensor = EnrichedFunctor(
        braided_tensor_lax_structure(z1.braided),
        cartesian_product_enriched(host, host),
        host,
        tensor_obj_map,
        cells,
    )
    unit_idx = fun_index[_functor_key(identity_enriched_functor(e), thin)]
    assoc = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        if t_obj[(t_obj[(i, j)], k)] != t_obj[(i, t_obj[(j, k)])]:
            raise StructureError("endofunctor composition is not associative")
        assoc[(i, j, k)] = ident[t_obj[(t_obj[(i, j)], k)]]
    unitors = tuple(ident[i] for i in range(n))
    category = EnrichedMonoidalCategory(
        host, z1.braided, tensor, unit_idx, assoc, unitors, unitors
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


@kept
def e0_ev(res: CenterResult) -> EnrichedFunctor:
    """The evaluation action of a center of any kind on the host category
    it was computed from. For E0 it evaluates endofunctors; for E1 and E2
    it is the host tensor after the forgetful functor in the first
    variable."""
    if res.kind != "E0":
        em = res.witnesses["host"] if res.kind == "E1" else res.witnesses["host"].host
        return _computed(compose_enriched_functors(em.tensor, product_enriched_functor(
            res.forgetful, identity_enriched_functor(em.host))))
    e = res.witnesses["host"]
    z1 = res.witnesses["z1"]
    functors = res.witnesses["functors"]
    brackets = res.witnesses["brackets"]
    host = res.category.host
    m = e.base
    c = m.base
    zmon = z1.monoidal
    fwd = z1.forgetful
    nB = c.n_objects
    mB = c.n_morphisms
    prod = product_monoidal(zmon, m)
    obj_map = []
    for p in prod.base.objects():
        i, b = divmod(p, nB)
        obj_map.append(m.t_obj(fwd.on_obj(i), b))
    mor_map = []
    for q in prod.base.morphisms():
        k, f = divmod(q, mB)
        mor_map.append(m.t_mor(fwd.on_mor(k), f))
    mult = {}
    for p, q in itertools.product(prod.base.objects(), repeat=2):
        i, b = divmod(p, nB)
        j, d = divmod(q, nB)
        hbj = z1.object_data[j][1]
        mult[(p, q)] = mid_swap(
            m, fwd.on_obj(i), b, fwd.on_obj(j), d,
            lambda u, v: hbj.components[u],
        )
    background = LaxMonoidalFunctor(
        prod, m,
        Functor(prod.base, c, tuple(obj_map), tuple(mor_map)),
        inv(m, m.l(m.unit)), mult, "strong",
    )
    src = cartesian_product_enriched(host, e)
    nM = e.n_objects
    ev_obj = tuple(
        functors[i].on_obj(x) for i in range(host.n_objects) for x in range(nM)
    )
    comps = {}
    for p, q in itertools.product(range(host.n_objects * nM), repeat=2):
        i, x = divmod(p, nM)
        j, y = divmod(q, nM)
        br = brackets[(i, j)]
        comps[(p, q)] = c.comp(
            e.c(functors[i].on_obj(x), functors[i].on_obj(y), functors[j].on_obj(y)),
            m.t_mor(br.components[y], functors[i].at(x, y)),
        )
    return EnrichedFunctor(background, src, e, ev_obj, comps)


# --- enriched isomorphism search ---


def enriched_iso_search(
    e1: EnrichedCategory, e2: EnrichedCategory, cap: int | Budget | None = None
) -> EnrichedFunctor | None:
    """An identity-background enriched isomorphism e1 -> e2, if any.

    Searches object bijections and invertible hom components exhaustively.
    """
    budget = Budget.of(cap, "enriched isomorphism search")
    if e1.base != e2.base or e1.n_objects != e2.n_objects:
        return None
    return next(_enriched_functor_search(identity_lax(e1.base), e1, e2, budget, iso=True), None)


# --- the E0 center through module endofunctors ---


def e0_center_via_module(mod: ModuleAction, cap: int | Budget | None = None) -> CenterResult:
    """The E0 center presented through the canonical construction.

    The lax module endofunctors of mod, r-lax functors along the identity
    of its base (``actions._rlax_search``), form a category acted on by the
    ordinary center of the base; the canonical construction on that action
    yields an enriched category, shipped with the strict tensor table
    given by endofunctor composition. One budget of cap units (None, an
    int, or a Budget to share) bounds the ordinary center, every search and
    the canonical construction.
    """
    if not mod.strongly_associative:
        raise StructureError("module endofunctor action needs strong associativity")
    budget = Budget.of(cap, "E0 center")
    z1 = drinfeld_center_z1(mod.base, budget)
    cc = mod.carrier
    m = mod.base
    c = m.base
    zmon = z1.monoidal
    zc = zmon.base
    fwd = z1.forgetful

    bg = identity_lax(m)
    idnat = identity_lax_nat(bg)  # a module nat is a xi-lax nat at the identity
    thin = _thin_rlax(bg, mod, mod)  # r-lax laws, module squares and keys from typing
    mfs = _rlax_search(bg, mod, mod, budget, thin)
    mf_index = {_rlax_key(mf, thin=thin): i for i, mf in enumerate(mfs)}
    nats = [
        (i, j, nat.components)
        for i, fi in enumerate(mfs)
        for j, fj in enumerate(mfs)
        for nat in _nat_search(fi.functor, fj.functor, budget)
        if thin or check_xilax_nat(fi, fj, idnat, nat).ok
    ]
    funcat, nat_index = labelled_category(
        len(mfs), nats,
        lambda i: tuple(cc.identity[x] for x in mfs[i].functor.obj_map),
        lambda g, f: tuple(cc.comp(g[2][x], f[2][x]) for x in cc.objects()),
    )

    act_obj = []
    for zi in zc.objects():
        h = _half_braided_rlax(bg, mod, fwd.on_obj(zi), z1.object_data[zi][1])
        for mf in mfs:
            key = _rlax_key(h, mf, thin)
            if key not in mf_index:
                raise StructureError("module endofunctors not closed under the action")
            act_obj.append(mf_index[key])
    nf = funcat.n_objects
    act_mor = []
    for zk in zc.morphisms():
        for i, j, comps in nats:
            zi, zj = zc.dom[zk], zc.cod[zk]
            out = tuple(
                mod.a_mor(fwd.on_mor(zk), comps[x]) for x in cc.objects()
            )
            act_mor.append(nat_index[(act_obj[zi * nf + i], act_obj[zj * nf + j], out)])
    act = Functor(
        product_category(zc, funcat), funcat, tuple(act_obj), tuple(act_mor)
    )

    oplax_assoc = {}
    for zi, zj in itertools.product(zc.objects(), repeat=2):
        for k in range(nf):
            src = act_obj[zmon.t_obj(zi, zj) * nf + k]
            tgt = act_obj[zi * nf + act_obj[zj * nf + k]]
            comps = tuple(
                mod.o(fwd.on_obj(zi), fwd.on_obj(zj), mfs[k].functor.obj_map[x])
                for x in cc.objects()
            )
            oplax_assoc[(zi, zj, k)] = nat_index[(src, tgt, comps)]
    oplax_unitor = []
    for k in range(nf):
        src = act_obj[zmon.unit * nf + k]
        comps = tuple(mod.u(mfs[k].functor.obj_map[x]) for x in cc.objects())
        oplax_unitor.append(nat_index[(src, k, comps)])
    fmod = ModuleAction(
        zmon, funcat, act, oplax_assoc, tuple(oplax_unitor),
        mod.strongly_associative, mod.strongly_unital,
    )
    can = canonical_construction(fmod, budget)
    t_obj = {}
    for i, j in itertools.product(range(nf), repeat=2):
        t_obj[(i, j)] = mf_index[_rlax_key(mfs[i], mfs[j], thin)]
    unit_idx = mf_index[_rlax_key(identity_rlax(mod), thin=thin)]
    witnesses = {
        "module": mod,
        "module_functors": tuple(mfs),
        "nats": tuple(nats),
        "z1": z1,
        "canonical": can,
        "tensor_obj": t_obj,
        "unit_obj": unit_idx,
    }
    return CenterResult("E0", can.enriched, witnesses)


def compare_e0_routes(direct: CenterResult, via: CenterResult,
                      cap: int | Budget | None = None) -> dict:
    """Match the endofunctor presentation against the module presentation.

    Finds an identity-background enriched isomorphism and transports the
    strict tensor tables and units across it.
    """
    host = direct.category.host
    iso = enriched_iso_search(host, via.category, cap)
    out = {
        "iso": iso,
        "strict": host == via.category,
        "tensor_ok": False,
        "unit_ok": False,
    }
    if iso is None:
        return out
    t1 = direct.witnesses["tensor_obj"]
    t2 = via.witnesses["tensor_obj"]
    out["tensor_ok"] = all(
        iso.on_obj(t1[(i, j)]) == t2[(iso.on_obj(i), iso.on_obj(j))]
        for i, j in t1
    )
    out["unit_ok"] = (
        iso.on_obj(direct.witnesses["unit_obj"]) == via.witnesses["unit_obj"]
    )
    return out


# --- the E1 center ---


def bracket_pair(em: EnrichedMonoidalCategory, z2: tuple, oi, oj,
                 budget: Budget) -> Bracket | None:
    """The terminal bracket pair from oi to oj, if one exists.

    Pairs join a transparent base object with a morphism zeta into
    hom(x, y) satisfying the sliding square; morphisms come from the
    transparent subcategory and must commute with both legs
    (``_bracket_search`` over the cells of ``enriched._bracket_cells``).
    The first two factors of each side of the square at z, which do not
    depend on the candidate, are composed into one leg once, when the first
    candidate reaches z, and the inverse unitors of each transparent object
    once, where its first candidate reads them.
    """
    z2incl = z2[2]
    e = em.host
    m = e.base
    c = m.base
    (x, hbx), (y, hby) = oi, oj
    l_inv = cache(lambda a: inv(m, m.l(a)))
    r_inv = cache(lambda a: inv(m, m.r(a)))

    @cache
    def up_leg(z: int) -> int:
        post = hom_post(e, em.t(z, x), em.t(z, y), em.t(y, z), hby.components[z])
        return c.comp(post, em.t_cell(z, x, z, y))

    @cache
    def down_leg(z: int) -> int:
        pre = hom_pre(e, em.t(z, x), em.t(x, z), em.t(y, z), hbx.components[z])
        return c.comp(pre, em.t_cell(x, z, y, z))

    def slides(v):
        a_host, zeta = z2incl.on_obj(v[0]), v[1]
        return all(
            c.comp_many(up_leg(z), m.t_mor(e.one(z), zeta), l_inv(a_host))
            == c.comp_many(down_leg(z), m.t_mor(zeta, e.one(z)), r_inv(a_host))
            for z in e.objects()
        )

    thin = _typed_cells(e, itertools.chain(_bracket_cells(em, oi, oj), _functor_cells(z2incl)))
    return _bracket_search(e, z2incl, [e.hom(x, y)], slides, thin, budget)


def gamma1(em: EnrichedMonoidalCategory, cap: int | Budget | None = None) -> CenterResult:
    """The braided category of half-braided objects enriched over the
    transparent subcategory of the base.

    Objects are pairs of a host object with an enriched half-braiding; hom
    objects are terminal bracket pairs; all structure elements are the
    unique factorings of the corresponding host elements. One budget of
    cap units (None, an int, or a Budget to share) bounds every
    half-braiding enumeration and bracket-pair search. A valid em need not
    have an E1 center: when some pair of half-braided objects has no
    terminal bracket pair, this raises StructureError naming that pair.

    em is not validated: the result means nothing unless
    ``check_enriched_monoidal(em)`` passes. An invalid em can still raise
    StructureError (a structure cell not an element, no terminal bracket
    pair, an unrecognized tensor or unit half-braiding, no unique mediator,
    a mistyped composite) or KeyError (an identity or composite not an
    element).

    The n⁴ tensor cells are a ``LazyPairTable``: each is composed and
    mediated when it is first read. So a mistyped tensor component, or a
    cell of an invalid em with no unique mediator, raises at the read, not
    here.
    """
    budget = Budget.of(cap, "E1 center")
    e = em.host
    m = e.base
    c = m.base
    um = underlying_monoidal(em)
    z2 = muger_center_z2(em.braiding)
    z2mon, z2br, z2incl = z2

    objs = []
    for x in e.objects():
        for hb in enumerate_enriched_half_braidings(em, x, budget):
            objs.append((x, hb))
    n = len(objs)

    brackets = {}
    for i, j in itertools.product(range(n), repeat=2):
        br = bracket_pair(em, z2, objs[i], objs[j], budget)
        if br is None:
            raise StructureError(f"no terminal bracket pair at {(i, j)}")
        brackets[(i, j)] = br

    host = _family_host(e, z2incl, brackets, [(x,) for x, _ in objs])

    t_obj, unit_idx = _half_braided_tensor(
        um, [(x, underlying_half_braiding(em, hb)) for x, hb in objs]
    )
    t1 = {(i, j): t_obj[i * n + j] for i, j in itertools.product(range(n), repeat=2)}

    def cell(p: int, q: int) -> int:
        (i, j), (k, l) = divmod(p, n), divmod(q, n)
        bik, bjl = brackets[(i, k)], brackets[(j, l)]
        route = c.comp(
            em.t_cell(objs[i][0], objs[j][0], objs[k][0], objs[l][0]),
            m.t_mor(bik.zeta, bjl.zeta),
        )
        return _mediate(
            c, z2incl, brackets[(t1[(i, j)], t1[(k, l)])],
            z2mon.t_obj(bik.obj, bjl.obj), (route,),
        )

    tensor = EnrichedFunctor(
        braided_tensor_lax_structure(z2br),
        cartesian_product_enriched(host, host),
        host,
        t_obj,
        LazyPairTable(n * n, cell),
    )

    assoc = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        br = brackets[(t1[(t1[(i, j)], k)], t1[(i, t1[(j, k)])])]
        assoc[(i, j, k)] = _mediate(
            c, z2incl, br, z2mon.unit,
            (em.a_el(objs[i][0], objs[j][0], objs[k][0]),),
        )
    left = tuple(
        _mediate(
            c, z2incl, brackets[(t1[(unit_idx, i)], i)], z2mon.unit,
            (em.l_el(objs[i][0]),),
        )
        for i in range(n)
    )
    right = tuple(
        _mediate(
            c, z2incl, brackets[(t1[(i, unit_idx)], i)], z2mon.unit,
            (em.r_el(objs[i][0]),),
        )
        for i in range(n)
    )
    braid = {}
    for i, j in itertools.product(range(n), repeat=2):
        braid[(i, j)] = _mediate(
            c, z2incl, brackets[(t1[(i, j)], t1[(j, i)])], z2mon.unit,
            (objs[j][1].components[objs[i][0]],),
        )
    symmetric = all(
        _el_comp(
            host, t1[(i, j)], t1[(j, i)], t1[(i, j)],
            braid[(j, i)], braid[(i, j)],
        )
        == host.ident[t1[(i, j)]]
        for i, j in itertools.product(range(n), repeat=2)
    )

    emg = EnrichedMonoidalCategory(
        host, z2br, tensor, unit_idx, assoc, left, right
    )
    ebg = EnrichedBraidedCategory(emg, braid, symmetric)
    forgetful = EnrichedFunctor(
        z2incl, host, e,
        tuple(x for x, _ in objs),
        {p: br.zeta for p, br in brackets.items()},
    )
    witnesses = {
        "host": em,
        "objects": tuple(objs),
        "brackets": brackets,
        "z2": z2,
        "tensor_obj": t1,
        "unit_obj": unit_idx,
    }
    return CenterResult("E1", ebg, witnesses, forgetful)


# --- the E1 center of a canonical category, through the carrier ---


def gamma1_of_canonical(mm: MonoidalModuleCells, cap: int | Budget | None = None) -> dict:
    """Compute the E1 center of a canonical category along both routes.

    The direct route applies the half-braided-object construction to the
    canonical enriched monoidal category. The other route forms the
    ordinary center of the carrier, takes the centralizer of the image of
    the base acting on the carrier unit, and rebuilds a canonical category
    from the induced module over the transparent subcategory of the base:
    the carrier center acting on itself, pulled back to that subcategory
    and restricted to the centralizer (``_restricted_module``).
    Returns both results with an isomorphism between them when one exists.
    One budget of cap units (None, an int, or a Budget to share) bounds
    both canonical constructions, the E1 center, the carrier center and the
    isomorphism search.
    """
    budget = Budget.of(cap, "E1 center of a canonical category")
    can = canonical_construction(mm.module, budget)
    em = canonical_monoidal(mm, can)
    direct = gamma1(em, budget)

    mod = mm.module
    mA = mod.base
    ca = mA.base
    lm = mm.carrier_monoidal
    cc = mod.carrier
    z1m = drinfeld_center_z1(lm, budget)
    zm = z1m.monoidal
    find = _half_braided_index(z1m.object_data)
    lift_mor = _lifter(z1m.forgetful)

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
        pos = find(x, comps)
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
    phi = LaxMonoidalFunctor(
        mA, zm, Functor(ca, zm.base, tuple(phi_obj), tuple(phi_mor)), phi0, phi2,
        "strong",
    )

    _, _, subincl = muger_centralizer(z1m.braided, phi_obj)
    z2incl = direct.witnesses["z2"][2]  # em.braiding is mm.base_braiding
    modB = _restricted_module(self_module(zm), compose_lax(phi, z2incl), subincl)
    canB = canonical_construction(modB, budget)
    host = direct.category.host.host
    return {
        "gamma1": direct,
        "module_side": canB,
        "iso": enriched_iso_search(host, canB.enriched, budget),
        "strict": host == canB.enriched,
    }


# --- the E2 center ---


def _underlying_braided(eb: EnrichedBraidedCategory) -> BraidedStructure:
    """The braiding on the underlying monoidal category."""
    em = eb.host
    e = em.host
    u = underlying_category(e)
    um = underlying_monoidal(em)
    comps = {
        (x, y): u.index[(em.t(x, y), em.t(y, x), eb.braiding_el[(x, y)])]
        for x, y in itertools.product(e.objects(), repeat=2)
    }
    return _flagged_braiding(um, comps)


def gamma2(eb: EnrichedBraidedCategory, cap: int | Budget | None = None) -> CenterResult:
    """The full subcategory of transparent objects, with the restricted
    enriched monoidal structure; its braiding is symmetric. A full
    subcategory needs no search, so cap is not read; it is accepted for
    symmetry with ``gamma1``.

    eb is not validated: the result means nothing unless
    ``check_enriched_braided(eb)`` passes. An invalid eb can still raise
    StructureError (a structure cell not an element, a unit not transparent,
    transparent objects not tensor-closed, a mistyped composite) or
    KeyError (an identity, composite or braiding element not an element).
    """
    em = eb.host
    e = em.host
    m = e.base
    c = m.base
    bs = _underlying_braided(eb)
    allobjs = list(e.objects())
    trans = [x for x in allobjs if is_transparent(bs, x, allobjs)]
    pos = {x: i for i, x in enumerate(trans)}
    n2 = len(trans)
    if em.unit_obj not in pos:
        raise StructureError("the unit object is not transparent")
    hom_obj = {
        (i, j): e.hom(trans[i], trans[j])
        for i, j in itertools.product(range(n2), repeat=2)
    }
    ident = {i: e.one(trans[i]) for i in range(n2)}
    comp = {
        (i, j, k): e.c(trans[i], trans[j], trans[k])
        for i, j, k in itertools.product(range(n2), repeat=3)
    }
    sub = EnrichedCategory(m, n2, hom_obj, ident, comp)
    t_map = []
    for i, j in itertools.product(range(n2), repeat=2):
        t = em.t(trans[i], trans[j])
        if t not in pos:
            raise StructureError(
                f"transparent objects are not tensor-closed at {(i, j)}"
            )
        t_map.append(pos[t])
    cells = {
        (i * n2 + j, k * n2 + l): em.t_cell(trans[i], trans[j], trans[k], trans[l])
        for i, j, k, l in itertools.product(range(n2), repeat=4)
    }
    tensor = EnrichedFunctor(
        braided_tensor_lax_structure(em.braiding),
        cartesian_product_enriched(sub, sub),
        sub, tuple(t_map), cells,
    )
    assoc = {
        (i, j, k): em.a_el(trans[i], trans[j], trans[k])
        for i, j, k in itertools.product(range(n2), repeat=3)
    }
    left = tuple(em.l_el(trans[i]) for i in range(n2))
    right = tuple(em.r_el(trans[i]) for i in range(n2))
    emg = EnrichedMonoidalCategory(
        sub, em.braiding, tensor, pos[em.unit_obj], assoc, left, right
    )
    braid = {
        (i, j): eb.braiding_el[(trans[i], trans[j])]
        for i, j in itertools.product(range(n2), repeat=2)
    }
    ebg = EnrichedBraidedCategory(emg, braid, True)
    forgetful = EnrichedFunctor(
        identity_lax(m), sub, e,
        tuple(trans),
        {
            (i, j): c.identity[sub.hom(i, j)]
            for i, j in itertools.product(range(n2), repeat=2)
        },
    )
    witnesses = {
        "host": eb,
        "objects": tuple(trans),
        "underlying_braiding": bs,
    }
    return CenterResult("E2", ebg, witnesses, forgetful)


def braided_tables(eb: EnrichedBraidedCategory) -> tuple:
    """A normal form of all tables of an enriched braided category."""
    em = eb.host
    e = em.host
    return (
        e.base,
        e.n_objects,
        tuple(sorted(e.hom_obj.items())),
        tuple(sorted(e.ident.items())),
        tuple(sorted(e.comp.items())),
        em.unit_obj,
        tuple(em.tensor.obj_map),
        tuple(sorted(em.tensor.components.items())),
        tuple(sorted(em.associator.items())),
        tuple(em.left_unitor),
        tuple(em.right_unitor),
        tuple(sorted(eb.braiding_el.items())),
    )


def gamma2_of_canonical(
    mm: MonoidalModuleCells,
    carrier_braiding: BraidedStructure,
    cap: int | Budget | None = None,
) -> dict:
    """Compute the E2 center of a canonical braided category both ways.

    One route restricts the canonical braided category to its transparent
    objects; the other restricts the module to the transparent subcategory
    of the carrier first (``_restricted_module`` along the identity) and
    rebuilds the canonical braided category.
    Returns both with an exact comparison of all tables. One budget of cap
    units (None, an int, or a Budget to share) bounds both canonical
    constructions.
    """
    budget = Budget.of(cap, "E2 center of a canonical category")
    can = canonical_construction(mm.module, budget)
    eb = canonical_braided(mm, carrier_braiding, can, carrier_braiding.symmetric_flag)
    side1 = gamma2(eb)

    subL, subbr, subincl = muger_center_z2(carrier_braiding)
    mod = mm.module
    ca = mod.base.base
    mod2 = _restricted_module(mod, identity_lax(mod.base), subincl)
    sub_mor = {subincl.on_mor(k): k for k in subL.base.morphisms()}
    interchange = {
        (a, b, x, y): sub_mor[mm.i(a, b, subincl.on_obj(x), subincl.on_obj(y))]
        for a, b in itertools.product(ca.objects(), repeat=2)
        for x, y in itertools.product(subL.base.objects(), repeat=2)
    }
    mm2 = MonoidalModuleCells(
        mod2, mm.base_braiding, subL, interchange, sub_mor[mm.unit_cell]
    )
    eb2 = canonical_braided(mm2, subbr, canonical_construction(mod2, budget), True)
    return {
        "restricted": side1,
        "module_side": eb2,
        "tables_equal": braided_tables(side1.category) == braided_tables(eb2),
    }


# --- universal-property verifiers ---


@dataclass
class UnitalAction:
    """A left unital action of an enriched category on another.

    actor is the acting enriched (monoidal) category; odot is the action
    enriched functor out of the cartesian product; unit_obj is the acting
    unit object; xi_el[x] is the element 1 -> hom(unit . x, x) and
    xi_bg[b] the base morphism (1 .hat b) -> b of the unit isomorphism.
    For monoidal actors, f2 holds the elements making odot monoidal:
    f2[((x,m),(y,n))] : 1 -> hom((x.m) @ (y.n), (x@y).(m@n)). It may be a
    lazy mapping, whose entries are computed, and may raise, when read.
    """

    actor: object
    acted: object
    odot: EnrichedFunctor
    unit_obj: int
    xi_el: dict
    xi_bg: dict
    f2: dict | None = None


@dataclass
class TheoremReport:
    """The outcome of a universal-property verification.

    report collects the pasting-equation and structure violations;
    uniqueness_count is the number of mediating isomorphisms found by
    exhaustive search (the theorem predicts exactly one).
    """

    report: ValidationReport
    uniqueness_count: int | None = None

    @property
    def ok(self) -> bool:
        return self.report.ok and self.uniqueness_count in (None, 1)


def _apply_pair(fun: EnrichedFunctor, n2: int, m2: int, p1: int, x1: int,
                p2: int, x2: int, el1: int, el2: int) -> int:
    """Apply an enriched functor on a cartesian product to a pair element."""
    bg = fun.background
    c = bg.target.base
    return c.comp_many(
        fun.at(p1 * n2 + x1, p2 * n2 + x2),
        bg.on_mor(el1 * m2 + el2),
        bg.unit_cell,
    )


def _action_cells(act: EnrichedFunctor):
    """Every cell of an action enriched functor: its background's
    (``_lax_cells``), then its components."""
    return itertools.chain(_lax_cells(act.background), _enriched_functor_cells(act))


@kept
def _ev_typed(res: CenterResult) -> bool:
    """Whether the action ``e0_ev(res)`` of the center on its host is typed
    on a thin host: its background on morphisms, its unit and mult cells
    and its components. Then a composite of it after a product of typed
    functors, as the source of rho, is typed and computable without being
    read."""
    act = e0_ev(res)
    return _typed_cells(act.target, _action_cells(act))


def _comparison_report(ecp: EnrichedFunctor, bg_report: ValidationReport) -> ValidationReport:
    """``check_enriched_functor(ecp)`` from bg_report, the report of its
    background, with the composition squares composed only when the source
    or the target fails ``_thin_host``. When both pass, the background is
    valid and the components are typed, both routes of a square are
    parallel morphisms of a thin base, hence equal (Lawvere 1973; Kelly
    1982 §1)."""
    report = ValidationReport("enriched functor")
    report.extend(bg_report)
    if report.ok and _check_enriched_functor_laws(ecp, report) and not (
            _thin_host(ecp.target) and _thin_host(ecp.source)):
        _check_enriched_functor_composition(ecp, report)
    return report


class _UniversalCheck:
    """The skeleton shared by the E0, E1 and E2 universal-property checks.

    A left unital action of la on e induces a comparison enriched functor
    into the center, whose background lands in the base zmon the center is
    enriched over; incl: zmon -> base of e is that base's inclusion. run()
    builds the comparison functor, the natural isomorphism rho from the
    center's action on its own host (``e0_ev``) composed with it to the
    given action, checks both pasting equations, and counts the mediating
    isomorphisms by exhaustive search.

    On a thin host typing decides three checks: the comparison functor's
    composition law (``_comparison_report``); once that functor passes,
    each mediator candidate, typed by its search domain; and rho, when the
    given action is typed and rho is typed against the object maps of its
    source, the center's action on e (``_ev_typed``) after the comparison
    functor times the identity, which is then neither built nor checked.
    Elsewhere each is checked whole, rho and the mediator candidates by
    ``check_enriched_nat``, and the report is the same. Each level supplies
    comparison_objects, background_objects, rho_el, pasting_underlying_ok,
    pasting_background_ok, fixes_unit and fixes_rho; lift and component
    default to lifting through incl and mediating into the center's
    terminal families.
    """

    title = ""

    def __init__(self, e: EnrichedCategory, la: EnrichedCategory,
                 action: UnitalAction, incl: LaxMonoidalFunctor,
                 res: CenterResult, host):
        self.report = ValidationReport(self.title)
        self.e, self.la, self.action, self.res = e, la, action, res
        self.incl = incl
        self.zmon = incl.source
        self.host = host
        self.m = e.base
        self.c = self.m.base
        self.mA = la.base
        self.ca = self.mA.base
        self.bg = action.odot.background
        self.nM = e.n_objects
        self.nB = self.c.n_objects
        self.mB = self.c.n_morphisms
        self.unit_l = action.unit_obj
        self.unit_b = self.m.unit

    def pr(self, a: int, x: int) -> int:
        return a * self.nM + x

    def po(self, a: int, b: int) -> int:
        return a * self.nB + b

    def odot_obj(self, a: int, x: int) -> int:
        return self.action.odot.on_obj(self.pr(a, x))

    def inverse_xi(self) -> dict:
        """The inverse elements x -> unit . x of the unit isomorphism."""
        return {
            x: _el_inv(self.e, self.odot_obj(self.unit_l, x), x,
                       self.action.xi_el[x])
            for x in range(self.nM)
        }

    @cached_property
    def lift(self):
        """(zsrc, ztgt, f) -> the center-base morphism that incl sends to f."""
        return _lifter(self.incl)

    def route(self, a: int, b: int, h: int, x: int) -> int:
        """The action on hom(a, b) at x, an element of hom(a.x, b.x)."""
        pr = self.pr
        return self.c.comp(
            self.action.odot.at(pr(a, x), pr(b, x)),
            self.bg.on_mor(self.ca.identity[h] * self.mB + self.e.one(x)),
        )

    def component(self, P: list, phat_obj: list, a: int, b: int, h: int) -> int:
        """The comparison functor on hom(a, b): the mediator into the
        terminal family of the routes at route_objects."""
        family = [self.route(a, b, h, x) for x in self.route_objects]
        return _mediate(self.c, self.incl, self.brackets[(P[a], P[b])],
                        phat_obj[h], family)

    def after_comparison(self, P: list) -> None:
        """Data the remaining hooks need once the comparison functor exists."""

    def run(self, budget: Budget) -> TheoremReport:
        report = self.report
        P = self.comparison_objects()
        if not report.ok:
            return TheoremReport(report)
        phat_obj = self.background_objects()
        if not report.ok:
            return TheoremReport(report)
        e, m, c, la, mA, ca = self.e, self.m, self.c, self.la, self.mA, self.ca
        action, bg, zmon, host, lift, po = (
            self.action, self.bg, self.zmon, self.host, self.lift, self.po
        )
        zc = zmon.base
        nM, mB, unit_b = self.nM, self.mB, self.unit_b

        phat_mor = tuple(
            lift(
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
            ph_mult[(a, b)] = lift(
                zmon.t_obj(phat_obj[a], phat_obj[b]), phat_obj[mA.t_obj(a, b)], g
            )
        ph_unit = lift(zmon.unit, phat_obj[mA.unit], inv(m, action.xi_bg[unit_b]))
        phat = LaxMonoidalFunctor(
            mA, zmon, Functor(ca, zc, tuple(phat_obj), phat_mor),
            ph_unit, ph_mult, "strong",
        )
        phat_report = check_lax_monoidal_functor(phat)
        for v in phat_report.violations:
            report.add("background-functor-" + v.law, v.instance, v.detail)

        comps = {}
        for a, b in itertools.product(la.objects(), repeat=2):
            comps[(a, b)] = self.component(P, phat_obj, a, b, la.hom(a, b))
        ecp = EnrichedFunctor(phat, la, host, tuple(P), comps)
        ecp_report = _comparison_report(ecp, phat_report)
        for v in ecp_report.violations:
            report.add("comparison-functor-" + v.law, v.instance, v.detail)
        self.after_comparison(P)

        rho_bg = {}
        for a in ca.objects():
            for b in c.objects():
                rho_bg[(a, b)] = c.comp_many(
                    bg.on_mor(mA.r(a) * mB + m.l(b)),
                    bg.m2(po(a, unit_b), po(mA.unit, b)),
                    m.t_mor(
                        c.identity[bg.on_obj(po(a, unit_b))],
                        inv(m, action.xi_bg[b]),
                    ),
                )
        rho_el = self.rho_el()
        act = e0_ev(self.res)
        pr = self.pr
        # rho's source, act after ecp x id, is typed through its factors
        rho_typed = (
            ecp_report.ok and act.target == e and _ev_typed(self.res)
            and (action.odot is act or _typed_cells(e, _action_cells(action.odot)))
            and _typed_cells(e, itertools.chain(
                ((rho_bg[(a, b)], act.background.on_obj(po(phat_obj[a], b)), bg.on_obj(po(a, b)))
                 for a in ca.objects() for b in c.objects()),
                ((rho_el[pr(a, x)], m.unit,
                  e.hom(act.on_obj(pr(P[a], x)), action.odot.on_obj(pr(a, x))))
                 for a in la.objects() for x in range(nM)),
            ))
        )
        if not rho_typed:
            fun1 = compose_enriched_functors(
                act, product_enriched_functor(ecp, identity_enriched_functor(e))
            )
            rho_bg_comps = [rho_bg[(a, b)] for a in ca.objects() for b in c.objects()]
            ecrho = _enriched_nat(fun1, action.odot, rho_bg_comps, rho_el)
            for v in check_enriched_nat(ecrho).violations:
                report.add("rho-" + v.law, v.instance, v.detail)

        for x in range(nM):
            if not self.pasting_underlying_ok(P, x, rho_el):
                report.add("pasting-underlying", (x,))
        for b in c.objects():
            lhs = c.comp_many(
                action.xi_bg[b],
                rho_bg[(mA.unit, b)],
                m.t_mor(self.incl.on_mor(ph_unit), c.identity[b]),
            )
            if not self.pasting_background_ok(b, lhs):
                report.add("pasting-background", (b,))

        u_host = underlying_category(host)
        nA = ca.n_objects

        def domain(i, v):
            """Invertible background components, then invertible elements."""
            if i < nA:
                pool = zc.hom(phat_obj[i], phat_obj[i])
                return [k for k in pool if find_inverse(zc, k) is not None]
            a = P[i - nA]
            return [
                el for el in zc.hom(zmon.unit, host.hom(a, a))
                if find_inverse(u_host.cat, u_host.index[(a, a, el)]) is not None
            ]

        def natural_bg(v):
            return check_nat_transf(NatTransf(phat.functor, phat.functor, v[:nA])).ok

        # each candidate is typed by domain; with ecp checked, its
        # background and its nat are typed nats of typed functors
        typed = ecp_report.ok and _thin_host(host)

        def mediates(v):
            combo_bg, alpha = v[:nA], dict(enumerate(v[nA:]))
            return (
                (typed or check_enriched_nat(_enriched_nat(ecp, ecp, combo_bg, alpha)).ok)
                and self.fixes_unit(P, alpha, combo_bg, ph_unit)
                and all(
                    self.fixes_rho(
                        a, x, rho_el,
                        _apply_pair(act, nM, mB, P[a], x, P[a], x, alpha[a], e.one(x)),
                    )
                    for a in la.objects() for x in range(nM)
                )
                and all(
                    c.comp(
                        rho_bg[(a, b)],
                        m.t_mor(self.incl.on_mor(combo_bg[a]), c.identity[b]),
                    )
                    == rho_bg[(a, b)]
                    for a in ca.objects() for b in c.objects()
                )
            )

        constraints = [] if typed else [(nA - 1, natural_bg)]
        candidates = _search(nA + la.n_objects, domain, constraints, budget)
        count = sum(1 for v in candidates if mediates(v))
        return TheoremReport(report, count)


class _E0Check(_UniversalCheck):
    """E0: the comparison functor lands in the endofunctor category, its
    background in the ordinary center, and rho is the identity."""

    title = "E0 universal property"

    def __init__(self, e: EnrichedCategory, action: UnitalAction,
                 res: CenterResult):
        w = res.witnesses
        self.z1, self.functors = w["z1"], w["functors"]
        self.brackets, self.unit_idx = w["brackets"], w["unit_obj"]
        la = action.actor
        if isinstance(la, EnrichedMonoidalCategory):
            la = la.host
        super().__init__(e, la, action, self.z1.forgetful, res, res.category.host)
        self.route_objects = range(self.nM)

    def comparison_objects(self) -> list:
        e, m, c, action, pr = self.e, self.m, self.c, self.action, self.pr
        fun_index = {_functor_key(f): i for i, f in enumerate(self.functors)}
        idbg = identity_lax(m)
        phi = []
        for a in self.la.objects():
            obj_map = tuple(self.odot_obj(a, x) for x in range(self.nM))
            comps = {}
            for x, y in itertools.product(range(self.nM), repeat=2):
                h = e.hom(x, y)
                comps[(x, y)] = c.comp_many(
                    action.odot.at(pr(a, x), pr(a, y)),
                    self.bg.on_mor(self.la.one(a) * self.mB + c.identity[h]),
                    inv(m, action.xi_bg[h]),
                )
            key = _functor_key(EnrichedFunctor(idbg, e, e, obj_map, comps))
            pos = fun_index.get(key)
            if pos is None:
                self.report.add("induced-endofunctor-missing", (a,))
            phi.append(pos)
        return phi

    def background_objects(self) -> list:
        m, c, mA, bg, po = self.m, self.c, self.mA, self.bg, self.po
        xi_bg, mB, unit_b = self.action.xi_bg, self.mB, self.unit_b
        find = _half_braided_index(self.z1.object_data)
        phihat_obj = []
        for a in self.ca.objects():
            xb = bg.on_obj(po(a, unit_b))
            comps = {}
            for z in c.objects():
                comps[z] = c.comp_many(
                    m.t_mor(c.identity[xb], xi_bg[z]),
                    inv(m, bg.m2(po(a, unit_b), po(mA.unit, z))),
                    bg.on_mor(inv(mA, mA.r(a)) * mB + inv(m, m.l(z))),
                    bg.on_mor(mA.l(a) * mB + m.r(z)),
                    bg.m2(po(mA.unit, z), po(a, unit_b)),
                    m.t_mor(inv(m, xi_bg[z]), c.identity[xb]),
                )
            pos = find(xb, comps)
            if pos is None:
                self.report.add("background-image-not-central", (a,))
            phihat_obj.append(pos)
        return phihat_obj

    def after_comparison(self, P: list) -> None:
        inv_xi = self.inverse_xi()
        self.sigma = _mediate(
            self.c, self.incl, self.brackets[(self.unit_idx, P[self.unit_l])],
            self.zmon.unit, [inv_xi[x] for x in range(self.nM)],
        )

    def rho_el(self) -> dict:
        return {
            self.pr(a, x): self.e.one(self.odot_obj(a, x))
            for a in self.la.objects() for x in range(self.nM)
        }

    def pasting_underlying_ok(self, P: list, x: int, rho_el: dict) -> bool:
        e, unit_l = self.e, self.unit_l
        el = _apply_pair(
            e0_ev(self.res), self.nM, self.mB, self.unit_idx, x, P[unit_l], x,
            self.sigma, e.one(x),
        )
        xi = self.action.xi_el[x]
        return _el_comp(e, x, self.odot_obj(unit_l, x), x, xi, el) == e.one(x)

    def pasting_background_ok(self, b: int, lhs: int) -> bool:
        m = self.m
        return self.c.comp(lhs, inv(m, m.l(b))) == self.c.identity[b]

    def fixes_unit(self, P: list, beta: dict, combo_bg: tuple,
                   ph_unit: int) -> bool:
        sigma, u = self.sigma, P[self.unit_l]
        return (
            _el_comp(self.host, self.unit_idx, u, u, beta[self.unit_l], sigma)
            == sigma
            and self.zmon.base.comp(combo_bg[self.mA.unit], ph_unit) == ph_unit
        )

    def fixes_rho(self, a: int, x: int, rho_el: dict, el: int) -> bool:
        return el == self.e.one(self.odot_obj(a, x))


class _MonoidalCheck(_UniversalCheck):
    """E1 and E2: the action is monoidal, the comparison object of a is
    a . 1 with its induced half-braiding, and rho is built from f2."""

    def __init__(self, em: EnrichedMonoidalCategory, action: UnitalAction,
                 res: CenterResult, incl: LaxMonoidalFunctor):
        self.em, self.laM = em, action.actor
        super().__init__(em.host, self.laM.host, action, incl, res,
                         res.category.host.host)
        self.unit_M = em.unit_obj
        self.route_objects = (self.unit_M,)
        self.inv_xi = self.inverse_xi()

    def odot_el(self, a1, x1, a2, x2, el1, el2) -> int:
        return _apply_pair(self.action.odot, self.nM, self.mB, a1, x1, a2, x2,
                           el1, el2)

    def induced_half_braiding(self, a: int, mo: int) -> int:
        """The half-braiding of a . 1 at mo induced by the monoidal action."""
        em, e, la, laM, f2 = self.em, self.e, self.la, self.laM, self.action.f2
        odot_obj, unit_l, unit_M = self.odot_obj, self.unit_l, self.unit_M
        t = em.t
        pa = odot_obj(a, unit_M)
        o = [
            t(mo, pa),
            t(odot_obj(unit_l, mo), pa),
            odot_obj(laM.t(unit_l, a), t(mo, unit_M)),
            odot_obj(a, mo),
            odot_obj(laM.t(a, unit_l), t(unit_M, mo)),
            t(pa, odot_obj(unit_l, mo)),
            t(pa, mo),
        ]
        els = [
            _t_el(em, mo, odot_obj(unit_l, mo), pa, pa, self.inv_xi[mo], e.one(pa)),
            f2[((unit_l, mo), (a, unit_M))],
            self.odot_el(
                laM.t(unit_l, a), t(mo, unit_M), a, mo,
                laM.l_el(a), em.r_el(mo),
            ),
            self.odot_el(
                a, mo, laM.t(a, unit_l), t(unit_M, mo),
                _el_inv(la, laM.t(a, unit_l), a, laM.r_el(a)),
                _el_inv(e, t(unit_M, mo), mo, em.l_el(mo)),
            ),
            _el_inv(
                e, t(pa, odot_obj(unit_l, mo)),
                odot_obj(laM.t(a, unit_l), t(unit_M, mo)),
                f2[((a, unit_M), (unit_l, mo))],
            ),
            _t_el(em, pa, pa, odot_obj(unit_l, mo), mo, e.one(pa),
                  self.action.xi_el[mo]),
        ]
        return _el_path(e, o, els)

    def rho_el(self) -> dict:
        em, e, laM, odot_obj = self.em, self.e, self.laM, self.odot_obj
        unit_l, unit_M, t = self.unit_l, self.unit_M, em.t
        rho_el = {}
        for a in self.la.objects():
            pa = odot_obj(a, unit_M)
            for mo in range(self.nM):
                o = [
                    t(pa, mo),
                    t(pa, odot_obj(unit_l, mo)),
                    odot_obj(laM.t(a, unit_l), t(unit_M, mo)),
                    odot_obj(a, mo),
                ]
                els = [
                    _t_el(em, pa, pa, mo, odot_obj(unit_l, mo), e.one(pa),
                          self.inv_xi[mo]),
                    self.action.f2[((a, unit_M), (unit_l, mo))],
                    self.odot_el(
                        laM.t(a, unit_l), t(unit_M, mo), a, mo,
                        laM.r_el(a), em.l_el(mo),
                    ),
                ]
                rho_el[self.pr(a, mo)] = _el_path(e, o, els)
        return rho_el

    def pasting_underlying_ok(self, P: list, mo: int, rho_el: dict) -> bool:
        em, e, unit_l, unit_M = self.em, self.e, self.unit_l, self.unit_M
        lhs = _el_path(
            e,
            [em.t(unit_M, mo), em.t(self.odot_obj(unit_l, unit_M), mo),
             self.odot_obj(unit_l, mo), mo],
            [
                _t_el(em, unit_M, self.odot_obj(unit_l, unit_M), mo, mo,
                      self.inv_xi[unit_M], e.one(mo)),
                rho_el[self.pr(unit_l, mo)],
                self.action.xi_el[mo],
            ],
        )
        return lhs == em.l_el(mo)

    def pasting_background_ok(self, b: int, lhs: int) -> bool:
        return lhs == self.m.l(b)

    def fixes_unit(self, P: list, alpha: dict, combo_bg: tuple,
                   ph_unit: int) -> bool:
        return True

    def fixes_rho(self, a: int, mo: int, rho_el: dict, el: int) -> bool:
        pa = self.odot_obj(a, self.unit_M)
        rho = rho_el[self.pr(a, mo)]
        t = self.em.t(pa, mo)
        return _el_comp(self.e, t, t, self.odot_obj(a, mo), rho, el) == rho


class _E1Check(_MonoidalCheck):
    """E1: the comparison lands in the half-braided objects, its background
    in the transparent subcategory of the base."""

    title = "E1 universal property"

    def __init__(self, em: EnrichedMonoidalCategory, action: UnitalAction,
                 res: CenterResult):
        self.brackets = res.witnesses["brackets"]
        super().__init__(em, action, res, res.witnesses["z2"][2])

    def comparison_objects(self) -> list:
        find = _half_braided_index(self.res.witnesses["objects"])
        P = []
        for a in self.la.objects():
            pa = self.odot_obj(a, self.unit_M)
            comps = {mo: self.induced_half_braiding(a, mo) for mo in range(self.nM)}
            pos = find(pa, comps)
            if pos is None:
                self.report.add("induced-half-braiding-missing", (a,))
            P.append(pos)
        return P

    def background_objects(self) -> list:
        sub_obj = {self.incl.on_obj(i): i for i in self.zmon.base.objects()}
        phat_obj = []
        for a in self.ca.objects():
            pos = sub_obj.get(self.bg.on_obj(self.po(a, self.unit_b)))
            if pos is None:
                self.report.add("background-image-not-transparent", (a,))
            phat_obj.append(pos)
        return phat_obj


class _E2Check(_MonoidalCheck):
    """E2: E1 with the inclusion the identity on the base; the comparison
    object must be transparent with its induced half-braiding equal to the
    braiding of eb."""

    title = "E2 universal property"

    def __init__(self, eb: EnrichedBraidedCategory, action: UnitalAction,
                 res: CenterResult):
        self.braiding_el = eb.braiding_el
        em = eb.host
        super().__init__(em, action, res, identity_lax(em.host.base))

    def comparison_objects(self) -> list:
        pos_of = {x: i for i, x in enumerate(self.res.witnesses["objects"])}
        P = []
        for a in self.la.objects():
            pa = self.odot_obj(a, self.unit_M)
            pos = pos_of.get(pa)
            if pos is None:
                self.report.add("image-not-transparent", (a,))
                P.append(None)
                continue
            for mo in range(self.nM):
                if self.induced_half_braiding(a, mo) != self.braiding_el[(mo, pa)]:
                    self.report.add("induced-braiding-mismatch", (a, mo))
            P.append(pos)
        return P

    def background_objects(self) -> tuple:
        return tuple(
            self.bg.on_obj(self.po(a, self.unit_b)) for a in self.ca.objects()
        )

    def lift(self, zsrc: int, ztgt: int, f: int) -> int:
        return f

    def component(self, P: list, phat_obj: tuple, a: int, b: int, h: int) -> int:
        return self.route(a, b, h, self.unit_M)


def verify_e0_universal(e: EnrichedCategory, action: UnitalAction,
                        cap: int | Budget | None = None,
                        res: CenterResult | None = None) -> TheoremReport:
    """Check that the endofunctor category is terminal among left unital
    actions on e.

    Builds the comparison enriched functor and both natural isomorphisms
    from the given action, checks the pasting equation on every component,
    and counts the mediating isomorphisms by exhaustive search. One budget
    of cap units (None, an int, or a Budget to share) bounds the run: the E0
    center, when res is not given, and the mediator search.
    """
    budget = Budget.of(cap, "E0 universal property")
    return _E0Check(e, action, res or e0_center(e, budget)).run(budget)


def verify_e1_universal(em: EnrichedMonoidalCategory, action: UnitalAction,
                        cap: int | Budget | None = None,
                        res: CenterResult | None = None) -> TheoremReport:
    """Check that the category of half-braided objects is terminal among
    monoidal unital actions on em.

    The action must carry the monoidal cells f2. Builds the comparison
    functor into the E1 center, which acts on its own host (``e0_ev``), as
    for E0; checks both pasting components, and counts the mediating
    isomorphisms by exhaustive search. One budget of cap units (None, an
    int, or a Budget to share) bounds the run: the E1 center, when res is
    not given, and the mediator search.
    """
    budget = Budget.of(cap, "E1 universal property")
    return _E1Check(em, action, res or gamma1(em, budget)).run(budget)


def verify_e2_universal(eb: EnrichedBraidedCategory, action: UnitalAction,
                        cap: int | Budget | None = None,
                        res: CenterResult | None = None) -> TheoremReport:
    """Check that the transparent subcategory is terminal among braided
    monoidal unital actions on eb.

    Like the E1 check, but the induced half-braidings must agree with the
    braiding of eb, so the comparison lands in the full subcategory of
    transparent objects; the center acts on its own host, as for E0. One
    budget of cap units (None, an int, or a Budget to share) bounds the run;
    the E2 center, a full subcategory, searches nothing and spends none of
    it.
    """
    budget = Budget.of(cap, "E2 universal property")
    return _E2Check(eb, action, res or gamma2(eb)).run(budget)


# --- canonical actions for the verifiers ---


def evaluation_action(res: CenterResult, e: EnrichedCategory) -> UnitalAction:
    """The E0 center acting on its host by evaluation."""
    m = e.base
    xi_el = {x: e.one(x) for x in range(e.n_objects)}
    xi_bg = {b: m.l(b) for b in m.base.objects()}
    return UnitalAction(
        res.category.host, e, e0_ev(res), res.witnesses["unit_obj"],
        xi_el, xi_bg,
    )


def trivial_action(e: EnrichedCategory) -> UnitalAction:
    """The one-object enriched category acting by doing nothing."""
    star = star_enriched()
    m = e.base
    c = m.base
    pm = product_monoidal(star.base, m)
    bgfun = Functor(
        pm.base, c, tuple(range(c.n_objects)), tuple(range(c.n_morphisms))
    )
    mult = {
        (b, d): c.identity[m.t_obj(b, d)]
        for b, d in itertools.product(c.objects(), repeat=2)
    }
    bg = LaxMonoidalFunctor(pm, m, bgfun, c.identity[m.unit], mult, "strong")
    comps = {
        (x, y): c.identity[e.hom(x, y)]
        for x, y in itertools.product(range(e.n_objects), repeat=2)
    }
    odot = EnrichedFunctor(
        bg, cartesian_product_enriched(star, e), e,
        tuple(range(e.n_objects)), comps,
    )
    xi_el = {x: e.one(x) for x in range(e.n_objects)}
    xi_bg = {b: c.identity[b] for b in c.objects()}
    return UnitalAction(star, e, odot, 0, xi_el, xi_bg)


def star_enriched_monoidal() -> EnrichedMonoidalCategory:
    """The one-object enriched monoidal category over the trivial base."""
    star = star_enriched()
    tm = star.base
    tc = tm.base
    br = BraidedStructure(tm, {(0, 0): tc.identity[0]}, True)
    tensor = EnrichedFunctor(
        braided_tensor_lax_structure(br),
        cartesian_product_enriched(star, star), star,
        (0,), {(0, 0): tc.identity[0]},
    )
    one = (star.one(0),)
    return EnrichedMonoidalCategory(
        star, br, tensor, 0, {(0, 0, 0): star.one(0)}, one, one
    )


def trivial_monoidal_action(em: EnrichedMonoidalCategory) -> UnitalAction:
    """The one-object enriched monoidal category acting trivially."""
    e = em.host
    base = trivial_action(e)
    f2 = {
        ((0, x), (0, y)): e.one(em.t(x, y))
        for x, y in itertools.product(range(e.n_objects), repeat=2)
    }
    return UnitalAction(
        star_enriched_monoidal(), e, base.odot, 0, base.xi_el, base.xi_bg, f2
    )


def tensor_action(em: EnrichedMonoidalCategory,
                  braiding_el: dict | None = None) -> UnitalAction:
    """An enriched monoidal category acting on itself by its tensor.

    braiding_el, when given, supplies the swap elements 1 -> hom(m@y, y@m)
    that make the action monoidal; it is required for the E1 and E2
    verifiers but not for E0.
    """
    e = em.host
    m = e.base
    xi_el = {x: em.l_el(x) for x in range(e.n_objects)}
    xi_bg = {b: m.l(b) for b in m.base.objects()}
    f2 = None
    if braiding_el is not None:
        f2 = {
            ((x, p), (y, q)): _el_mid_swap(em, x, p, y, q, braiding_el[(p, y)])
            for x, p, y, q in itertools.product(range(e.n_objects), repeat=4)
        }
    return UnitalAction(em, e, em.tensor, em.unit_obj, xi_el, xi_bg, f2)


class _MidSwapTable(LazyPairTable):
    """The f2 of a center's evaluation action: a ``LazyPairTable`` over the
    center object pairs (i, j), each spread over the host object pairs
    (p, q) and keyed ((i, p), (j, q)), iterated in (i, j, p, q) order."""

    __slots__ = ("_nM",)

    def __init__(self, n: int, nM: int, entry):
        super().__init__(n, entry)
        self._nM = nM

    def __contains__(self, key) -> bool:
        try:
            (i, p), (j, q) = key
            return super().__contains__((i, j)) and 0 <= p < self._nM and 0 <= q < self._nM
        except (TypeError, ValueError):
            return False

    def __iter__(self):
        r, s = range(self._n), range(self._nM)
        return (((i, p), (j, q)) for i, j, p, q in itertools.product(r, r, s, s))

    def __len__(self) -> int:
        return super().__len__() * self._nM * self._nM


def _center_evaluation_action(res: CenterResult, em: EnrichedMonoidalCategory,
                              carriers: list, swap, unit_obj: int) -> UnitalAction:
    """A center acting on its host by tensoring with the carrier.

    carriers[i] is the host object under center object i, and swap(j, p)
    the element 1 -> hom(p @ carriers[j], carriers[j] @ p) that makes the
    action monoidal. Each f2 cell is computed when it is first read.
    """
    e = em.host
    f2 = _MidSwapTable(len(carriers), e.n_objects, lambda ip, jq: _el_mid_swap(
        em, carriers[ip[0]], ip[1], carriers[jq[0]], jq[1], swap(jq[0], ip[1])))
    # The unit isomorphism is the one of em acting on itself.
    tensor = tensor_action(em)
    return UnitalAction(
        res.category.host, e, e0_ev(res), unit_obj, tensor.xi_el, tensor.xi_bg, f2
    )


def gamma1_evaluation_action(res: CenterResult,
                             em: EnrichedMonoidalCategory) -> UnitalAction:
    """The E1 center acting on its own host by tensoring with the carrier;
    odot is ``e0_ev(res)``, as for E0."""
    objs = res.witnesses["objects"]
    return _center_evaluation_action(
        res, em, [x for x, _ in objs],
        lambda j, p: objs[j][1].components[p], res.witnesses["unit_obj"],
    )


def gamma2_evaluation_action(res: CenterResult,
                             eb: EnrichedBraidedCategory) -> UnitalAction:
    """The E2 center acting on its own host by tensoring with the carrier;
    odot is ``e0_ev(res)``, as for E0."""
    em = eb.host
    objs = res.witnesses["objects"]
    return _center_evaluation_action(
        res, em, objs, lambda j, p: eb.braiding_el[(p, objs[j])],
        objs.index(em.unit_obj),
    )
