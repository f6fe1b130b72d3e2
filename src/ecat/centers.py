"""Centers of enriched categories at the three levels E0, E1 and E2.

The E0 center of an enriched category collects its endofunctors, with hom
objects the terminal half-braided families between two endofunctors; it is
a strict monoidal category enriched over the ordinary center of the base.
The E1 center of an enriched monoidal category collects the objects that
carry an enriched half-braiding, enriched over the Mueger center of the
base via terminal bracket pairs. The E2 center of an enriched braided
category is the full subcategory of transparent objects.

Every terminality certificate produced here can be re-checked by an
exhaustive morphism scan, and every universal-property verifier counts
the mediating isomorphisms by brute force.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ecat.actions import (
    ModuleAction,
    ModuleFunctor,
    MonoidalModuleCells,
    check_module_functor,
    check_module_nat,
    compose_module_functors,
)
from ecat.canonical import (
    canonical_braided,
    canonical_construction,
    canonical_monoidal,
)
from ecat.core import FinCategory, Functor, NatTransf, check_nat_transf, product_category
from ecat.enriched import (
    EnrichedCategory,
    EnrichedFunctor,
    EnrichedNat,
    cartesian_product_enriched,
    check_enriched_functor,
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
    EnrichedHalfBraiding,
    EnrichedMonoidalCategory,
    enumerate_enriched_half_braidings,
    underlying_half_braiding,
    underlying_monoidal,
)
from ecat.monoidal import (
    BraidedStructure,
    HalfBraidingOrd,
    LaxMonoidalFunctor,
    LaxMonoidalNat,
    MonoidalCategory,
    braided_tensor_lax_structure,
    check_lax_monoidal_functor,
    drinfeld_center_z1,
    find_inverse,
    full_monoidal_subcategory,
    identity_lax,
    inv,
    is_transparent,
    mid_swap,
    muger_center_z2,
    muger_centralizer,
    product_monoidal,
)
from ecat.report import Budget, StructureError, ValidationReport


# --- element-level helpers ---


def _mor_inv(c: FinCategory, f: int) -> int:
    g = find_inverse(c, f)
    if g is None:
        raise StructureError(f"morphism {f} is not invertible")
    return g


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


def _el_inv(e: EnrichedCategory, u, x: int, y: int, el: int) -> int:
    """Invert an element through the underlying category."""
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


def _el_mid_swap(em: EnrichedMonoidalCategory, u, a1: int, a2: int, b1: int,
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
              _el_inv(e, u, t(t(a2, b1), b2), t(a2, t(b1, b2)),
                      em.a_el(a2, b1, b2))),
        _t_el(em, a1, a1, t(t(a2, b1), b2), t(t(b1, a2), b2),
              e.one(a1), _t_el(em, t(a2, b1), t(b1, a2), b2, b2,
                               swap_el, e.one(b2))),
        _t_el(em, a1, a1, t(t(b1, a2), b2), t(b1, t(a2, b2)),
              e.one(a1), em.a_el(b1, a2, b2)),
        _el_inv(e, u, t(t(a1, b1), t(a2, b2)), t(a1, t(b1, t(a2, b2))),
                em.a_el(a1, b1, t(a2, b2))),
    ]
    return _el_path(e, objs, els)


# --- endofunctor enumeration ---


def _identity_background_laws(src: EnrichedCategory, tgt: EnrichedCategory,
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


def enumerate_identity_background_functors(
    src: EnrichedCategory, tgt: EnrichedCategory, cap: int | None = None
) -> list:
    """All enriched functors src -> tgt whose background is the identity.

    Enumeration is exhaustive: a call that returns has seen every candidate
    object map and component family, so the list is complete.
    """
    if src.base != tgt.base:
        raise StructureError("functor enumeration needs a shared base")
    m = src.base
    c = m.base
    budget = Budget(cap, "enriched endofunctor enumeration")
    bg = identity_lax(m)
    keys = list(itertools.product(src.objects(), repeat=2))
    found = []
    for obj_map in itertools.product(tgt.objects(), repeat=src.n_objects):
        pools = []
        for x, y in keys:
            pool = c.hom(src.hom(x, y), tgt.hom(obj_map[x], obj_map[y]))
            if not pool:
                pools = None
                break
            pools.append(sorted(pool))
        if pools is None:
            continue
        for combo in itertools.product(*pools):
            budget.spend()
            comps = dict(zip(keys, combo))
            if _identity_background_laws(src, tgt, obj_map, comps):
                found.append(EnrichedFunctor(bg, src, tgt, obj_map, comps))
    return found


def _functor_key(f: EnrichedFunctor) -> tuple:
    return (tuple(f.obj_map), tuple(sorted(f.components.items())))


# --- half-braided families between endofunctors ---


@dataclass
class PFGObject:
    """A family of morphisms I(a) -> hom(Fx, Gx) sliding past every hom.

    z_obj indexes an object of the ordinary center of the base; the family
    must make the two routes hom(x,y) @ I(a) -> hom(Fx, Gy) agree for all
    pairs (x, y)."""

    z_obj: int
    components: tuple


@dataclass
class PFGResult:
    """The category of half-braided families between two endofunctors."""

    cat: FinCategory
    objects: tuple
    morphisms: tuple  # position -> (p, q, base morphism of the center)
    z1: object
    functors: tuple


@dataclass
class BracketFG:
    """A terminal half-braided family, with its mediator certificates."""

    obj: int
    components: tuple
    mediators: dict  # family position -> morphism in the center base
    pfg: PFGResult


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


def build_PFG(e: EnrichedCategory, fF: EnrichedFunctor, fG: EnrichedFunctor,
              z1=None, cap: int | None = None) -> PFGResult:
    """The category of half-braided families from fF to fG.

    Objects pair a center object a with a family I(a) -> hom(Fx, Gx);
    morphisms are center morphisms compatible with both families. The
    identities and composition are inherited from the center.
    """
    z1 = z1 or drinfeld_center_z1(e.base, Budget(cap, "ordinary center"))
    m = e.base
    c = m.base
    zc = z1.monoidal.base
    budget = Budget(cap, "half-braided family enumeration")
    fwd = z1.forgetful
    objects = []
    for i, (_, hb) in enumerate(z1.object_data):
        ia = fwd.on_obj(i)
        pools = []
        for x in e.objects():
            pool = c.hom(ia, e.hom(fF.on_obj(x), fG.on_obj(x)))
            if not pool:
                pools = None
                break
            pools.append(sorted(pool))
        if pools is None:
            continue
        for combo in itertools.product(*pools):
            budget.spend()
            comps = dict(enumerate(combo))
            if _family_square_ok(e, fF, fG, hb, comps):
                objects.append(PFGObject(i, combo))
    morphisms = []
    for p, src in enumerate(objects):
        for q, tgt in enumerate(objects):
            for k in zc.hom(src.z_obj, tgt.z_obj):
                budget.spend()
                under = fwd.on_mor(k)
                if all(
                    c.comp(tgt.components[x], under) == src.components[x]
                    for x in e.objects()
                ):
                    morphisms.append((p, q, k))
    mor_index = {key: pos for pos, key in enumerate(morphisms)}
    dom = tuple(p for p, _, _ in morphisms)
    cod = tuple(q for _, q, _ in morphisms)
    identity = tuple(
        mor_index[(p, p, zc.identity[obj.z_obj])] for p, obj in enumerate(objects)
    )
    compose = {}
    for gi, (q1, r, kg) in enumerate(morphisms):
        for fi, (p, q2, kf) in enumerate(morphisms):
            if q1 == q2:
                compose[(gi, fi)] = mor_index[(p, r, zc.comp(kg, kf))]
    cat = FinCategory(len(objects), dom, cod, identity, compose)
    return PFGResult(cat, tuple(objects), tuple(morphisms), z1, (fF, fG))


def terminal_family(pfg: PFGResult) -> BracketFG | None:
    """The terminal half-braided family, if one exists."""
    incoming = {q: {} for q in range(len(pfg.objects))}
    for p, q, k in pfg.morphisms:
        incoming[q].setdefault(p, []).append(k)
    for q, obj in enumerate(pfg.objects):
        ok = all(
            len(incoming[q].get(p, ())) == 1 for p in range(len(pfg.objects))
        )
        if ok:
            mediators = {p: ks[0] for p, ks in incoming[q].items()}
            return BracketFG(obj.z_obj, obj.components, mediators, pfg)
    return None


def check_bracket_terminal(bracket: BracketFG) -> ValidationReport:
    """Re-verify a terminality certificate by exhaustive morphism scan."""
    report = ValidationReport("terminal half-braided family")
    pfg = bracket.pfg
    pos = None
    for q, obj in enumerate(pfg.objects):
        if obj.z_obj == bracket.obj and obj.components == bracket.components:
            pos = q
            break
    if pos is None:
        report.add("bracket-object-missing", ())
        return report
    for p in range(len(pfg.objects)):
        hits = [k for (pp, qq, k) in pfg.morphisms if pp == p and qq == pos]
        if len(hits) != 1:
            report.add("bracket-not-terminal", (p,), f"{len(hits)} morphisms")
        elif hits[0] != bracket.mediators.get(p):
            report.add("bracket-wrong-mediator", (p,))
    return report


@dataclass
class StarResult:
    """Per-pair terminal families over a fixed endofunctor list."""

    functors: tuple
    brackets: dict  # (i, j) -> BracketFG or None
    z1: object


def condition_star(e: EnrichedCategory, cap: int | None = None) -> StarResult:
    """Check whether every endofunctor pair has a terminal family."""
    z1 = drinfeld_center_z1(e.base, Budget(cap, "ordinary center"))
    functors = enumerate_identity_background_functors(e, e, cap)
    brackets = {}
    for i, fF in enumerate(functors):
        for j, fG in enumerate(functors):
            pfg = build_PFG(e, fF, fG, z1, cap)
            brackets[(i, j)] = terminal_family(pfg)
    return StarResult(tuple(functors), brackets, z1)


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


def e0_center(e: EnrichedCategory, cap: int | None = None) -> CenterResult:
    """The strict monoidal category of endofunctors enriched over the
    ordinary center of the base.

    Hom objects are the terminal half-braided families; composition,
    identities and tensor cells are the unique mediators of the evident
    composite families. Raises StructureError when some pair has no
    terminal family.
    """
    star = condition_star(e, cap)
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
    n = len(functors)
    fun_index = {_functor_key(f): i for i, f in enumerate(functors)}

    hom_obj = {(i, j): brackets[(i, j)].obj for i, j in brackets}
    ident = {}
    for i, fF in enumerate(functors):
        family = {x: e.one(fF.on_obj(x)) for x in e.objects()}
        ident[i] = _mediate_family(e, z1, brackets[(i, i)], zmon.unit, family)
    comp = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        a, b = brackets[(i, j)], brackets[(j, k)]
        family = {}
        for x in e.objects():
            fx = (functors[i].on_obj(x), functors[j].on_obj(x), functors[k].on_obj(x))
            family[x] = c.comp(
                e.c(*fx), m.t_mor(b.components[x], a.components[x])
            )
        comp[(i, j, k)] = _mediate_family(
            e, z1, brackets[(i, k)], zmon.t_obj(b.obj, a.obj), family
        )
    host = EnrichedCategory(zmon, n, hom_obj, ident, comp)

    t_obj = {}
    for i, j in itertools.product(range(n), repeat=2):
        key = _functor_key(compose_enriched_functors(functors[i], functors[j]))
        if key not in fun_index:
            raise StructureError(f"endofunctor list not closed under composition at {(i, j)}")
        t_obj[(i, j)] = fun_index[key]
    cells = {}
    for i, j in itertools.product(range(n), repeat=2):
        for k, l in itertools.product(range(n), repeat=2):
            a, b = brackets[(i, k)], brackets[(j, l)]
            family = {}
            for x in e.objects():
                jx, lx = functors[j].on_obj(x), functors[l].on_obj(x)
                ij_x = functors[i].on_obj(jx)
                il_x = functors[i].on_obj(lx)
                kl_x = functors[k].on_obj(lx)
                family[x] = c.comp(
                    e.c(ij_x, il_x, kl_x),
                    m.t_mor(
                        a.components[lx],
                        c.comp(functors[i].at(jx, lx), b.components[x]),
                    ),
                )
            cells[(i * n + j, k * n + l)] = _mediate_family(
                e, z1, brackets[(t_obj[(i, j)], t_obj[(k, l)])],
                zmon.t_obj(a.obj, b.obj), family,
            )
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


def e0_ev(res: CenterResult) -> EnrichedFunctor:
    """The evaluation action of the E0 center on its host category."""
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


def enriched_tables_equal(e1: EnrichedCategory, e2: EnrichedCategory) -> bool:
    return (
        e1.base == e2.base
        and e1.n_objects == e2.n_objects
        and e1.hom_obj == e2.hom_obj
        and e1.ident == e2.ident
        and e1.comp == e2.comp
    )


def enriched_iso_search(
    e1: EnrichedCategory, e2: EnrichedCategory, cap: int | None = None
) -> EnrichedFunctor | None:
    """An identity-background enriched isomorphism e1 -> e2, if any.

    Searches object bijections and invertible hom components exhaustively.
    """
    if e1.base != e2.base:
        return None
    if e1.n_objects != e2.n_objects:
        return None
    m = e1.base
    c = m.base
    budget = Budget(cap, "enriched isomorphism search")
    bg = identity_lax(m)
    keys = list(itertools.product(e1.objects(), repeat=2))
    for perm in itertools.permutations(range(e1.n_objects)):
        pools = []
        for x, y in keys:
            pool = [
                f
                for f in c.hom(e1.hom(x, y), e2.hom(perm[x], perm[y]))
                if find_inverse(c, f) is not None
            ]
            if not pool:
                pools = None
                break
            pools.append(sorted(pool))
        if pools is None:
            continue
        for combo in itertools.product(*pools):
            budget.spend()
            comps = dict(zip(keys, combo))
            if _identity_background_laws(e1, e2, perm, comps):
                return EnrichedFunctor(bg, e1, e2, perm, comps)
    return None


# --- the E0 center through module endofunctors ---


def _enumerate_module_endofunctors(mod: ModuleAction, cap: int | None) -> list:
    from ecat.core import enumerate_functors

    budget = Budget(cap, "module endofunctor enumeration")
    cc = mod.carrier
    mb = mod.base.base
    found = []
    for fun in enumerate_functors(cc, cc, cap):
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
            mf = ModuleFunctor(mod, mod, fun, dict(zip(keys, combo)))
            if check_module_functor(mf).ok:
                found.append(mf)
    return found


def _module_functor_key(mf: ModuleFunctor) -> tuple:
    return (
        tuple(mf.functor.obj_map),
        tuple(mf.functor.mor_map),
        tuple(sorted(mf.cells.items())),
    )


def e0_center_via_module(mod: ModuleAction, cap: int | None = None) -> CenterResult:
    """The E0 center presented through the canonical construction.

    The lax module endofunctors of mod form a category acted on by the
    ordinary center of the base; the canonical construction on that action
    yields an enriched category, shipped with the strict tensor table
    given by endofunctor composition.
    """
    z1 = drinfeld_center_z1(mod.base, Budget(cap, "ordinary center"))
    if not mod.strongly_associative:
        raise StructureError("module endofunctor action needs strong associativity")
    cc = mod.carrier
    m = mod.base
    c = m.base
    zmon = z1.monoidal
    zc = zmon.base
    fwd = z1.forgetful
    budget = Budget(cap, "module endofunctor category")

    mfs = _enumerate_module_endofunctors(mod, cap)
    mf_index = {_module_functor_key(mf): i for i, mf in enumerate(mfs)}
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
    nat_index = {key: pos for pos, key in enumerate(nats)}
    dom = tuple(i for i, _, _ in nats)
    cod = tuple(j for _, j, _ in nats)
    identity = tuple(
        nat_index[(i, i, tuple(cc.identity[x] for x in mf.functor.obj_map))]
        for i, mf in enumerate(mfs)
    )
    compose = {}
    for gi, (j1, k, gc) in enumerate(nats):
        for fi, (i, j2, fc) in enumerate(nats):
            if j1 == j2:
                comps = tuple(
                    cc.comp(gc[x], fc[x]) for x in cc.objects()
                )
                compose[(gi, fi)] = nat_index[(i, k, comps)]
    funcat = FinCategory(len(mfs), dom, cod, identity, compose)

    def acted_functor(zi: int, mf: ModuleFunctor) -> ModuleFunctor:
        ia = fwd.on_obj(zi)
        hb = z1.object_data[zi][1]
        h_obj = tuple(mod.a_obj(ia, x) for x in cc.objects())
        h_mor = tuple(mod.a_mor(c.identity[ia], p) for p in cc.morphisms())
        cells = {}
        for b in c.objects():
            for x in cc.objects():
                cells[(b, x)] = cc.comp_many(
                    mod.o(ia, b, x),
                    mod.a_mor(hb.components[b], cc.identity[x]),
                    _mor_inv(cc, mod.o(b, ia, x)),
                )
        h = ModuleFunctor(mod, mod, Functor(cc, cc, h_obj, h_mor), cells)
        return compose_module_functors(h, mf)

    act_obj = []
    for zi in zc.objects():
        for k in range(len(mfs)):
            key = _module_functor_key(acted_functor(zi, mfs[k]))
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

    def nat_of(i: int, j: int, comps: tuple) -> int:
        return nat_index[(i, j, comps)]

    oplax_assoc = {}
    for zi, zj in itertools.product(zc.objects(), repeat=2):
        for k in range(nf):
            src = act_obj[zmon.t_obj(zi, zj) * nf + k]
            tgt = act_obj[zi * nf + act_obj[zj * nf + k]]
            comps = tuple(
                mod.o(fwd.on_obj(zi), fwd.on_obj(zj), mfs[k].functor.obj_map[x])
                for x in cc.objects()
            )
            oplax_assoc[(zi, zj, k)] = nat_of(src, tgt, comps)
    oplax_unitor = []
    for k in range(nf):
        src = act_obj[zmon.unit * nf + k]
        comps = tuple(mod.u(mfs[k].functor.obj_map[x]) for x in cc.objects())
        oplax_unitor.append(nat_of(src, k, comps))
    fmod = ModuleAction(
        zmon, funcat, act, oplax_assoc, tuple(oplax_unitor),
        mod.strongly_associative, mod.strongly_unital,
    )
    can = canonical_construction(fmod, Budget(cap, "module endofunctor homs"))
    t_obj = {}
    for i, j in itertools.product(range(nf), repeat=2):
        t_obj[(i, j)] = mf_index[
            _module_functor_key(compose_module_functors(mfs[i], mfs[j]))
        ]
    unit_idx = mf_index[
        _module_functor_key(
            ModuleFunctor(
                mod, mod, Functor(cc, cc, tuple(cc.objects()), tuple(cc.morphisms())),
                {
                    (a, x): cc.identity[mod.a_obj(a, x)]
                    for a in c.objects()
                    for x in cc.objects()
                },
            )
        )
    ]
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
                      cap: int | None = None) -> dict:
    """Match the endofunctor presentation against the module presentation.

    Finds an identity-background enriched isomorphism and transports the
    strict tensor tables and units across it.
    """
    host = direct.category.host
    iso = enriched_iso_search(host, via.category, cap)
    out = {
        "iso": iso,
        "strict": enriched_tables_equal(host, via.category),
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


@dataclass
class PairObject:
    """A transparent object together with a morphism into a hom object.

    z_obj indexes an object of the transparent subcategory of the base;
    zeta maps its underlying object into hom(x, y) and must slide past the
    half-braidings of x and y on every tensor factor."""

    z_obj: int
    zeta: int


@dataclass
class PairResult:
    """The category of bracket pairs between two half-braided objects."""

    objects: tuple
    morphisms: tuple  # position -> (p, q, morphism of the transparent base)
    z2: tuple
    carriers: tuple  # ((x, hb_x), (y, hb_y))


@dataclass
class BracketXY:
    """A terminal bracket pair, with its mediator certificates."""

    obj: int
    zeta: int
    mediators: dict  # pair position -> morphism in the transparent base
    pairs: PairResult


def _bracket_square_ok(em: EnrichedMonoidalCategory, oi, oj, a_host: int,
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


def bracket_pair(em: EnrichedMonoidalCategory, z2: tuple, oi, oj,
                 cap: int | None = None) -> BracketXY | None:
    """The terminal bracket pair from oi to oj, if one exists.

    Objects pair a transparent base object with a morphism into
    hom(x, y) satisfying the sliding square; morphisms come from the
    transparent subcategory and must commute with both legs.
    """
    z2mon, _, z2incl = z2
    e = em.host
    c = e.base.base
    budget = Budget(cap, "bracket pair enumeration")
    x, y = oi[0], oj[0]
    objects = []
    for az in z2mon.base.objects():
        a_host = z2incl.on_obj(az)
        for zeta in sorted(c.hom(a_host, e.hom(x, y))):
            budget.spend()
            if _bracket_square_ok(em, oi, oj, a_host, zeta):
                objects.append(PairObject(az, zeta))
    morphisms = []
    for p, src in enumerate(objects):
        for q, tgt in enumerate(objects):
            for g in z2mon.base.hom(src.z_obj, tgt.z_obj):
                budget.spend()
                if c.comp(tgt.zeta, z2incl.on_mor(g)) == src.zeta:
                    morphisms.append((p, q, g))
    pairs = PairResult(tuple(objects), tuple(morphisms), z2, (oi, oj))
    incoming = {q: {} for q in range(len(objects))}
    for p, q, g in morphisms:
        incoming[q].setdefault(p, []).append(g)
    for q, obj in enumerate(objects):
        if all(len(incoming[q].get(p, ())) == 1 for p in range(len(objects))):
            mediators = {p: gs[0] for p, gs in incoming[q].items()}
            return BracketXY(obj.z_obj, obj.zeta, mediators, pairs)
    return None


def check_bracket_pair_terminal(bracket: BracketXY) -> ValidationReport:
    """Re-verify a bracket-pair terminality certificate exhaustively."""
    report = ValidationReport("terminal bracket pair")
    pairs = bracket.pairs
    pos = None
    for q, obj in enumerate(pairs.objects):
        if obj.z_obj == bracket.obj and obj.zeta == bracket.zeta:
            pos = q
            break
    if pos is None:
        report.add("bracket-object-missing", ())
        return report
    for p in range(len(pairs.objects)):
        hits = [g for (pp, qq, g) in pairs.morphisms if pp == p and qq == pos]
        if len(hits) != 1:
            report.add("bracket-not-terminal", (p,), f"{len(hits)} morphisms")
        elif hits[0] != bracket.mediators.get(p):
            report.add("bracket-wrong-mediator", (p,))
    return report


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


def gamma1(em: EnrichedMonoidalCategory, cap: int | None = None) -> CenterResult:
    """The braided category of half-braided objects enriched over the
    transparent subcategory of the base.

    Objects are pairs of a host object with an enriched half-braiding; hom
    objects are terminal bracket pairs; all structure elements are the
    unique factorings of the corresponding host elements.
    """
    e = em.host
    m = e.base
    c = m.base
    u = underlying_category(e)
    um = underlying_monoidal(em, u)
    cc = u.cat
    z2 = muger_center_z2(em.braiding)
    z2mon, z2br, z2incl = z2

    objs = []
    for x in e.objects():
        for hb in enumerate_enriched_half_braidings(em, x, cap):
            objs.append((x, hb))
    obj_index = {
        (x, tuple(sorted(hb.components.items()))): i
        for i, (x, hb) in enumerate(objs)
    }
    n = len(objs)

    brackets = {}
    for i, j in itertools.product(range(n), repeat=2):
        br = bracket_pair(em, z2, objs[i], objs[j], cap)
        if br is None:
            raise StructureError(f"no terminal bracket pair at {(i, j)}")
        brackets[(i, j)] = br

    hom_obj = {p: br.obj for p, br in brackets.items()}
    ident = {
        i: _factor_element(z2, e, brackets[(i, i)], z2mon.unit, e.one(x))
        for i, (x, _) in enumerate(objs)
    }
    comp = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        bjk, bij = brackets[(j, k)], brackets[(i, j)]
        route = c.comp(
            e.c(objs[i][0], objs[j][0], objs[k][0]),
            m.t_mor(bjk.zeta, bij.zeta),
        )
        comp[(i, j, k)] = _factor_element(
            z2, e, brackets[(i, k)], z2mon.t_obj(bjk.obj, bij.obj), route
        )
    host = EnrichedCategory(z2mon, n, hom_obj, ident, comp)

    t1 = {}
    for i, j in itertools.product(range(n), repeat=2):
        (x, hbx), (y, hby) = objs[i], objs[j]
        gx = underlying_half_braiding(em, hbx, u)
        gy = underlying_half_braiding(em, hby, u)
        comps = {}
        for z in e.objects():
            k = cc.comp_many(
                inv(um, um.a(x, y, z)),
                um.t_mor(cc.identity[x], gy.components[z]),
                um.a(x, z, y),
                um.t_mor(gx.components[z], cc.identity[y]),
                inv(um, um.a(z, x, y)),
            )
            comps[z] = u.elements[k][2]
        pos = obj_index.get((em.t(x, y), tuple(sorted(comps.items()))))
        if pos is None:
            raise StructureError(
                f"tensor of half-braided objects not recognized at {(i, j)}"
            )
        t1[(i, j)] = pos
    unit_comps = {}
    for z in e.objects():
        k = cc.comp(inv(um, um.l(z)), um.r(z))
        unit_comps[z] = u.elements[k][2]
    unit_idx = obj_index.get((em.unit_obj, tuple(sorted(unit_comps.items()))))
    if unit_idx is None:
        raise StructureError("unit half-braiding not recognized")

    cells = {}
    for i, j in itertools.product(range(n), repeat=2):
        for k, l in itertools.product(range(n), repeat=2):
            bik, bjl = brackets[(i, k)], brackets[(j, l)]
            route = c.comp(
                em.t_cell(objs[i][0], objs[j][0], objs[k][0], objs[l][0]),
                m.t_mor(bik.zeta, bjl.zeta),
            )
            cells[(i * n + j, k * n + l)] = _factor_element(
                z2, e, brackets[(t1[(i, j)], t1[(k, l)])],
                z2mon.t_obj(bik.obj, bjl.obj), route,
            )
    tensor = EnrichedFunctor(
        braided_tensor_lax_structure(z2br),
        cartesian_product_enriched(host, host),
        host,
        tuple(t1[(i, j)] for i in range(n) for j in range(n)),
        cells,
    )

    assoc = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        br = brackets[(t1[(t1[(i, j)], k)], t1[(i, t1[(j, k)])])]
        assoc[(i, j, k)] = _factor_element(
            z2, e, br, z2mon.unit,
            em.a_el(objs[i][0], objs[j][0], objs[k][0]),
        )
    left = tuple(
        _factor_element(
            z2, e, brackets[(t1[(unit_idx, i)], i)], z2mon.unit,
            em.l_el(objs[i][0]),
        )
        for i in range(n)
    )
    right = tuple(
        _factor_element(
            z2, e, brackets[(t1[(i, unit_idx)], i)], z2mon.unit,
            em.r_el(objs[i][0]),
        )
        for i in range(n)
    )
    braid = {}
    for i, j in itertools.product(range(n), repeat=2):
        braid[(i, j)] = _factor_element(
            z2, e, brackets[(t1[(i, j)], t1[(j, i)])], z2mon.unit,
            objs[j][1].components[objs[i][0]],
        )
    symmetric = all(
        _el_comp(
            host, t1[(i, j)], t1[(j, i)], t1[(i, j)],
            braid[(j, i)], braid[(i, j)],
        )
        == ident[t1[(i, j)]]
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


def gamma1_of_canonical(mm: MonoidalModuleCells, cap: int | None = None) -> dict:
    """Compute the E1 center of a canonical category along both routes.

    The direct route applies the half-braided-object construction to the
    canonical enriched monoidal category. The other route forms the
    ordinary center of the carrier, takes the centralizer of the image of
    the base acting on the carrier unit, and rebuilds a canonical category
    from the induced module over the transparent subcategory of the base.
    Returns both results with an isomorphism between them when one exists.
    """
    can = canonical_construction(mm.module, Budget(cap, "internal hom search"))
    em = canonical_monoidal(mm, can)
    direct = gamma1(em, cap)

    mod = mm.module
    mA = mod.base
    ca = mA.base
    lm = mm.carrier_monoidal
    cc = mod.carrier
    z1m = drinfeld_center_z1(lm, Budget(cap, "carrier center"))
    zm = z1m.monoidal
    zc = zm.base
    fwd = z1m.forgetful
    z1_obj_index = {
        (x, tuple(sorted(hb.components.items()))): i
        for i, (x, hb) in enumerate(z1m.object_data)
    }
    z1_mor_index = {
        (zc.dom[k], zc.cod[k], fwd.on_mor(k)): k for k in zc.morphisms()
    }

    def lift_mor(zsrc: int, ztgt: int, f: int) -> int:
        k = z1_mor_index.get((zsrc, ztgt, f))
        if k is None:
            raise StructureError(
                "carrier morphism does not lift to the carrier center"
            )
        return k

    phi_obj = []
    for a in ca.objects():
        x = mod.a_obj(a, lm.unit)
        comps = {}
        for z in cc.objects():
            comps[z] = cc.comp_many(
                lm.t_mor(cc.identity[x], mod.u(z)),
                mm.i(a, mA.unit, lm.unit, z),
                mod.a_mor(_mor_inv(ca, mA.r(a)), _mor_inv(cc, lm.l(z))),
                mod.a_mor(mA.l(a), lm.r(z)),
                _mor_inv(cc, mm.i(mA.unit, a, z, lm.unit)),
                lm.t_mor(_mor_inv(cc, mod.u(z)), cc.identity[x]),
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
            _mor_inv(cc, mm.i(a, b, lm.unit, lm.unit)),
        )
        phi2[(a, b)] = lift_mor(
            zm.t_obj(phi_obj[a], phi_obj[b]), phi_obj[mA.t_obj(a, b)], g
        )
    phi0 = lift_mor(zm.unit, phi_obj[mA.unit], _mor_inv(cc, mod.u(lm.unit)))

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
                zm.t_mor(_mor_inv(zc, phi2[(a, b)]), zc.identity[ix]),
            )
            oplax_assoc[(a2, b2, x)] = sub_mor[g]
    oplax_unit = []
    for x in submon.base.objects():
        ix = subincl.on_obj(x)
        g = zc.comp(zm.l(ix), zm.t_mor(_mor_inv(zc, phi0), zc.identity[ix]))
        oplax_unit.append(sub_mor[g])
    strong_a = all(
        find_inverse(submon.base, f) is not None for f in oplax_assoc.values()
    )
    strong_u = all(find_inverse(submon.base, f) is not None for f in oplax_unit)
    modB = ModuleAction(
        z2mon, submon.base, act, oplax_assoc, tuple(oplax_unit),
        strong_a, strong_u,
    )
    canB = canonical_construction(modB, Budget(cap, "internal hom search"))
    host = direct.category.host.host
    return {
        "gamma1": direct,
        "module_side": canB,
        "iso": enriched_iso_search(host, canB.enriched, cap),
        "strict": enriched_tables_equal(host, canB.enriched),
    }


# --- the E2 center ---


def _underlying_braided(eb: EnrichedBraidedCategory):
    """The braiding on the underlying monoidal category, plus witnesses."""
    em = eb.host
    e = em.host
    u = underlying_category(e)
    um = underlying_monoidal(em, u)
    comps = {
        (x, y): u.index[(em.t(x, y), em.t(y, x), eb.braiding_el[(x, y)])]
        for x, y in itertools.product(e.objects(), repeat=2)
    }
    sym = all(
        u.cat.comp(comps[(y, x)], comps[(x, y)])
        == u.cat.identity[um.t_obj(x, y)]
        for x, y in itertools.product(e.objects(), repeat=2)
    )
    return BraidedStructure(um, comps, sym), u, um


def gamma2(eb: EnrichedBraidedCategory, cap: int | None = None) -> CenterResult:
    """The full subcategory of transparent objects, with the restricted
    enriched monoidal structure; its braiding is symmetric."""
    em = eb.host
    e = em.host
    m = e.base
    c = m.base
    bs, u, um = _underlying_braided(eb)
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
    cap: int | None = None,
) -> dict:
    """Compute the E2 center of a canonical braided category both ways.

    One route restricts the canonical braided category to its transparent
    objects; the other restricts the module to the transparent subcategory
    of the carrier first and rebuilds the canonical braided category.
    Returns both with an exact comparison of all tables.
    """
    can = canonical_construction(mm.module, Budget(cap, "internal hom search"))
    eb = canonical_braided(mm, carrier_braiding, can, carrier_braiding.symmetric_flag)
    side1 = gamma2(eb, cap)

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
    mm2 = MonoidalModuleCells(
        mod2, mm.base_braiding, subL, interchange, sub_mor[mm.unit_cell]
    )
    eb2 = canonical_braided(mm2, subbr, None, True)
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
    f2[((x,m),(y,n))] : 1 -> hom((x.m) @ (y.n), (x@y).(m@n)).
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
    details: dict = field(default_factory=dict)

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


def verify_e0_universal(e: EnrichedCategory, action: UnitalAction,
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
    for v in check_enriched_functor(ecphi).violations:
        report.add("comparison-functor-" + v.law, v.instance, v.detail)

    fam = {
        x: _el_inv(e, u_e, odot_obj(unit_l, x), x, action.xi_el[x])
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
    fun1 = compose_enriched_functors(
        ev, product_enriched_functor(ecphi, identity_enriched_functor(e))
    )
    nat = NatTransf(
        fun1.background.functor, bg.functor,
        tuple(rho_bg[(a, b)] for a in ca.objects() for b in c.objects()),
    )
    ecrho = EnrichedNat(
        LaxMonoidalNat(fun1.background, bg, nat), fun1, action.odot, rho_el
    )
    for v in check_enriched_nat(ecrho).violations:
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
            if not check_enriched_nat(
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
    details = {"phi": ecphi, "sigma": sigma, "rho_bg": rho_bg, "center": res}
    return TheoremReport(report, count, details)


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
        u = underlying_category(e)
        f2 = {
            ((x, p), (y, q)): _el_mid_swap(em, u, x, p, y, q, braiding_el[(p, y)])
            for x, p, y, q in itertools.product(range(e.n_objects), repeat=4)
        }
    return UnitalAction(em, e, em.tensor, em.unit_obj, xi_el, xi_bg, f2)


def gamma1_evaluation_action(res: CenterResult,
                             em: EnrichedMonoidalCategory) -> UnitalAction:
    """The E1 center acting on its host by tensoring with the carrier."""
    e = em.host
    m = e.base
    u = underlying_category(e)
    odot = compose_enriched_functors(
        em.tensor,
        product_enriched_functor(res.forgetful, identity_enriched_functor(e)),
    )
    objs = res.witnesses["objects"]
    f2 = {}
    for i, (xa, _) in enumerate(objs):
        for j, (xb, hbb) in enumerate(objs):
            for p, q in itertools.product(range(e.n_objects), repeat=2):
                f2[((i, p), (j, q))] = _el_mid_swap(
                    em, u, xa, p, xb, q, hbb.components[p]
                )
    xi_el = {x: em.l_el(x) for x in range(e.n_objects)}
    xi_bg = {b: m.l(b) for b in m.base.objects()}
    return UnitalAction(
        res.category.host, e, odot, res.witnesses["unit_obj"],
        xi_el, xi_bg, f2,
    )


def gamma2_evaluation_action(res: CenterResult,
                             eb: EnrichedBraidedCategory) -> UnitalAction:
    """The E2 center acting on its host by tensoring with the carrier."""
    em = eb.host
    e = em.host
    m = e.base
    u = underlying_category(e)
    odot = compose_enriched_functors(
        em.tensor,
        product_enriched_functor(res.forgetful, identity_enriched_functor(e)),
    )
    objs = res.witnesses["objects"]
    f2 = {}
    for i in range(len(objs)):
        for j, xb in enumerate(objs):
            for p, q in itertools.product(range(e.n_objects), repeat=2):
                f2[((i, p), (j, q))] = _el_mid_swap(
                    em, u, objs[i], p, xb, q, eb.braiding_el[(p, xb)]
                )
    xi_el = {x: em.l_el(x) for x in range(e.n_objects)}
    xi_bg = {b: m.l(b) for b in m.base.objects()}
    return UnitalAction(
        res.category.host, e, odot, objs.index(em.unit_obj),
        xi_el, xi_bg, f2,
    )


def verify_e1_universal(em: EnrichedMonoidalCategory, action: UnitalAction,
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
        x: _el_inv(e, u_e, odot_obj(unit_l, x), x, action.xi_el[x])
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
                    _el_inv(la, u_la, laM.t(a, unit_l), a, laM.r_el(a)),
                    _el_inv(e, u_e, em.t(unit_M, mo), mo, em.l_el(mo)),
                ),
                _el_inv(
                    e, u_e, em.t(pa, odot_obj(unit_l, mo)),
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
    for v in check_enriched_functor(ecp).violations:
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

    star_op = compose_enriched_functors(
        em.tensor,
        product_enriched_functor(res.forgetful, identity_enriched_functor(e)),
    )
    fun1 = compose_enriched_functors(
        star_op, product_enriched_functor(ecp, identity_enriched_functor(e))
    )
    nat = NatTransf(
        fun1.background.functor, bg.functor,
        tuple(rho_bg[(a, b)] for a in ca.objects() for b in c.objects()),
    )
    ecrho = EnrichedNat(
        LaxMonoidalNat(fun1.background, bg, nat), fun1, action.odot, rho_el
    )
    for v in check_enriched_nat(ecrho).violations:
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
            if not check_enriched_nat(EnrichedNat(lm_nat, ecp, ecp, alpha)).ok:
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
    details = {"P": ecp, "rho_el": rho_el, "rho_bg": rho_bg, "center": res}
    return TheoremReport(report, count, details)


def verify_e2_universal(eb: EnrichedBraidedCategory, action: UnitalAction,
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
        x: _el_inv(e, u_e, odot_obj(unit_l, x), x, action.xi_el[x])
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
                    _el_inv(la, u_la, laM.t(a, unit_l), a, laM.r_el(a)),
                    _el_inv(e, u_e, em.t(unit_M, mo), mo, em.l_el(mo)),
                ),
                _el_inv(
                    e, u_e, em.t(pa, odot_obj(unit_l, mo)),
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
    for v in check_enriched_functor(ecp).violations:
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

    star_op = compose_enriched_functors(
        em.tensor,
        product_enriched_functor(res.forgetful, identity_enriched_functor(e)),
    )
    fun1 = compose_enriched_functors(
        star_op, product_enriched_functor(ecp, identity_enriched_functor(e))
    )
    nat = NatTransf(
        fun1.background.functor, bg.functor,
        tuple(rho_bg[(a, b)] for a in ca.objects() for b in c.objects()),
    )
    ecrho = EnrichedNat(
        LaxMonoidalNat(fun1.background, bg, nat), fun1, action.odot, rho_el
    )
    for v in check_enriched_nat(ecrho).violations:
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
            if not check_enriched_nat(EnrichedNat(lm_nat, ecp, ecp, alpha)).ok:
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
    details = {"P": ecp, "rho_el": rho_el, "rho_bg": rho_bg, "center": res}
    return TheoremReport(report, count, details)
