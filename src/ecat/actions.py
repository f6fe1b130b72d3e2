"""Left module actions of monoidal categories on finite categories.

Actions are oplax by default: the structure maps (a@b).x -> a.(b.x) and
1.x -> x need not be invertible. Internal homs are found by exhaustive
search for a terminal evaluation pair.

A 1-cell between actions is an r-lax functor (``RLaxStructure``) along a
lax monoidal functor r between the bases. A lax module functor between
two actions of one base is the case r = ``identity_lax``, so one type, one
checker (``check_rlax``) and one search (``_rlax_search``) serve both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ecat.core import (
    FinCategory,
    Functor,
    NatTransf,
    _check_functor_composition,
    _check_functor_typing,
    _functor_search,
    _search,
    check_functor,
    check_nat_transf,
    compose_functors,
    identity_functor,
    product_category,
    terminal_category,
)
from ecat.monoidal import (
    BraidedStructure,
    LaxMonoidalFunctor,
    LaxMonoidalNat,
    MonoidalCategory,
    _expect,
    _is_monoidal,
    _out_of_product,
    check_braided,
    check_lax_monoidal_functor,
    check_lax_monoidal_nat,
    compose_lax,
    find_inverse,
    identity_lax,
    inv,
    mid_swap,
)
from ecat.report import Budget, StructureError, ValidationReport


@dataclass(frozen=True, eq=True)
class ModuleAction:
    """A left action of base on carrier with oplax structure maps."""

    base: MonoidalCategory
    carrier: FinCategory
    act: Functor  # product_category(base.base, carrier) -> carrier
    oplax_assoc: dict  # (a,b,x) -> (a@b).x -> a.(b.x)
    oplax_unitor: tuple  # x -> (1.x -> x)
    strongly_associative: bool = False
    strongly_unital: bool = False

    def a_obj(self, a: int, x: int) -> int:
        return self.act.obj_map[a * self.carrier.n_objects + x]

    def a_mor(self, f: int, p: int) -> int:
        return self.act.mor_map[f * self.carrier.n_morphisms + p]

    def o(self, a: int, b: int, x: int) -> int:
        return self.oplax_assoc[(a, b, x)]

    def u(self, x: int) -> int:
        return self.oplax_unitor[x]


def check_module(mod: ModuleAction) -> ValidationReport:
    """The action's functor laws, the typing of the structure maps, their
    naturality, the pentagon, the unit triangles and, when asked for,
    invertibility.

    On a thin carrier any two parallel morphisms are equal, so once the
    base passes ``_is_monoidal`` and the action maps out of the product of
    the base and the carrier into the carrier, the action's composition law
    and every law after the typing hold as soon as the action and the
    structure maps are typed, and are not enumerated.
    """
    report = ValidationReport("module action")
    _check_functor_typing(mod.act, report)
    if not report.ok:
        return report
    a_cat = mod.base
    c = mod.carrier
    # on a thin carrier these laws equate parallel morphisms
    thin = c.thin and _is_monoidal(a_cat) and _out_of_product(mod.act, a_cat.base, c)
    if not thin:
        _check_functor_composition(mod.act, report)
        if not report.ok:
            return report
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

    if not thin:
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


def self_module(m: MonoidalCategory) -> ModuleAction:
    """A monoidal category acting on itself by its tensor product."""
    assoc = dict(m.associator)
    return ModuleAction(
        base=m,
        carrier=m.base,
        act=m.tensor,
        oplax_assoc=assoc,
        oplax_unitor=m.left_unitor,
        strongly_associative=True,
        strongly_unital=True,
    )


def terminal_module(m: MonoidalCategory) -> ModuleAction:
    """The unique action on the terminal category."""
    t = terminal_category()
    act = Functor(
        product_category(m.base, t), t,
        tuple(0 for _ in range(m.base.n_objects)),
        tuple(0 for _ in range(m.base.n_morphisms)),
    )
    assoc = {
        (a, b, 0): 0 for a, b in itertools.product(m.base.objects(), repeat=2)
    }
    return ModuleAction(m, t, act, assoc, (0,), True, True)


def _restricted_module(
    mod: ModuleAction, r: LaxMonoidalFunctor, incl: LaxMonoidalFunctor
) -> ModuleAction:
    """mod pulled back along the strong monoidal functor r into its base,
    then restricted to the full subcategory of its carrier that incl
    includes.

    a acts on x by r(a) acting on incl(x); each structure map is that of mod
    after the inverse comparison cell of r, read in the subcategory. Raises
    StructureError when the subcategory is not closed under the action. The
    strength flags are those of mod: restriction and a strong r keep them.
    """
    src, sub, c = r.source, incl.source.base, mod.carrier
    ca = src.base
    sub_obj = {incl.on_obj(x): x for x in sub.objects()}
    sub_mor = {incl.on_mor(p): p for p in sub.morphisms()}
    act_obj = []
    for a in ca.objects():
        for x in sub.objects():
            t = mod.a_obj(r.on_obj(a), incl.on_obj(x))
            if t not in sub_obj:
                raise StructureError("the restricted carrier is not closed under the action")
            act_obj.append(sub_obj[t])
    act_mor = [
        sub_mor[mod.a_mor(r.on_mor(f), incl.on_mor(p))]
        for f in ca.morphisms() for p in sub.morphisms()
    ]
    act = Functor(product_category(ca, sub), sub, tuple(act_obj), tuple(act_mor))

    def after(g: int, cell: int, x: int) -> int:
        """g after mod's action of the inverse of cell on incl(x)."""
        ix = incl.on_obj(x)
        return sub_mor[c.comp(g, mod.a_mor(inv(mod.base, cell), c.identity[ix]))]

    oplax_assoc = {
        (a, b, x): after(mod.o(r.on_obj(a), r.on_obj(b), incl.on_obj(x)), r.m2(a, b), x)
        for a, b in itertools.product(ca.objects(), repeat=2)
        for x in sub.objects()
    }
    oplax_unitor = tuple(
        after(mod.u(incl.on_obj(x)), r.unit_cell, x) for x in sub.objects()
    )
    return ModuleAction(
        src, sub, act, oplax_assoc, oplax_unitor,
        mod.strongly_associative, mod.strongly_unital,
    )


@dataclass(frozen=True, eq=True)
class RLaxStructure:
    """A functor F between carriers of actions over different bases,
    with comparison cells beta_{a,x}: R(a).F(x) -> F(a.x) along a
    lax monoidal functor R between the bases. Along ``identity_lax`` of a
    shared base it is a lax module functor."""

    r: LaxMonoidalFunctor  # bases: source of source-module -> base of target
    source: ModuleAction
    target: ModuleAction
    functor: Functor
    beta: dict  # (a,x) -> R(a).F(x) -> F(a.x)

    def on_obj(self, x: int) -> int:
        return self.functor.obj_map[x]

    def on_mor(self, p: int) -> int:
        return self.functor.mor_map[p]

    def b(self, a: int, x: int) -> int:
        return self.beta[(a, x)]


def check_rlax(rl: RLaxStructure) -> ValidationReport:
    report = ValidationReport("r-lax functor")
    report.extend(check_functor(rl.functor))
    if not report.ok:
        return report
    src, tgt = rl.source, rl.target
    a_cat = src.base
    cl, cm = src.carrier, tgt.carrier
    r = rl.r
    r_obj, r_mor = r.functor.obj_map, r.functor.mor_map
    f_obj, f_mor = rl.functor.obj_map, rl.functor.mor_map
    objs_a = list(a_cat.base.objects())
    typed = True
    for a, x in itertools.product(objs_a, cl.objects()):
        f = rl.beta.get((a, x))
        if f is None:
            raise StructureError(f"r-lax cell missing at {(a, x)}")
        typed &= _expect(
            report, "rlax-typing", (a, x), cm, f,
            tgt.a_obj(r_obj[a], f_obj[x]), f_obj[src.a_obj(a, x)],
        )
    if not typed:
        return report
    beta = rl.beta
    for f in a_cat.base.morphisms():
        a, ap, rf = a_cat.base.dom[f], a_cat.base.cod[f], r_mor[f]
        for p in cl.morphisms():
            x, xp = cl.dom[p], cl.cod[p]
            lhs = cm.comp(beta[(ap, xp)], tgt.a_mor(rf, f_mor[p]))
            rhs = cm.comp(f_mor[src.a_mor(f, p)], beta[(a, x)])
            if lhs != rhs:
                report.add("rlax-naturality", (f, p))
    for a in objs_a:
        ra = r_obj[a]
        id_ra = r.target.base.identity[ra]
        for b, x in itertools.product(objs_a, cl.objects()):
            fx = f_obj[x]
            lhs = cm.comp_many(
                beta[(a, src.a_obj(b, x))],
                tgt.a_mor(id_ra, beta[(b, x)]),
                tgt.o(ra, r_obj[b], fx),
            )
            rhs = cm.comp_many(
                f_mor[src.o(a, b, x)],
                beta[(a_cat.t_obj(a, b), x)],
                tgt.a_mor(r.m2(a, b), cm.identity[fx]),
            )
            if lhs != rhs:
                report.add("rlax-associativity", (a, b, x))
    for x in cl.objects():
        fx = f_obj[x]
        lhs = cm.comp_many(
            f_mor[src.u(x)],
            beta[(a_cat.unit, x)],
            tgt.a_mor(r.unit_cell, cm.identity[fx]),
        )
        if lhs != tgt.u(fx):
            report.add("rlax-unit", (x,))
    return report


def identity_rlax(mod: ModuleAction) -> RLaxStructure:
    """The identity functor of the carrier as a lax module functor."""
    beta = {
        (a, x): mod.carrier.identity[mod.a_obj(a, x)]
        for a in mod.base.base.objects()
        for x in mod.carrier.objects()
    }
    return RLaxStructure(
        identity_lax(mod.base), mod, mod, identity_functor(mod.carrier), beta
    )


def compose_rlax(g: RLaxStructure, f: RLaxStructure) -> RLaxStructure:
    """The composite r-lax functor along the composite of the backgrounds."""
    comp, g_mor, g_beta, f_beta = g.target.carrier.comp, g.functor.mor_map, g.beta, f.beta
    r_obj, f_obj = f.r.functor.obj_map, f.functor.obj_map
    beta = {
        (a, x): comp(g_mor[f_beta[(a, x)]], g_beta[(r_obj[a], f_obj[x])])
        for a in f.source.base.base.objects()
        for x in f.source.carrier.objects()
    }
    return RLaxStructure(
        compose_lax(g.r, f.r),
        f.source,
        g.target,
        compose_functors(g.functor, f.functor),
        beta,
    )


def _rlax_search(
    r: LaxMonoidalFunctor, src: ModuleAction, tgt: ModuleAction, budget: Budget
) -> list:
    """All r-lax functors along r from src to tgt.

    The first variable is the underlying functor, the rest are the cells
    at the pairs (a, x) in order; each candidate goes through
    ``check_rlax``."""
    cl, cm = src.carrier, tgt.carrier
    functors = list(_functor_search(cl, cm, budget))
    keys = [(a, x) for a in src.base.base.objects() for x in cl.objects()]
    r_obj = r.functor.obj_map

    def domain(i, v):
        if i == 0:
            return functors
        (a, x), f = keys[i - 1], v[0]
        return cm.hom(tgt.a_obj(r_obj[a], f.obj_map[x]), f.obj_map[src.a_obj(a, x)])

    rls = (
        RLaxStructure(r, src, tgt, v[0], dict(zip(keys, v[1:])))
        for v in _search(len(keys) + 1, domain, (), budget)
    )
    return [rl for rl in rls if check_rlax(rl).ok]


def check_module_nat(
    f: RLaxStructure, g: RLaxStructure, nat: NatTransf
) -> ValidationReport:
    """The square of ``check_xilax_nat`` between two lax module functors
    at the identity monoidal nat, which is not checked again here."""
    report = ValidationReport("module natural transformation")
    report.extend(check_nat_transf(nat))
    if not report.ok:
        return report
    a_cat = f.source.base
    cm = f.target.carrier
    for a, x in itertools.product(a_cat.base.objects(), f.source.carrier.objects()):
        lhs = cm.comp(g.b(a, x), f.target.a_mor(a_cat.base.identity[a], nat.components[x]))
        rhs = cm.comp(nat.components[f.source.a_obj(a, x)], f.b(a, x))
        if lhs != rhs:
            report.add("module-nat", (a, x))
    return report


def check_xilax_nat(
    f1: RLaxStructure, f2: RLaxStructure, xihat: LaxMonoidalNat, xi: NatTransf
) -> ValidationReport:
    """The compatibility square between two r-lax functors."""
    report = ValidationReport("xi-lax natural transformation")
    report.extend(check_nat_transf(xi))
    report.extend(check_lax_monoidal_nat(xihat))
    if not report.ok:
        return report
    cm = f1.target.carrier
    for a, x in itertools.product(
        f1.source.base.base.objects(), f1.source.carrier.objects()
    ):
        lhs = cm.comp(
            f2.b(a, x), f1.target.a_mor(xihat.at(a), xi.components[x])
        )
        rhs = cm.comp(xi.components[f1.source.a_obj(a, x)], f1.b(a, x))
        if lhs != rhs:
            report.add("xilax-square", (a, x))
    return report


@dataclass(frozen=True, eq=True)
class MonoidalAdjunction:
    """An adjunction between the bases, left adjoint on the target side.

    left: B -> A, with the right adjoint packaged in an R-lax structure's r.
    """

    left: Functor  # B -> A (plain functor between base categories)
    right: LaxMonoidalFunctor  # A -> B, lax monoidal
    unit: NatTransf  # 1_B => R . L
    counit: NatTransf  # L . R => 1_A


def check_adjunction(adj: MonoidalAdjunction) -> ValidationReport:
    report = ValidationReport("adjunction")
    report.extend(check_nat_transf(adj.unit))
    report.extend(check_nat_transf(adj.counit))
    if not report.ok:
        return report
    a = adj.right.source.base  # category A
    b = adj.right.target.base  # category B
    l, r = adj.left, adj.right.functor
    for x in b.objects():
        # L(x) -> L(R(L(x))) -> L(x)
        tri = a.comp(
            adj.counit.components[l.obj_map[x]], l.mor_map[adj.unit.components[x]]
        )
        if tri != a.identity[l.obj_map[x]]:
            report.add("adjunction-triangle-left", (x,))
    for y in a.objects():
        tri = b.comp(
            r.mor_map[adj.counit.components[y]], adj.unit.components[r.obj_map[y]]
        )
        if tri != b.identity[r.obj_map[y]]:
            report.add("adjunction-triangle-right", (y,))
    return report


def transport_to_loplax(adj: MonoidalAdjunction, rl: RLaxStructure) -> dict:
    """alpha_{b,x} = beta_{L(b),x} . (eta_b . 1): b.F(x) -> F(L(b).x)."""
    cm = rl.target.carrier
    out = {}
    for b in adj.right.target.base.objects():
        for x in rl.source.carrier.objects():
            out[(b, x)] = cm.comp(
                rl.b(adj.left.obj_map[b], x),
                rl.target.a_mor(adj.unit.components[b], cm.identity[rl.on_obj(x)]),
            )
    return out


def transport_to_rlax(
    adj: MonoidalAdjunction, rl_template: RLaxStructure, alpha: dict
) -> dict:
    """beta_{a,x} = F(eps_a . 1) . alpha_{R(a),x}."""
    cm = rl_template.target.carrier
    cl = rl_template.source.carrier
    out = {}
    for a in rl_template.source.base.base.objects():
        for x in cl.objects():
            out[(a, x)] = cm.comp(
                rl_template.on_mor(
                    rl_template.source.a_mor(
                        adj.counit.components[a], cl.identity[x]
                    )
                ),
                alpha[(adj.right.functor.obj_map[a], x)],
            )
    return out


@dataclass(frozen=True, eq=True)
class InternalHom:
    """A terminal evaluation pair ([x,y], ev: [x,y].x -> y)."""

    module: ModuleAction
    x: int
    y: int
    hom_obj: int
    ev: int
    mediators: dict  # (a, f) -> unique h: a -> hom_obj with ev.(h.1) = f

    def mediate(self, a: int, f: int) -> int:
        return self.mediators[(a, f)]


def internal_hom(
    mod: ModuleAction, x: int, y: int, cap: int | Budget | None = None
) -> InternalHom | None:
    """Brute-force search for the internal hom [x, y].

    The hom object and the mediators live in the base; the evaluation and
    the mediated morphisms live in the carrier.
    """
    c = mod.carrier
    ca = mod.base.base
    budget = Budget.of(cap, "internal hom search")
    for h in ca.objects():
        for ev in c.hom(mod.a_obj(h, x), y):
            mediators = {}
            good = True
            for a in ca.objects():
                for f in c.hom(mod.a_obj(a, x), y):
                    budget.spend()
                    found = [
                        t
                        for t in ca.hom(a, h)
                        if c.comp(ev, mod.a_mor(t, c.identity[x])) == f
                    ]
                    if len(found) != 1:
                        good = False
                        break
                    mediators[(a, f)] = found[0]
                if not good:
                    break
            if good:
                return InternalHom(mod, x, y, h, ev, mediators)
    return None


def all_internal_homs(
    mod: ModuleAction, cap: int | Budget | None = None
) -> dict | None:
    """Internal homs for every pair, or None if any is missing. One budget
    of cap units bounds every search."""
    budget = Budget.of(cap, "internal hom search")
    out = {}
    for x in mod.carrier.objects():
        for y in mod.carrier.objects():
            ih = internal_hom(mod, x, y, budget)
            if ih is None:
                return None
            out[(x, y)] = ih
    return out


@dataclass(frozen=True, eq=True)
class MonoidalModuleCells:
    """Monoidal structure on an oplax module: the carrier is monoidal and
    the action is oplax monoidal via interchange cells."""

    module: ModuleAction
    base_braiding: BraidedStructure
    carrier_monoidal: MonoidalCategory
    interchange: dict  # (a,b,x,y) -> (a@b).(x@y) -> (a.x)@(b.y)
    unit_cell: int  # 1_A . 1_L -> 1_L

    def i(self, a: int, b: int, x: int, y: int) -> int:
        return self.interchange[(a, b, x, y)]


def check_monoidal_module(mm: MonoidalModuleCells) -> ValidationReport:
    """Check the interchange and unit cells of a monoidal module.

    Every failing instance is reported, in a fixed order: section by
    section (typing, interchange naturality, hexagon, unit squares, oplax
    associator, oplax unitor, unit cell), each over its instances in
    lexicographic order. A typing violation ends the check.

    On a thin carrier the interchange-naturality, hexagon and
    oplax-associator sections are decided without composing anything, by
    the one rule of ``FinCategory.thin``, once the structures they are built
    on pass their own checks: the base and the carrier monoidal category
    (``monoidal._is_monoidal``), the base braiding on that base
    (``check_braided``), and the module, with its action out of the product
    of the base and the carrier (``check_module``). Then every cell those
    sections read is typed, and every base associator and braiding cell a
    mid-swap inverts is invertible, so both routes of each square are
    defined and parallel. Otherwise, or when a precondition raises, every
    section enumerates its instances, so reports and exceptions are those
    of the enumeration; only a tensor or action object map that leaves the
    objects raises ``StructureError`` first.
    """
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

    try:
        thin = (
            c.thin
            and _is_monoidal(a_cat)
            and _is_monoidal(lm)
            and mm.base_braiding.host == a_cat
            and check_braided(mm.base_braiding).ok
            and _out_of_product(mod.act, a_cat.base, c)
            and check_module(mod).ok
        )
    except Exception:  # an unreadable cell leaves the decision to the sections
        thin = False
    if not thin:
        # The loops look cells up at tensors and actions of objects, so an
        # image that is no object would end them in a bare KeyError.
        na, nx = len(objs_a), len(objs_x)
        if not (
            all(0 <= a_cat.t_obj(a, b) < na for a, b in itertools.product(objs_a, repeat=2))
            and all(0 <= mod.a_obj(a, x) < nx for a, x in itertools.product(objs_a, objs_x))
            and all(0 <= lm.t_obj(x, y) < nx for x, y in itertools.product(objs_x, repeat=2))
        ):
            raise StructureError("a tensor or action object map leaves the objects")

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

    if not thin:
        # the module associator is an oplax-monoidal transformation;
        # the mid-swap on the base uses the anti-braiding
        def anti(u: int, v: int) -> int:
            return inv(a_cat, mm.base_braiding.c(v, u))

        for a1, a2, b1, b2 in itertools.product(objs_a, repeat=4):
            for x, y in itertools.product(objs_x, repeat=2):
                lhs = c.comp_many(
                    mm.i(a1, a2, mod.a_obj(b1, x), mod.a_obj(b2, y)),
                    mod.a_mor(
                        a_cat.base.identity[a_cat.t_obj(a1, a2)], mm.i(b1, b2, x, y)
                    ),
                    mod.o(a_cat.t_obj(a1, a2), a_cat.t_obj(b1, b2), lm.t_obj(x, y)),
                )
                swap = mid_swap(a_cat, a1, a2, b1, b2, anti)
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


def monoidal_self_module(b: BraidedStructure) -> MonoidalModuleCells:
    """The self-action of a braided category, interchange via mid-swap."""
    m = b.host
    mod = self_module(m)
    interchange = {}
    for a1, b1, a2, b2 in itertools.product(m.base.objects(), repeat=4):
        interchange[(a1, b1, a2, b2)] = mid_swap(
            m, a1, b1, a2, b2, lambda u, v: inv(m, b.c(v, u))
        )
    return MonoidalModuleCells(mod, b, m, interchange, m.l(m.unit))


@dataclass(frozen=True, eq=True)
class MonoidalRLax:
    """An r-lax functor whose carrier functor is monoidal and whose cells
    are compatible with the interchange structure on both sides."""

    rlax: RLaxStructure
    source_cells: MonoidalModuleCells
    target_cells: MonoidalModuleCells
    f2: dict  # (x,y) -> F(x)@F(y) -> F(x@y)
    f0: int  # 1_M -> F(1_L)

    def m2(self, x: int, y: int) -> int:
        return self.f2[(x, y)]


def check_monoidal_rlax(mr: MonoidalRLax) -> ValidationReport:
    report = ValidationReport("monoidal r-lax functor")
    report.extend(check_rlax(mr.rlax))
    rl = mr.rlax
    r = rl.r
    lm = mr.source_cells.carrier_monoidal
    mm = mr.target_cells.carrier_monoidal
    c = mm.base
    # F as a lax monoidal functor between the carriers
    f_mon = LaxMonoidalFunctor(lm, mm, rl.functor, mr.f0, mr.f2, "strong")
    report.extend(check_lax_monoidal_functor(f_mon))
    if not report.ok:
        return report
    for a, b in itertools.product(rl.source.base.base.objects(), repeat=2):
        for x, y in itertools.product(lm.base.objects(), repeat=2):
            lhs = c.comp_many(
                mr.m2(rl.source.a_obj(a, x), rl.source.a_obj(b, y)),
                mm.t_mor(rl.b(a, x), rl.b(b, y)),
                mr.target_cells.i(r.on_obj(a), r.on_obj(b), rl.on_obj(x), rl.on_obj(y)),
            )
            rhs = c.comp_many(
                rl.on_mor(mr.source_cells.i(a, b, x, y)),
                rl.b(rl.source.base.t_obj(a, b), lm.t_obj(x, y)),
                rl.target.a_mor(r.m2(a, b), mr.m2(x, y)),
            )
            if lhs != rhs:
                report.add("monoidal-rlax-interchange", (a, b, x, y))
    un_a, un_l = rl.source.base.unit, lm.unit
    lhs = c.comp_many(
        rl.on_mor(mr.source_cells.unit_cell),
        rl.b(un_a, un_l),
        rl.target.a_mor(r.unit_cell, mr.f0),
    )
    if lhs != c.comp(mr.f0, mr.target_cells.unit_cell):
        report.add("monoidal-rlax-unit", ())
    return report


def theta_of(mr: MonoidalRLax) -> dict:
    """theta_a = beta_{a, 1_L} . (1 . f0): R(a).1_M -> F(a.1_L)."""
    rl = mr.rlax
    c = mr.target_cells.carrier_monoidal.base
    out = {}
    for a in rl.source.base.base.objects():
        out[a] = c.comp(
            rl.b(a, mr.source_cells.carrier_monoidal.unit),
            rl.target.a_mor(
                rl.r.target.base.identity[rl.r.on_obj(a)], mr.f0
            ),
        )
    return out


def _m_iso(cells: MonoidalModuleCells, a: int, y: int) -> int:
    """a.y -> (a.1_L)@y, built from the interchange and unitors."""
    mod = cells.module
    lm = cells.carrier_monoidal
    c = mod.carrier
    a_cat = mod.base
    return c.comp_many(
        lm.t_mor(c.identity[mod.a_obj(a, lm.unit)], mod.u(y)),
        cells.i(a, a_cat.unit, lm.unit, y),
        mod.a_mor(inv(a_cat, a_cat.r(a)), inv(lm, lm.l(y))),
    )


def beta_from_theta(mr: MonoidalRLax, theta: dict) -> dict | None:
    """Reconstruct the r-lax cells from theta; None if some m-iso fails
    to be invertible on the source side."""
    rl = mr.rlax
    mm = mr.target_cells.carrier_monoidal
    lm = mr.source_cells.carrier_monoidal
    c = mm.base
    cl = lm.base
    out = {}
    for a in rl.source.base.base.objects():
        for y in lm.base.objects():
            src_iso = _m_iso(mr.source_cells, a, y)
            back = find_inverse(cl, src_iso)
            if back is None:
                return None
            out[(a, y)] = c.comp_many(
                rl.on_mor(back),
                mr.m2(rl.source.a_obj(a, lm.unit), y),
                mm.t_mor(theta[a], c.identity[rl.on_obj(y)]),
                _m_iso(mr.target_cells, rl.r.on_obj(a), rl.on_obj(y)),
            )
    return out
