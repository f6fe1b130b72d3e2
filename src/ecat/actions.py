"""Left module actions of monoidal categories on finite categories.

Actions are oplax by default: the structure maps (a@b).x -> a.(b.x) and
1.x -> x need not be invertible. Internal homs are found by exhaustive
search for a terminal evaluation pair.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field

from ecat.core import (
    FinCategory,
    Functor,
    NatTransf,
    _is_product,
    check_category,
    check_functor,
    product_category,
)
from ecat.monoidal import (
    BraidedStructure,
    LaxMonoidalFunctor,
    LaxMonoidalNat,
    MonoidalCategory,
    _expect,
    find_inverse,
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
    report = ValidationReport("module action")
    report.extend(check_functor(mod.act))
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
    from ecat.core import terminal_category

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


@dataclass(frozen=True, eq=True)
class ModuleFunctor:
    """A lax module functor between two actions of the same base."""

    source: ModuleAction
    target: ModuleAction
    functor: Functor
    cells: dict  # (a,x) -> a.F(x) -> F(a.x)

    def on_obj(self, x: int) -> int:
        return self.functor.obj_map[x]

    def on_mor(self, p: int) -> int:
        return self.functor.mor_map[p]

    def cell(self, a: int, x: int) -> int:
        return self.cells[(a, x)]


def check_module_functor(mf: ModuleFunctor) -> ValidationReport:
    report = ValidationReport("module functor")
    report.extend(check_functor(mf.functor))
    if mf.source.base is not mf.target.base and mf.source.base != mf.target.base:
        raise StructureError("module functor needs a shared base")
    if not report.ok:
        return report
    a_cat = mf.source.base
    cl, cm = mf.source.carrier, mf.target.carrier
    typed = True
    for a, x in itertools.product(a_cat.base.objects(), cl.objects()):
        f = mf.cells.get((a, x))
        if f is None:
            raise StructureError(f"module functor cell missing at {(a, x)}")
        typed &= _expect(
            report, "module-functor-typing", (a, x), cm, f,
            mf.target.a_obj(a, mf.on_obj(x)), mf.on_obj(mf.source.a_obj(a, x)),
        )
    if not typed:
        return report
    for f in a_cat.base.morphisms():
        for p in cl.morphisms():
            a, x = a_cat.base.dom[f], cl.dom[p]
            ap, xp = a_cat.base.cod[f], cl.cod[p]
            lhs = cm.comp(mf.cell(ap, xp), mf.target.a_mor(f, mf.on_mor(p)))
            rhs = cm.comp(mf.on_mor(mf.source.a_mor(f, p)), mf.cell(a, x))
            if lhs != rhs:
                report.add("module-functor-naturality", (f, p))
    for a, b, x in itertools.product(
        a_cat.base.objects(), a_cat.base.objects(), cl.objects()
    ):
        lhs = cm.comp_many(
            mf.cell(a, mf.source.a_obj(b, x)),
            mf.target.a_mor(a_cat.base.identity[a], mf.cell(b, x)),
            mf.target.o(a, b, mf.on_obj(x)),
        )
        rhs = cm.comp(mf.on_mor(mf.source.o(a, b, x)), mf.cell(a_cat.t_obj(a, b), x))
        if lhs != rhs:
            report.add("module-functor-associativity", (a, b, x))
    for x in cl.objects():
        lhs = cm.comp(mf.on_mor(mf.source.u(x)), mf.cell(a_cat.unit, x))
        if lhs != mf.target.u(mf.on_obj(x)):
            report.add("module-functor-unit", (x,))
    return report


def identity_module_functor(mod: ModuleAction) -> ModuleFunctor:
    from ecat.core import identity_functor

    cells = {
        (a, x): mod.carrier.identity[mod.a_obj(a, x)]
        for a in mod.base.base.objects()
        for x in mod.carrier.objects()
    }
    return ModuleFunctor(mod, mod, identity_functor(mod.carrier), cells)


def compose_module_functors(g: ModuleFunctor, f: ModuleFunctor) -> ModuleFunctor:
    from ecat.core import compose_functors

    cm = g.target.carrier
    cells = {}
    for a in f.source.base.base.objects():
        for x in f.source.carrier.objects():
            cells[(a, x)] = cm.comp(
                g.on_mor(f.cell(a, x)), g.cell(a, f.on_obj(x))
            )
    return ModuleFunctor(
        f.source, g.target, compose_functors(g.functor, f.functor), cells
    )


def check_module_nat(
    f: ModuleFunctor, g: ModuleFunctor, nat: NatTransf
) -> ValidationReport:
    from ecat.core import check_nat_transf

    report = ValidationReport("module natural transformation")
    report.extend(check_nat_transf(nat))
    if not report.ok:
        return report
    a_cat = f.source.base
    cm = f.target.carrier
    for a, x in itertools.product(a_cat.base.objects(), f.source.carrier.objects()):
        lhs = cm.comp(g.cell(a, x), f.target.a_mor(a_cat.base.identity[a], nat.components[x]))
        rhs = cm.comp(nat.components[f.source.a_obj(a, x)], f.cell(a, x))
        if lhs != rhs:
            report.add("module-nat", (a, x))
    return report


@dataclass(frozen=True, eq=True)
class RLaxStructure:
    """A functor F between carriers of actions over different bases,
    with comparison cells beta_{a,x}: R(a).F(x) -> F(a.x) along a
    lax monoidal functor R between the bases."""

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
    a_cat = rl.source.base
    cm = rl.target.carrier
    r = rl.r
    typed = True
    for a, x in itertools.product(a_cat.base.objects(), rl.source.carrier.objects()):
        f = rl.beta.get((a, x))
        if f is None:
            raise StructureError(f"r-lax cell missing at {(a, x)}")
        typed &= _expect(
            report, "rlax-typing", (a, x), cm, f,
            rl.target.a_obj(r.on_obj(a), rl.on_obj(x)),
            rl.on_obj(rl.source.a_obj(a, x)),
        )
    if not typed:
        return report
    for f in a_cat.base.morphisms():
        for p in rl.source.carrier.morphisms():
            a, x = a_cat.base.dom[f], rl.source.carrier.dom[p]
            ap, xp = a_cat.base.cod[f], rl.source.carrier.cod[p]
            lhs = cm.comp(rl.b(ap, xp), rl.target.a_mor(r.on_mor(f), rl.on_mor(p)))
            rhs = cm.comp(rl.on_mor(rl.source.a_mor(f, p)), rl.b(a, x))
            if lhs != rhs:
                report.add("rlax-naturality", (f, p))
    for a, b, x in itertools.product(
        a_cat.base.objects(), a_cat.base.objects(), rl.source.carrier.objects()
    ):
        lhs = cm.comp_many(
            rl.b(a, rl.source.a_obj(b, x)),
            rl.target.a_mor(r.target.base.identity[r.on_obj(a)], rl.b(b, x)),
            rl.target.o(r.on_obj(a), r.on_obj(b), rl.on_obj(x)),
        )
        rhs = cm.comp_many(
            rl.on_mor(rl.source.o(a, b, x)),
            rl.b(a_cat.t_obj(a, b), x),
            rl.target.a_mor(r.m2(a, b), cm.identity[rl.on_obj(x)]),
        )
        if lhs != rhs:
            report.add("rlax-associativity", (a, b, x))
    for x in rl.source.carrier.objects():
        lhs = cm.comp_many(
            rl.on_mor(rl.source.u(x)),
            rl.b(a_cat.unit, x),
            rl.target.a_mor(r.unit_cell, cm.identity[rl.on_obj(x)]),
        )
        if lhs != rl.target.u(rl.on_obj(x)):
            report.add("rlax-unit", (x,))
    return report


def rlax_from_module_functor(mf: ModuleFunctor) -> RLaxStructure:
    """A lax module functor is an R-lax functor along the identity."""
    from ecat.monoidal import identity_lax

    return RLaxStructure(
        identity_lax(mf.source.base), mf.source, mf.target, mf.functor, dict(mf.cells)
    )


def check_xilax_nat(
    f1: RLaxStructure, f2: RLaxStructure, xihat: LaxMonoidalNat, xi: NatTransf
) -> ValidationReport:
    """The compatibility square between two r-lax functors."""
    from ecat.core import check_nat_transf

    report = ValidationReport("xi-lax natural transformation")
    report.extend(check_nat_transf(xi))
    from ecat.monoidal import check_lax_monoidal_nat

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
    from ecat.core import check_nat_transf

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
    mod: ModuleAction, x: int, y: int, budget: Budget | None = None
) -> InternalHom | None:
    """Brute-force search for the internal hom [x, y].

    The hom object and the mediators live in the base; the evaluation and
    the mediated morphisms live in the carrier.
    """
    c = mod.carrier
    ca = mod.base.base
    budget = budget or Budget(None, "internal hom search")
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
    mod: ModuleAction, budget: Budget | None = None
) -> dict | None:
    """Internal homs for every pair, or None if any is missing."""
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

    Naturality of the interchange is screened one variable at a time when
    the base and the carrier are categories and the base tensor, the action
    and the carrier tensor are functors (Mac Lane, CWM §II.3; see
    ``_interchange_natural_by_variable``). Otherwise, or when a screened
    square fails, every quadruple of morphisms is enumerated.
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

    # The interchange is also collected as the flat list icell, read by
    # mixed-radix index: the cell at (a, b, x, y) is
    # icell[((a*|A| + b)*|C| + x)*|C| + y].
    typed = True
    icell = []
    for a, b, x, y in itertools.product(objs_a, objs_a, objs_x, objs_x):
        f = mm.interchange.get((a, b, x, y))
        if f is None:
            raise StructureError(f"interchange missing at {(a, b, x, y)}")
        icell.append(f)
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

    # Below, tables are bound locally, and every tensor, identity, associator
    # component and mid-swap that does not depend on an inner index is read
    # once, outside the inner loops. A ``*_row`` value is a morphism index
    # times |mor C|: the start of its row in a flattened action or tensor
    # mor_map, so ``act_mor[f_row + p]`` is ``mod.a_mor(f, p)``.
    ca = a_cat.base
    na, nx, mc = ca.n_objects, c.n_objects, c.n_morphisms
    comp, cid = c.comp, c.identity
    cdom, ccod = c.dom, c.cod
    act_obj, act_mor = mod.act.obj_map, mod.act.mor_map
    lt_obj, lt_mor = lm.tensor.obj_map, lm.tensor.mor_map
    inter = mm.interchange

    # naturality of the interchange
    if not _interchange_natural_by_variable(mm, icell):
        for f, g in itertools.product(ca.morphisms(), repeat=2):
            a, b = ca.dom[f], ca.dom[g]
            ap, bp = ca.cod[f], ca.cod[g]
            fg_row = a_cat.t_mor(f, g) * mc
            f_row, g_row = f * mc, g * mc
            for p in c.morphisms():
                x, xp = cdom[p], ccod[p]
                p_row = p * mc
                fp_row = act_mor[f_row + p] * mc
                for q in c.morphisms():
                    lhs = comp(
                        inter[(ap, bp, xp, ccod[q])],
                        act_mor[fg_row + lt_mor[p_row + q]],
                    )
                    rhs = comp(lt_mor[fp_row + act_mor[g_row + q]], inter[(a, b, x, cdom[q])])
                    if lhs != rhs:
                        report.add("interchange-naturality", (f, g, p, q))

    # The hexagon and oplax-associator loops read the cells from flat
    # lists: icell as above, the carrier associator at (x, y, z) from
    # lcell[(x*|C| + y)*|C| + z] and the module associator at (a, b, x) from
    # ocell[(a*|A| + b)*|C| + x]. A name such as ``b_d_y`` is the flat index
    # of the key prefix (b, d, y) times |C|, so ``icell[b_d_y + z]`` is the
    # cell at (b, d, y, z). ``ab_of[a][b]``, ``ax_of[a][x]`` and
    # ``xy_of[x][y]`` are the tensors and actions of objects and ``id_ax_of``
    # and ``id_xy_of`` the identities on them. They index the flat lists,
    # so they must be objects.
    ab_of = [[a_cat.t_obj(a, b) for b in objs_a] for a in objs_a]
    ax_of = [[act_obj[a * nx + x] for x in objs_x] for a in objs_a]
    xy_of = [[lt_obj[x * nx + y] for y in objs_x] for x in objs_x]
    if not (_within(ab_of, na) and _within(ax_of, nx) and _within(xy_of, nx)):
        raise StructureError("a tensor or action object map leaves the objects")
    id_ax_of = [[cid[v] for v in row] for row in ax_of]
    id_xy_of = [[cid[v] for v in row] for row in xy_of]

    # Both loops below compose by reading the compose table directly. On a
    # KeyError they compose the same cells again through c.comp, so that
    # they raise what it raises: StructureError on an undefined composite,
    # or the KeyError of a missing associator cell.
    cmp = c.compose

    # hexagon relating interchange and the two associators
    lcell = _flat(lm.associator, itertools.product(objs_x, repeat=3))
    for a, b, d in itertools.product(objs_a, repeat=3):
        ab, bd = ab_of[a][b], ab_of[b][d]
        abd_row = a_cat.a(a, b, d) * mc
        acts_b, acts_d, id_acts_d = ax_of[b], ax_of[d], id_ax_of[d]
        a_b, ab_d = (a * na + b) * nx, (ab * na + d) * nx
        b_d, a_bd = (b * na + d) * nx, (a * na + bd) * nx
        for x in objs_x:
            ax = ax_of[a][x]
            id_ax_row = id_ax_of[a][x] * mc
            a_bd_x = (a_bd + x) * nx
            for y in objs_x:
                i_abxy_row = icell[(a_b + x) * nx + y] * mc
                ax_by = (ax * nx + acts_b[y]) * nx
                ab_d_xy = (ab_d + xy_of[x][y]) * nx
                b_d_y = (b_d + y) * nx
                x_y = (x * nx + y) * nx
                for z, dz, id_dz, yz in zip(objs_x, acts_d, id_acts_d, xy_of[y]):
                    try:
                        lhs = cmp[
                            cmp[lcell[ax_by + dz], lt_mor[i_abxy_row + id_dz]],
                            icell[ab_d_xy + z],
                        ]
                        rhs = cmp[
                            cmp[lt_mor[id_ax_row + icell[b_d_y + z]], icell[a_bd_x + yz]],
                            act_mor[abd_row + lcell[x_y + z]],
                        ]
                    except KeyError:
                        lhs = comp(
                            comp(lcell[ax_by + dz], lt_mor[i_abxy_row + id_dz]),
                            icell[ab_d_xy + z],
                        )
                        rhs = comp(
                            comp(lt_mor[id_ax_row + icell[b_d_y + z]], icell[a_bd_x + yz]),
                            act_mor[abd_row + lcell[x_y + z]],
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
    def anti(u: int, v: int) -> int:
        return inv(a_cat, mm.base_braiding.c(v, u))

    ocell = _flat(mod.oplax_assoc, itertools.product(objs_a, objs_a, objs_x))
    for a1, a2, b1, b2 in itertools.product(objs_a, repeat=4):
        a12, b12 = ab_of[a1][a2], ab_of[b1][b2]
        a1b1, a2b2 = ab_of[a1][b1], ab_of[a2][b2]
        id_a12_row = ca.identity[a12] * mc
        swap_row = mid_swap(a_cat, a1, a2, b1, b2, anti) * mc
        acts_b1, acts_b2 = ax_of[b1], ax_of[b2]
        a1_a2, b1_b2 = (a1 * na + a2) * nx, (b1 * na + b2) * nx
        a1b1_a2b2 = (a1b1 * na + a2b2) * nx
        a1_b1, a2_b2, a12_b12 = (a1 * na + b1) * nx, (a2 * na + b2) * nx, (a12 * na + b12) * nx
        for x in objs_x:
            o1_row = ocell[a1_b1 + x] * mc
            a1_a2_b1x = (a1_a2 + acts_b1[x]) * nx
            b1_b2_x = (b1_b2 + x) * nx
            a1b1_a2b2_x = (a1b1_a2b2 + x) * nx
            for y, b2y, xy, id_xy in zip(objs_x, acts_b2, xy_of[x], id_xy_of[x]):
                try:
                    lhs = cmp[
                        cmp[icell[a1_a2_b1x + b2y], act_mor[id_a12_row + icell[b1_b2_x + y]]],
                        ocell[a12_b12 + xy],
                    ]
                    rhs = cmp[
                        cmp[lt_mor[o1_row + ocell[a2_b2 + y]], icell[a1b1_a2b2_x + y]],
                        act_mor[swap_row + id_xy],
                    ]
                except KeyError:
                    lhs = comp(
                        comp(icell[a1_a2_b1x + b2y], act_mor[id_a12_row + icell[b1_b2_x + y]]),
                        ocell[a12_b12 + xy],
                    )
                    rhs = comp(
                        comp(lt_mor[o1_row + ocell[a2_b2 + y]], icell[a1b1_a2b2_x + y]),
                        act_mor[swap_row + id_xy],
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


def _interchange_natural_by_variable(mm: MonoidalModuleCells, icell: list) -> bool:
    """Whether the interchange is natural, decided one variable at a time.

    The square at (f, g, p, q) compares (f@g).(p@q) and (f.p)@(g.q) along
    the interchange cells. When A and C are categories and the base tensor,
    the action and the carrier tensor are functors out of the products that
    their tables are indexed by, both sides are functors of (f, g, p, q) on
    A x A x C x C. Every morphism there is a composite of four whose other
    entries are identities, and squares paste along composites (Mac Lane,
    CWM §II.3), so the 4·|mor|·|obj|³ squares with three identity entries
    hold only if every square holds. False when a precondition fails or
    raises ``StructureError``, or when one of those squares fails.
    """
    mod = mm.module
    a_cat, lm, c = mod.base, mm.carrier_monoidal, mod.carrier
    ca = a_cat.base
    try:
        for k in {id(ca): ca, id(c): c}.values():
            if not check_category(k).ok:
                return False
        checked = set()
        for fun, x, y in ((a_cat.tensor, ca, ca), (mod.act, ca, c), (lm.tensor, c, c)):
            if not (fun.target == y and _is_product(fun.source, x, y)):
                return False
            if id(fun) not in checked:
                checked.add(id(fun))
                if not check_functor(fun).ok:
                    return False

        na, nx = ca.n_objects, c.n_objects
        ma, mc = ca.n_morphisms, c.n_morphisms
        adom, acod, cdom, ccod = ca.dom, ca.cod, c.dom, c.cod
        t_mor, act_mor, lt_mor = a_cat.tensor.mor_map, mod.act.mor_map, lm.tensor.mor_map
        comp = c.comp

        def square(f: int, g: int, p: int, q: int) -> bool:
            lhs = comp(
                icell[((acod[f] * na + acod[g]) * nx + ccod[p]) * nx + ccod[q]],
                act_mor[t_mor[f * ma + g] * mc + lt_mor[p * mc + q]],
            )
            rhs = comp(
                lt_mor[act_mor[f * mc + p] * mc + act_mor[g * mc + q]],
                icell[((adom[f] * na + adom[g]) * nx + cdom[p]) * nx + cdom[q]],
            )
            return lhs == rhs

        ida, idc = ca.identity, c.identity
        mor_a, mor_c = ca.morphisms(), c.morphisms()
        one_variable = itertools.chain(
            itertools.product(mor_a, ida, idc, idc),
            itertools.product(ida, mor_a, idc, idc),
            itertools.product(ida, ida, mor_c, idc),
            itertools.product(ida, ida, idc, mor_c),
        )
        return all(itertools.starmap(square, one_variable))
    except StructureError:
        return False


def _within(rows: list, n: int) -> bool:
    return all(0 <= v < n for row in rows for v in row)


class _KeyedCells:
    """A table read by flat position: position k holds ``table[keys[k]]``,
    read from the table each time, so it raises what the table raises."""

    def __init__(self, table: Mapping, keys: list):
        self.table, self.keys = table, keys

    def __getitem__(self, k: int) -> int:
        return self.table[self.keys[k]]


def _flat(table: Mapping, keys) -> list | _KeyedCells:
    """The entries of table at keys as a list, read by position. If reading
    some key fails, the failure is left to the position's first read."""
    keys = list(keys)
    try:
        return [table[key] for key in keys]
    except Exception:
        return _KeyedCells(table, keys)


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
    from ecat.monoidal import check_lax_monoidal_functor

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
