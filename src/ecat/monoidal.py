"""Monoidal, braided, symmetric structure on finite categories.

Structure is stored non-strictly: associator and unitor components are
explicit morphisms even when they are identities, and every diagram check
inserts them explicitly.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from ecat.core import (
    FinCategory,
    Functor,
    LazyPairTable,
    NatTransf,
    ProductMapping,
    ProductSequence,
    _is_product,
    _search,
    check_category,
    check_functor,
    check_nat_transf,
    identity_functor,
    identity_nat,
    kept,
    labelled_bifunctor,
    labelled_category,
    product_category,
    terminal_category,
)
from ecat.report import Budget, StructureError, ValidationReport


@dataclass(frozen=True, eq=True)
class MonoidalCategory:
    """A monoidal category on a finite category, by its tables."""

    base: FinCategory
    tensor: Functor  # from product_category(base, base) to base
    unit: int
    associator: Mapping  # (a,b,c) -> morphism (a@b)@c -> a@(b@c)
    left_unitor: Sequence[int]  # unit@a -> a
    right_unitor: Sequence[int]  # a@unit -> a
    _kept: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def t_obj(self, a: int, b: int) -> int:
        return self.tensor.obj_map[a * self.base.n_objects + b]

    def t_mor(self, f: int, g: int) -> int:
        return self.tensor.mor_map[f * self.base.n_morphisms + g]

    def a(self, x: int, y: int, z: int) -> int:
        return self.associator[(x, y, z)]

    def l(self, x: int) -> int:
        return self.left_unitor[x]

    def r(self, x: int) -> int:
        return self.right_unitor[x]


def find_inverse(c: FinCategory, f: int) -> int | None:
    """The inverse of f, or None; memoised per category, None included."""
    memo = c._inverse_memo
    if f in memo:
        return memo[f]
    found = None
    for g in c.hom(c.cod[f], c.dom[f]):
        if c.comp(g, f) == c.identity[c.dom[f]] and c.comp(f, g) == c.identity[c.cod[f]]:
            found = g
            break
    memo[f] = found
    return found


def inv(m: MonoidalCategory, f: int) -> int:
    g = find_inverse(m.base, f)
    if g is None:
        raise StructureError(f"morphism {f} is not invertible")
    return g


def _expect(report, law, instance, c, f, dom, cod) -> bool:
    """Record a typing violation unless f is a morphism of c from dom to
    cod. An f outside ``range(c.n_morphisms)`` is reported, not read: a
    negative one would be read from the end of the tables."""
    if not 0 <= f < c.n_morphisms:
        report.add(law, instance, f"morphism {f} out of range, expected {dom}->{cod}")
        return False
    if c.dom[f] != dom or c.cod[f] != cod:
        report.add(law, instance, f"morphism {f}: {c.dom[f]}->{c.cod[f]}, expected {dom}->{cod}")
        return False
    return True


def check_monoidal(m: MonoidalCategory) -> ValidationReport:
    report = ValidationReport("monoidal category")
    c = m.base
    report.extend(check_functor(m.tensor))
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
    if c.thin and _out_of_product(m.tensor, c, c):
        return report  # the laws below equate parallel morphisms

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


def _out_of_product(fun: Functor, x: FinCategory, y: FinCategory) -> bool:
    """Whether fun maps out of the tables of ``product_category(x, y)``
    into y, and y passes ``check_category``; False when a check raises."""
    try:
        return fun.target == y and _is_product(fun.source, x, y) and check_category(y).ok
    except Exception:
        return False


@kept
def _is_monoidal(m: MonoidalCategory) -> bool:
    """Whether m passes ``check_monoidal`` with its tensor out of
    ``product_category(m.base, m.base)`` into ``m.base``, a category;
    False when a check raises.

    This is the precondition of every thin gate: on a thin category any two
    parallel morphisms are equal (Lawvere 1973; Kelly 1982 §1), so a
    coherence law built on m commutes once its cells are typed, and a
    monoidal m makes every composite of its tensor and coherence cells
    defined and typed, with invertible associators and unitors.
    """
    try:
        return _out_of_product(m.tensor, m.base, m.base) and check_monoidal(m).ok
    except Exception:
        return False


def strict_monoidal(
    base: FinCategory, tensor: Functor, unit: int
) -> MonoidalCategory:
    """Wrap a strictly associative/unital tensor table, identities everywhere."""
    assoc = {}
    for x, y, z in itertools.product(base.objects(), repeat=3):
        to = tensor.obj_map
        n = base.n_objects
        xy = to[x * n + y]
        assoc[(x, y, z)] = base.identity[to[xy * n + z]]
    lu = tuple(base.identity[tensor.obj_map[unit * base.n_objects + x]] for x in base.objects())
    ru = tuple(base.identity[tensor.obj_map[x * base.n_objects + unit]] for x in base.objects())
    return MonoidalCategory(base, tensor, unit, assoc, lu, ru)


def product_monoidal(m: MonoidalCategory, n: MonoidalCategory) -> MonoidalCategory:
    """Componentwise monoidal structure on the product category, as views."""
    base = product_category(m.base, n.base)
    nm, mm = m.base.n_objects, m.base.n_morphisms
    nn, mn = n.base.n_objects, n.base.n_morphisms
    tensor = Functor(
        product_category(base, base),
        base,
        ProductSequence([(m.tensor.obj_map, nm, nm), (n.tensor.obj_map, nn, nn)], 2),
        ProductSequence([(m.tensor.mor_map, mm, mm), (n.tensor.mor_map, mn, mn)], 2),
    )
    return MonoidalCategory(
        base,
        tensor,
        m.unit * nn + n.unit,
        ProductMapping([(m.associator, nm, mm), (n.associator, nn, mn)], 3),
        ProductSequence([(m.left_unitor, nm, mm), (n.left_unitor, nn, mn)]),
        ProductSequence([(m.right_unitor, nm, mm), (n.right_unitor, nn, mn)]),
    )


def reversed_monoidal(m: MonoidalCategory) -> MonoidalCategory:
    """Same category with the reversed tensor a @rev b = b @ a."""
    c = m.base
    n, nm = c.n_objects, c.n_morphisms
    src = m.tensor.source
    obj_map = [0] * src.n_objects
    mor_map = [0] * src.n_morphisms
    for a, b in itertools.product(range(n), repeat=2):
        obj_map[a * n + b] = m.t_obj(b, a)
    for f, g in itertools.product(range(nm), repeat=2):
        mor_map[f * nm + g] = m.t_mor(g, f)
    tensor = Functor(src, c, tuple(obj_map), tuple(mor_map))
    assoc = {}
    for a, b, cc in itertools.product(range(n), repeat=3):
        assoc[(a, b, cc)] = inv(m, m.a(cc, b, a))
    lu = m.right_unitor
    ru = m.left_unitor
    return MonoidalCategory(c, tensor, m.unit, assoc, lu, ru)


@dataclass(frozen=True, eq=True)
class BraidedStructure:
    """A braiding on a monoidal category."""

    host: MonoidalCategory
    braiding: dict  # (a,b) -> morphism a@b -> b@a
    symmetric_flag: bool = False
    _kept: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def c(self, a: int, b: int) -> int:
        return self.braiding[(a, b)]


def anti_braiding(b: BraidedStructure) -> BraidedStructure:
    """c-bar_{x,y} = inverse of c_{y,x}."""
    m = b.host
    braiding = {
        (x, y): inv(m, b.c(y, x))
        for x, y in itertools.product(m.base.objects(), repeat=2)
    }
    return BraidedStructure(m, braiding, b.symmetric_flag)


def check_braided(b: BraidedStructure) -> ValidationReport:
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
    if c.thin and _is_monoidal(m):
        return report  # the laws below equate parallel morphisms
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


@dataclass(frozen=True, eq=True)
class LaxMonoidalFunctor:
    """A functor between monoidal categories with comparison cells
    unit_cell 1_B -> F(1_A) and mult (x,y): F(x)@F(y) -> F(x@y).

    direction "lax" asks nothing more of the cells; direction "strong" asks
    that all of them be invertible. There is no oplax orientation: an oplax
    structure is a lax one between the opposite categories.
    """

    source: MonoidalCategory
    target: MonoidalCategory
    functor: Functor
    unit_cell: int
    mult: Mapping  # (x,y) -> morphism
    direction: str = "lax"

    def on_obj(self, x: int) -> int:
        return self.functor.obj_map[x]

    def on_mor(self, f: int) -> int:
        return self.functor.mor_map[f]

    def m2(self, x: int, y: int) -> int:
        return self.mult[(x, y)]


def check_lax_monoidal_functor(f: LaxMonoidalFunctor) -> ValidationReport:
    report = ValidationReport("lax monoidal functor")
    a, b = f.source, f.target
    c = b.base
    report.extend(check_functor(f.functor))
    if f.direction not in ("lax", "strong"):
        raise StructureError(f"unknown direction {f.direction!r}")
    if not report.ok:
        return report

    typed = _expect(report, "unit-cell-typing", (), c, f.unit_cell, b.unit, f.on_obj(a.unit))
    for x, y in itertools.product(a.base.objects(), repeat=2):
        cell = f.mult.get((x, y))
        if cell is None:
            raise StructureError(f"mult cell missing at {(x, y)}")
        fx_fy = b.t_obj(f.on_obj(x), f.on_obj(y))
        fxy = f.on_obj(a.t_obj(x, y))
        typed &= _expect(report, "mult-cell-typing", (x, y), c, cell, fx_fy, fxy)
    if not typed:
        return report

    # naturality of mult
    for p, q in itertools.product(a.base.morphisms(), repeat=2):
        x, y = a.base.dom[p], a.base.dom[q]
        xp, yp = a.base.cod[p], a.base.cod[q]
        lhs = c.comp(f.m2(xp, yp), b.t_mor(f.on_mor(p), f.on_mor(q)))
        rhs = c.comp(f.on_mor(a.t_mor(p, q)), f.m2(x, y))
        if lhs != rhs:
            report.add("mult-naturality", (p, q))

    # lax associativity / unitality
    for x, y, z in itertools.product(a.base.objects(), repeat=3):
        fx, fy, fz = f.on_obj(x), f.on_obj(y), f.on_obj(z)
        lhs = c.comp_many(
            f.on_mor(a.a(x, y, z)), f.m2(a.t_obj(x, y), z),
            b.t_mor(f.m2(x, y), c.identity[fz]),
        )
        rhs = c.comp_many(
            f.m2(x, a.t_obj(y, z)), b.t_mor(c.identity[fx], f.m2(y, z)),
            b.a(fx, fy, fz),
        )
        if lhs != rhs:
            report.add("lax-associativity", (x, y, z))

    for x in a.base.objects():
        fx = f.on_obj(x)
        lhs = c.comp_many(
            f.on_mor(a.l(x)), f.m2(a.unit, x),
            b.t_mor(f.unit_cell, c.identity[fx]),
        )
        if lhs != b.l(fx):
            report.add("lax-left-unitality", (x,))
        rhs = c.comp_many(
            f.on_mor(a.r(x)), f.m2(x, a.unit),
            b.t_mor(c.identity[fx], f.unit_cell),
        )
        if rhs != b.r(fx):
            report.add("lax-right-unitality", (x,))

    if f.direction == "strong":
        if find_inverse(c, f.unit_cell) is None:
            report.add("cell-invertibility", ("unit",))
        for x, y in itertools.product(a.base.objects(), repeat=2):
            if find_inverse(c, f.m2(x, y)) is None:
                report.add("cell-invertibility", (x, y))
    return report


def identity_lax(m: MonoidalCategory) -> LaxMonoidalFunctor:
    mult = {
        (x, y): m.base.identity[m.t_obj(x, y)]
        for x, y in itertools.product(m.base.objects(), repeat=2)
    }
    return LaxMonoidalFunctor(
        m, m, identity_functor(m.base), m.base.identity[m.unit], mult, "strong"
    )


def compose_lax(g: LaxMonoidalFunctor, f: LaxMonoidalFunctor) -> LaxMonoidalFunctor:
    """g after f.

    The functor and the unit cell are computed here; the mult cell at
    (x, y), g(f(x, y)) . g(Fx, Fy), when it is first read (a
    ``LazyPairTable``). A reader that must raise where an eager build
    raised reads every cell first, as ``enriched._computed`` does.
    """
    c = g.target.base
    g_obj, g_mor = g.functor.obj_map, g.functor.mor_map
    functor = Functor(
        f.functor.source,
        g.functor.target,
        tuple([g_obj[x] for x in f.functor.obj_map]),
        tuple([g_mor[m] for m in f.functor.mor_map]),
    )
    unit = c.comp(g.on_mor(f.unit_cell), g.unit_cell)

    def m2(x: int, y: int) -> int:
        return c.comp(g.on_mor(f.m2(x, y)), g.m2(f.on_obj(x), f.on_obj(y)))

    mult = LazyPairTable(f.source.base.n_objects, m2)
    direction = "strong" if g.direction == f.direction == "strong" else "lax"
    return LaxMonoidalFunctor(f.source, g.target, functor, unit, mult, direction)


def product_lax(f: LaxMonoidalFunctor, g: LaxMonoidalFunctor) -> LaxMonoidalFunctor:
    """F x G between product monoidal categories, as views."""
    src = product_monoidal(f.source, g.source)
    tgt = product_monoidal(f.target, g.target)
    fs, gs = f.source.base, g.source.base
    ft, gt = f.target.base, g.target.base
    functor = Functor(
        src.base,
        tgt.base,
        ProductSequence([
            (f.functor.obj_map, fs.n_objects, ft.n_objects),
            (g.functor.obj_map, gs.n_objects, gt.n_objects),
        ]),
        ProductSequence([
            (f.functor.mor_map, fs.n_morphisms, ft.n_morphisms),
            (g.functor.mor_map, gs.n_morphisms, gt.n_morphisms),
        ]),
    )
    unit = f.unit_cell * gt.n_morphisms + g.unit_cell
    mult = ProductMapping(
        [(f.mult, fs.n_objects, ft.n_morphisms), (g.mult, gs.n_objects, gt.n_morphisms)], 2
    )
    direction = "strong" if f.direction == g.direction == "strong" else "lax"
    return LaxMonoidalFunctor(src, tgt, functor, unit, mult, direction)


def trivial_monoidal() -> MonoidalCategory:
    """The one-object one-morphism monoidal category."""
    return strict_monoidal(
        terminal_category(),
        Functor(product_category(terminal_category(), terminal_category()),
                terminal_category(), (0,), (0,)),
        0,
    )


def unit_pick_lax(m: MonoidalCategory) -> LaxMonoidalFunctor:
    """The strong monoidal functor * -> M picking the tensor unit."""
    triv = trivial_monoidal()
    functor = Functor(triv.base, m.base, (m.unit,), (m.base.identity[m.unit],))
    mult = {(0, 0): m.l(m.unit)}
    return LaxMonoidalFunctor(triv, m, functor, m.base.identity[m.unit], mult, "strong")


def swap_lax(m: MonoidalCategory, n: MonoidalCategory) -> LaxMonoidalFunctor:
    """The strict switching functor M x N -> N x M."""
    src = product_monoidal(m, n)
    tgt = product_monoidal(n, m)
    nn, mn = n.base.n_objects, n.base.n_morphisms
    nm, mm = m.base.n_objects, m.base.n_morphisms
    obj = [0] * src.base.n_objects
    mor = [0] * src.base.n_morphisms
    for i in m.base.objects():
        for j in n.base.objects():
            obj[i * nn + j] = j * nm + i
    for f in m.base.morphisms():
        for g in n.base.morphisms():
            mor[f * mn + g] = g * mm + f
    functor = Functor(src.base, tgt.base, tuple(obj), tuple(mor))
    mult = {
        (x, y): tgt.base.identity[functor.obj_map[src.t_obj(x, y)]]
        for x, y in itertools.product(src.base.objects(), repeat=2)
    }
    return LaxMonoidalFunctor(
        src, tgt, functor, tgt.base.identity[tgt.unit], mult, "strong"
    )


@dataclass(frozen=True, eq=True)
class LaxMonoidalNat:
    source: LaxMonoidalFunctor
    target: LaxMonoidalFunctor
    nat: NatTransf

    def at(self, x: int) -> int:
        return self.nat.components[x]


def check_lax_monoidal_nat(n: LaxMonoidalNat) -> ValidationReport:
    report = ValidationReport("monoidal natural transformation")
    f, g = n.source, n.target
    b = f.target
    c = b.base
    report.extend(check_nat_transf(n.nat))
    if not report.ok:
        return report
    if c.comp(n.at(f.source.unit), f.unit_cell) != g.unit_cell:
        report.add("monoidal-nat-unit", ())
    for x, y in itertools.product(f.source.base.objects(), repeat=2):
        lhs = c.comp(n.at(f.source.t_obj(x, y)), f.m2(x, y))
        rhs = c.comp(g.m2(x, y), b.t_mor(n.at(x), n.at(y)))
        if lhs != rhs:
            report.add("monoidal-nat-mult", (x, y))
    return report


def identity_lax_nat(f: LaxMonoidalFunctor) -> LaxMonoidalNat:
    return LaxMonoidalNat(f, f, identity_nat(f.functor))


def check_braided_lax_functor(
    f: LaxMonoidalFunctor, cs: BraidedStructure, ct: BraidedStructure
) -> ValidationReport:
    """F is braided: F(c) . mult = mult . c on images."""
    report = check_lax_monoidal_functor(f)
    c = f.target.base
    for x, y in itertools.product(f.source.base.objects(), repeat=2):
        lhs = c.comp(f.m2(y, x), ct.c(f.on_obj(x), f.on_obj(y)))
        rhs = c.comp(f.on_mor(cs.c(x, y)), f.m2(x, y))
        if lhs != rhs:
            report.add("braided-functor", (x, y))
    return report


def mid_swap(m: MonoidalCategory, a1: int, a2: int, b1: int, b2: int, swap) -> int:
    """(a1@a2)@(b1@b2) -> (a1@b1)@(a2@b2) exchanging the middle factors.

    swap(u, v) must hand back a morphism u@v -> v@u.
    """
    c = m.base
    s1 = m.a(a1, a2, m.t_obj(b1, b2))
    s2 = m.t_mor(c.identity[a1], inv(m, m.a(a2, b1, b2)))
    s3 = m.t_mor(c.identity[a1], m.t_mor(swap(a2, b1), c.identity[b2]))
    s4 = m.t_mor(c.identity[a1], m.a(b1, a2, b2))
    s5 = inv(m, m.a(a1, b1, m.t_obj(a2, b2)))
    return c.comp_many(s5, s4, s3, s2, s1)


@kept
def braided_tensor_lax_structure(b: BraidedStructure) -> LaxMonoidalFunctor:
    """The tensor functor A x A -> A with the braiding-induced lax cells.
    The mult cells are a ``LazyPairTable``: each is composed when it is
    first read, and one that cannot be composed raises there."""
    m = b.host
    prod = product_monoidal(m, m)
    n = m.base.n_objects

    def m2(p: int, q: int) -> int:
        a1, b1 = divmod(p, n)
        a2, b2 = divmod(q, n)
        # (a1@b1)@(a2@b2) -> (a1@a2)@(b1@b2), swapping with c_{b1,a2}
        return mid_swap(m, a1, b1, a2, b2, b.c)

    unit = inv(m, m.l(m.unit))
    tensor = Functor(prod.base, m.base, m.tensor.obj_map, m.tensor.mor_map)
    return LaxMonoidalFunctor(prod, m, tensor, unit, LazyPairTable(n * n, m2), "strong")


@dataclass(frozen=True, eq=True)
class AlgebraObject:
    host: MonoidalCategory
    carrier: int
    mult: int  # A@A -> A
    unit: int  # 1 -> A
    commutative_flag: bool = False


def check_algebra(
    alg: AlgebraObject, braiding: BraidedStructure | None = None
) -> ValidationReport:
    report = ValidationReport("algebra object")
    m = alg.host
    c = m.base
    a = alg.carrier
    aa = m.t_obj(a, a)
    typed = _expect(report, "algebra-typing", ("mult",), c, alg.mult, aa, a)
    typed &= _expect(report, "algebra-typing", ("unit",), c, alg.unit, m.unit, a)
    if not typed:
        return report
    lhs = c.comp(alg.mult, m.t_mor(alg.mult, c.identity[a]))
    rhs = c.comp_many(alg.mult, m.t_mor(c.identity[a], alg.mult), m.a(a, a, a))
    if lhs != rhs:
        report.add("algebra-associativity", (a,))
    if c.comp(alg.mult, m.t_mor(alg.unit, c.identity[a])) != m.l(a):
        report.add("algebra-left-unit", (a,))
    if c.comp(alg.mult, m.t_mor(c.identity[a], alg.unit)) != m.r(a):
        report.add("algebra-right-unit", (a,))
    if alg.commutative_flag:
        if braiding is None:
            raise StructureError("commutativity check needs a braiding")
        if c.comp(alg.mult, braiding.c(a, a)) != alg.mult:
            report.add("algebra-commutativity", (a,))
    return report


@dataclass(frozen=True, eq=True)
class HalfBraidingOrd:
    carrier: int
    components: dict  # z -> morphism z@x -> x@z


def check_half_braiding(m: MonoidalCategory, hb: HalfBraidingOrd) -> ValidationReport:
    report = ValidationReport("half-braiding")
    c = m.base
    x = hb.carrier
    typed = True
    for z in c.objects():
        g = hb.components.get(z)
        if g is None:
            raise StructureError(f"half-braiding missing component at {z}")
        typed &= _expect(
            report, "half-braiding-typing", (z,), c, g, m.t_obj(z, x), m.t_obj(x, z)
        )
    if not typed:
        return report
    for z in c.objects():
        if find_inverse(c, hb.components[z]) is None:
            report.add("half-braiding-iso", (z,))
    for f in c.morphisms():
        z, zp = c.dom[f], c.cod[f]
        lhs = c.comp(hb.components[zp], m.t_mor(f, c.identity[x]))
        rhs = c.comp(m.t_mor(c.identity[x], f), hb.components[z])
        if lhs != rhs:
            report.add("half-braiding-naturality", (f,))
    for y, z in itertools.product(c.objects(), repeat=2):
        # both sides (y@z)@x -> x@(y@z)
        rhs = c.comp_many(
            m.a(x, y, z),
            m.t_mor(hb.components[y], c.identity[z]),
            inv(m, m.a(y, x, z)),
            m.t_mor(c.identity[y], hb.components[z]),
            m.a(y, z, x),
        )
        if hb.components[m.t_obj(y, z)] != rhs:
            report.add("half-braiding-tensor", (y, z))
    u = m.unit
    if hb.components[u] != c.comp(inv(m, m.r(x)), m.l(x)):
        report.add("half-braiding-unit", (u,))
    return report


def enumerate_half_braidings(
    m: MonoidalCategory, x: int, cap: int | Budget | None = None
) -> list[HalfBraidingOrd]:
    """All half-braidings on x, deterministically ordered."""
    c = m.base
    budget = Budget.of(cap, "half-braiding enumeration")
    pools = [
        [f for f in c.hom(m.t_obj(z, x), m.t_obj(x, z)) if find_inverse(c, f) is not None]
        for z in c.objects()
    ]
    hbs = (
        HalfBraidingOrd(x, dict(enumerate(combo)))
        for combo in _search(len(pools), lambda z, a: pools[z], (), budget)
    )
    return [hb for hb in hbs if check_half_braiding(m, hb).ok]


def _tensor_half_braiding(
    m: MonoidalCategory, x: int, gamma: Mapping, y: int, delta: Mapping
) -> dict:
    """The half-braiding on x@y from gamma on x and delta on y: at each z,
    z@(x@y) -> (z@x)@y -> (x@z)@y -> x@(z@y) -> x@(y@z) -> (x@y)@z,
    exchanging z past x with gamma, then past y with delta."""
    c = m.base
    return {
        z: c.comp_many(
            inv(m, m.a(x, y, z)),
            m.t_mor(c.identity[x], delta[z]),
            m.a(x, z, y),
            m.t_mor(gamma[z], c.identity[y]),
            inv(m, m.a(z, x, y)),
        )
        for z in c.objects()
    }


def _unit_half_braiding(m: MonoidalCategory) -> dict:
    """The half-braiding on the unit: at each z, z@1 -> z -> 1@z."""
    c = m.base
    return {z: c.comp(inv(m, m.l(z)), m.r(z)) for z in c.objects()}


def _half_braided_index(pairs) -> Callable[[int, Mapping], int | None]:
    """The lookup (x, components) -> position of that (object,
    half-braiding) pair among pairs, or None; the one place that keys a
    half-braiding, by its sorted components."""
    index = {
        (x, tuple(sorted(hb.components.items()))): i
        for i, (x, hb) in enumerate(pairs)
    }
    return lambda x, comps: index.get((x, tuple(sorted(comps.items()))))


def _half_braided_tensor(m: MonoidalCategory, pairs) -> tuple[tuple, int]:
    """The tensor on objects (row-major) and the unit of the half-braided
    objects pairs of m.

    The tensor of two pairs carries ``_tensor_half_braiding`` and the unit
    carries ``_unit_half_braiding``, each found by ``_half_braided_index``.
    Raises StructureError when one of them is not among pairs.
    """
    find = _half_braided_index(pairs)

    def tensor_obj(i: int, j: int) -> int:
        (x, gamma), (y, delta) = pairs[i], pairs[j]
        comps = _tensor_half_braiding(m, x, gamma.components, y, delta.components)
        pos = find(m.t_obj(x, y), comps)
        if pos is None:
            raise StructureError(
                f"tensor of half-braided objects not recognized at {(i, j)}"
            )
        return pos

    n = len(pairs)
    t_obj = tuple(tensor_obj(i, j) for i, j in itertools.product(range(n), repeat=2))
    unit = find(m.unit, _unit_half_braiding(m))
    if unit is None:
        raise StructureError("unit half-braiding not recognized")
    return t_obj, unit


@dataclass(frozen=True, eq=True)
class DrinfeldCenter:
    """A center presented as a braided monoidal category plus forgetful data.

    object_data[i] describes center object i; forgetful is a strong monoidal
    functor into the host.
    """

    monoidal: MonoidalCategory
    braided: BraidedStructure
    forgetful: LaxMonoidalFunctor
    object_data: tuple


def drinfeld_center_z1(
    m: MonoidalCategory, cap: int | Budget | None = None
) -> DrinfeldCenter:
    """The category of (object, half-braiding) pairs, built by brute force.

    The tensor on objects and the unit come from the object table
    ``_half_braided_tensor``, which ``centers.gamma1`` reads too.

    m is not validated: the result means nothing unless
    ``check_monoidal(m)`` passes. An invalid m can still raise
    StructureError (a structure morphism that is not invertible, a mistyped
    composite, a tensor or unit half-braiding that is not among the
    enumerated ones, named by its pair) or KeyError (an identity,
    composite, tensor, associator, unitor or braiding component that is not
    a morphism of the center).
    """
    c = m.base
    budget = Budget.of(cap, "drinfeld center")
    z_objects: list[tuple[int, HalfBraidingOrd]] = []
    for x in c.objects():
        for hb in enumerate_half_braidings(m, x, budget):
            z_objects.append((x, hb))
    nz = len(z_objects)

    def respects(f: int, src: tuple, tgt: tuple) -> bool:
        x, gamma = src
        y, delta = tgt
        for z in c.objects():
            lhs = c.comp(delta.components[z], m.t_mor(c.identity[z], f))
            rhs = c.comp(m.t_mor(f, c.identity[z]), gamma.components[z])
            if lhs != rhs:
                return False
        return True

    z_morphisms: list[tuple[int, int, int]] = []  # (src obj, tgt obj, host mor)
    for i, src in enumerate(z_objects):
        for j, tgt in enumerate(z_objects):
            for f in c.hom(src[0], tgt[0]):
                budget.spend()
                if respects(f, src, tgt):
                    z_morphisms.append((i, j, f))
    zcat, index = labelled_category(
        nz, z_morphisms, lambda i: c.identity[z_objects[i][0]],
        lambda g, f: c.comp(g[2], f[2]),
    )

    t_obj_map, z_unit = _half_braided_tensor(m, z_objects)
    zmon, forgetful = _lifted_monoidal(
        m, zcat, z_morphisms, index, [x for x, _ in z_objects], t_obj_map, z_unit
    )
    braiding = {
        (i, j): index[(
            zmon.t_obj(i, j), zmon.t_obj(j, i), z_objects[j][1].components[z_objects[i][0]]
        )]
        for i, j in itertools.product(range(nz), repeat=2)
    }
    zbraided = _flagged_braiding(zmon, braiding)
    return DrinfeldCenter(zmon, zbraided, forgetful, tuple(z_objects))


def full_monoidal_subcategory(
    m: MonoidalCategory, objs: list[int]
) -> tuple[MonoidalCategory, LaxMonoidalFunctor]:
    """The full subcategory on objs with the restricted monoidal structure.

    objs must contain the unit and be closed under tensor.
    """
    c = m.base
    objs = sorted(set(objs))
    if m.unit not in objs:
        raise StructureError("subcategory must contain the unit")
    obj_index = {x: i for i, x in enumerate(objs)}
    for x, y in itertools.product(objs, repeat=2):
        if m.t_obj(x, y) not in obj_index:
            raise StructureError(f"objects not tensor-closed at {(x, y)}")
    elements = [
        (obj_index[c.dom[f]], obj_index[c.cod[f]], f)
        for f in c.morphisms() if c.dom[f] in obj_index and c.cod[f] in obj_index
    ]
    sub, index = labelled_category(
        len(objs), elements, lambda i: c.identity[objs[i]],
        lambda g, f: c.comp(g[2], f[2]),
    )
    t_obj = tuple(obj_index[m.t_obj(x, y)] for x, y in itertools.product(objs, repeat=2))
    return _lifted_monoidal(m, sub, elements, index, objs, t_obj, obj_index[m.unit])


def _lifted_monoidal(
    m: MonoidalCategory, cat: FinCategory, elements: list, index: dict,
    host_objs: Sequence[int], t_obj: Sequence[int], unit: int,
) -> tuple[MonoidalCategory, LaxMonoidalFunctor]:
    """The monoidal structure of m on a labelled category over it, and the
    strong monoidal functor that forgets to m.

    ``cat`` is the labelled category of ``elements`` (triples (i, j, f) with
    f a morphism of m from ``host_objs[i]`` to ``host_objs[j]``), ``t_obj``
    its tensor on objects and ``unit`` its unit. Tensor, associator and
    unitors are those of m, read through ``index``; an associator or unitor
    cell that is not an element raises StructureError naming it. The
    forgetful functor has identity cells.
    """
    c = m.base
    n = cat.n_objects
    tensor = labelled_bifunctor(
        cat, elements, index, t_obj, lambda f, g: m.t_mor(f[2], g[2])
    )

    def t(i: int, j: int) -> int:
        return t_obj[i * n + j]

    def lift(cell: str, key, dom: int, cod: int, f: int) -> int:
        k = index.get((dom, cod, f))
        if k is None:
            raise StructureError(f"{cell} at {key} is not a morphism of the lifted category")
        return k

    h = host_objs
    assoc = {
        (i, j, k): lift("associator", (i, j, k), t(t(i, j), k), t(i, t(j, k)),
                        m.a(h[i], h[j], h[k]))
        for i, j, k in itertools.product(range(n), repeat=3)
    }
    lu = tuple(lift("left unitor", i, t(unit, i), i, m.l(h[i])) for i in range(n))
    ru = tuple(lift("right unitor", i, t(i, unit), i, m.r(h[i])) for i in range(n))
    lifted = MonoidalCategory(cat, tensor, unit, assoc, lu, ru)
    forget = Functor(cat, c, tuple(h), tuple(f for _, _, f in elements))
    mult = {
        (i, j): c.identity[m.t_obj(h[i], h[j])]
        for i, j in itertools.product(range(n), repeat=2)
    }
    return lifted, LaxMonoidalFunctor(lifted, m, forget, c.identity[m.unit], mult, "strong")


def is_transparent(b: BraidedStructure, x: int, against: list[int]) -> bool:
    m = b.host
    c = m.base
    return all(
        c.comp(b.c(y, x), b.c(x, y)) == c.identity[m.t_obj(x, y)] for y in against
    )


def _flagged_braiding(m: MonoidalCategory, braiding: dict) -> BraidedStructure:
    """The braiding on m, flagged symmetric when every object is
    transparent against every object."""
    b = BraidedStructure(m, braiding)
    objs = list(m.base.objects())
    return BraidedStructure(m, braiding, all(is_transparent(b, x, objs) for x in objs))


def muger_centralizer(
    b: BraidedStructure, objs: list[int]
) -> tuple[MonoidalCategory, BraidedStructure, LaxMonoidalFunctor]:
    """Objects of the host doubly commuting with every object in objs."""
    m = b.host
    trans = [x for x in m.base.objects() if is_transparent(b, x, objs)]
    submon, inclusion = full_monoidal_subcategory(m, trans)
    obj_index = {x: i for i, x in enumerate(sorted(set(trans)))}
    mor_to_sub = {f: i for i, f in enumerate(inclusion.functor.mor_map)}
    braiding = {
        (obj_index[x], obj_index[y]): mor_to_sub[b.c(x, y)]
        for x, y in itertools.product(sorted(set(trans)), repeat=2)
    }
    return submon, _flagged_braiding(submon, braiding), inclusion


def muger_center_z2(
    b: BraidedStructure,
) -> tuple[MonoidalCategory, BraidedStructure, LaxMonoidalFunctor]:
    """The full subcategory of transparent objects; always symmetric."""
    return muger_centralizer(b, list(b.host.base.objects()))


@dataclass(frozen=True, eq=True)
class DualityWitness:
    obj: int
    dual: int
    ev: int  # dual@obj -> 1 (left) or obj@dual -> 1 (right)
    coev: int  # 1 -> obj@dual (left) or 1 -> dual@obj (right)


def find_left_dual(m: MonoidalCategory, x: int) -> DualityWitness | None:
    """Search a left dual of x with zigzag identities."""
    c = m.base
    for d in c.objects():
        for ev in c.hom(m.t_obj(d, x), m.unit):
            for coev in c.hom(m.unit, m.t_obj(x, d)):
                # x -> 1@x -> (x@d)@x -> x@(d@x) -> x@1 -> x
                zig_x = c.comp_many(
                    m.r(x),
                    m.t_mor(c.identity[x], ev),
                    m.a(x, d, x),
                    m.t_mor(coev, c.identity[x]),
                    inv(m, m.l(x)),
                )
                # d -> d@1 -> d@(x@d) -> (d@x)@d -> 1@d -> d
                zig_d = c.comp_many(
                    m.l(d),
                    m.t_mor(ev, c.identity[d]),
                    inv(m, m.a(d, x, d)),
                    m.t_mor(c.identity[d], coev),
                    inv(m, m.r(d)),
                )
                if zig_x == c.identity[x] and zig_d == c.identity[d]:
                    return DualityWitness(x, d, ev, coev)
    return None


def check_rigid(m: MonoidalCategory) -> tuple[ValidationReport, dict]:
    """Every object must admit a left and a right dual; witnesses returned.

    A right dual of x in m (ev x@d -> 1, coev 1 -> d@x) is a left dual of x
    in ``reversed_monoidal(m)``, so both are found by ``find_left_dual``.
    Building the reversed category inverts every associator of m, so this
    raises StructureError when one of them is not invertible.
    """
    report = ValidationReport("rigidity")
    witnesses = {}
    rev = reversed_monoidal(m)
    for x in m.base.objects():
        left = find_left_dual(m, x)
        right = find_left_dual(rev, x)
        if left is None:
            report.add("left-dual", (x,))
        if right is None:
            report.add("right-dual", (x,))
        witnesses[x] = (left, right)
    return report, witnesses
