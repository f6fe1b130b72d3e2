"""Shared hand-built test categories, independent of the fixture builders.

These tables are written out longhand so they can serve as oracles for the
library's own constructions.
"""

from ecat.core import FinCategory


def chain2() -> FinCategory:
    """The poset 0 <= 1 as a category: morphisms id_0, id_1, le: 0 -> 1."""
    return FinCategory(
        n_objects=2,
        dom=(0, 1, 0),
        cod=(0, 1, 1),
        identity=(0, 1),
        compose={
            (0, 0): 0,
            (1, 1): 1,
            (2, 0): 2,
            (1, 2): 2,
        },
        obj_names=("0", "1"),
        mor_names=("id_0", "id_1", "le"),
    )


def discrete(n: int) -> FinCategory:
    return FinCategory(
        n_objects=n,
        dom=tuple(range(n)),
        cod=tuple(range(n)),
        identity=tuple(range(n)),
        compose={(i, i): i for i in range(n)},
    )


def parallel_pair() -> FinCategory:
    """Two objects, two parallel arrows 0 -> 1 (plus identities)."""
    return FinCategory(
        n_objects=2,
        dom=(0, 1, 0, 0),
        cod=(0, 1, 1, 1),
        identity=(0, 1),
        compose={
            (0, 0): 0,
            (1, 1): 1,
            (2, 0): 2,
            (1, 2): 2,
            (3, 0): 3,
            (1, 3): 3,
        },
    )


def thin_category(n, leq):
    """Thin category on n objects with an arrow x -> y iff leq(x, y)."""
    mors = [(x, y) for x in range(n) for y in range(n) if leq(x, y)]
    index = {m: i for i, m in enumerate(mors)}
    compose = {}
    for f, (x, y) in enumerate(mors):
        for g, (yp, z) in enumerate(mors):
            if yp == y:
                compose[(g, f)] = index[(x, z)]
    return FinCategory(
        n_objects=n,
        dom=tuple(x for x, _ in mors),
        cod=tuple(y for _, y in mors),
        identity=tuple(index[(x, x)] for x in range(n)),
        compose=compose,
    )


def thin_monoidal(c, t, unit):
    """Strict monoidal structure on a thin category from an object tensor t."""
    from ecat.core import Functor, product_category
    from ecat.monoidal import strict_monoidal

    n, nm = c.n_objects, c.n_morphisms
    obj_map = [t(i, j) for i in range(n) for j in range(n)]
    mor_map = []
    for f in range(nm):
        for g in range(nm):
            (found,) = c.hom(t(c.dom[f], c.dom[g]), t(c.cod[f], c.cod[g]))
            mor_map.append(found)
    tensor = Functor(product_category(c, c), c, tuple(obj_map), tuple(mor_map))
    return strict_monoidal(c, tensor, unit)


def lattice2_monoidal():
    """chain2 with meet as tensor, unit 1."""
    return thin_monoidal(chain2(), min, 1)


def lattice4_monoidal():
    """Boolean lattice {0, a, b, 1} = {0b00, 0b01, 0b10, 0b11}, meet, unit 1."""
    c = thin_category(4, lambda x, y: x & y == x)
    return thin_monoidal(c, lambda x, y: x & y, 3)


def group_monoidal(table, unit):
    """Discrete category on the elements of a group multiplication table."""
    from ecat.core import Functor, product_category
    from ecat.monoidal import strict_monoidal

    n = len(table)
    c = discrete(n)
    obj_map = [table[i][j] for i in range(n) for j in range(n)]
    tensor = Functor(product_category(c, c), c, tuple(obj_map), tuple(obj_map))
    return strict_monoidal(c, tensor, unit)


def z2_discrete_monoidal():
    return group_monoidal([[0, 1], [1, 0]], 0)


def s3_discrete_monoidal():
    """Symmetric group on 3 letters, as a discrete monoidal category."""
    import itertools

    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [
        [idx[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms
    ]
    return group_monoidal(table, idx[(0, 1, 2)])


def sign_monoidal():
    """One object, endomorphisms Z/2, tensor = addition of endomorphisms."""
    from ecat.core import Functor, product_category
    from ecat.monoidal import strict_monoidal

    c = FinCategory(
        n_objects=1,
        dom=(0, 0),
        cod=(0, 0),
        identity=(0,),
        compose={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
        mor_names=("e", "g"),
    )
    tensor = Functor(
        product_category(c, c), c, (0,), (0, 1, 1, 0)
    )
    return strict_monoidal(c, tensor, 0)


def identity_braiding(m, symmetric=True):
    """The identity-component braiding; valid when the tensor is commutative."""
    import itertools

    from ecat.monoidal import BraidedStructure

    braiding = {}
    for x, y in itertools.product(range(m.base.n_objects), repeat=2):
        assert m.t_obj(x, y) == m.t_obj(y, x)
        braiding[(x, y)] = m.base.identity[m.t_obj(x, y)]
    return BraidedStructure(m, braiding, symmetric)


def thin_enriched(m, objs, hom):
    """Enriched category over a thin monoidal base from a hom-object table."""
    import itertools

    from ecat.enriched import EnrichedCategory

    n = len(objs)
    hom_obj = {(x, y): hom(objs[x], objs[y]) for x in range(n) for y in range(n)}
    ident = {}
    for x in range(n):
        (f,) = m.base.hom(m.unit, hom_obj[(x, x)])
        ident[x] = f
    comp = {}
    for x, y, z in itertools.product(range(n), repeat=3):
        (f,) = m.base.hom(
            m.t_obj(hom_obj[(y, z)], hom_obj[(x, y)]), hom_obj[(x, z)]
        )
        comp[(x, y, z)] = f
    return EnrichedCategory(m, n, hom_obj, ident, comp)


def chain2_enriched():
    """chain2 enriched in lattice-2: hom objects are Heyting implications."""
    return thin_enriched(lattice2_monoidal(), [0, 1], lambda x, y: int(x <= y))


def lattice4_self_enriched():
    """The Boolean lattice enriched in itself by implication."""
    return thin_enriched(lattice4_monoidal(), [0, 1, 2, 3], lambda x, y: (~x | y) & 3)


def sign_enriched(n_objects, comp_value):
    """Enriched category over the sign base: every hom object is the point."""
    import itertools

    from ecat.enriched import EnrichedCategory

    m = sign_monoidal()
    hom_obj = {(x, y): 0 for x in range(n_objects) for y in range(n_objects)}
    ident = {x: 0 for x in range(n_objects)}
    comp = {
        t: comp_value for t in itertools.product(range(n_objects), repeat=3)
    }
    return EnrichedCategory(m, n_objects, hom_obj, ident, comp)


def z2_enriched():
    """Discrete Z/2 enriched in itself: hom(x, y) = y - x."""
    return thin_enriched(z2_discrete_monoidal(), [0, 1], lambda x, y: x ^ y)


def trivial_base_enriched():
    """The one-object enriched category over the one-morphism base."""
    from ecat.core import Functor, product_category, terminal_category
    from ecat.enriched import EnrichedCategory
    from ecat.monoidal import strict_monoidal

    t = terminal_category()
    triv = strict_monoidal(t, Functor(product_category(t, t), t, (0,), (0,)), 0)
    return EnrichedCategory(triv, 1, {(0, 0): 0}, {0: 0}, {(0, 0, 0): 0})


def semion_monoidal():
    """Pointed category on Z/2 with End = Z/4, associator 2 at (1,1,1).

    Morphism a*4+k is the endomorphism "k" of the object a; composition and
    tensor add phases mod 4. The nontrivial associator component is what
    later admits a non-symmetric braiding.
    """
    import itertools

    from ecat.core import Functor, product_category
    from ecat.monoidal import MonoidalCategory

    c = FinCategory(
        n_objects=2,
        dom=tuple(a for a in range(2) for _ in range(4)),
        cod=tuple(a for a in range(2) for _ in range(4)),
        identity=(0, 4),
        compose={
            (a * 4 + i, a * 4 + j): a * 4 + (i + j) % 4
            for a in range(2)
            for i in range(4)
            for j in range(4)
        },
    )
    obj_map = tuple((a + b) % 2 for a in range(2) for b in range(2))
    mor_map = []
    for f in range(8):
        for g in range(8):
            a, i = divmod(f, 4)
            b, j = divmod(g, 4)
            mor_map.append(((a + b) % 2) * 4 + (i + j) % 4)
    tensor = Functor(product_category(c, c), c, obj_map, tuple(mor_map))
    assoc = {
        (a, b, d): ((a + b + d) % 2) * 4 + (2 if a == b == d == 1 else 0)
        for a, b, d in itertools.product(range(2), repeat=3)
    }
    return MonoidalCategory(c, tensor, 0, assoc, (0, 4), (0, 4))


def semion_braiding():
    """The non-symmetric braiding c(1,1) = phase 1 on the semion base."""
    import itertools

    from ecat.monoidal import BraidedStructure

    m = semion_monoidal()
    braiding = {
        (a, b): ((a + b) % 2) * 4 + a * b
        for a, b in itertools.product(range(2), repeat=2)
    }
    return BraidedStructure(m, braiding, False)


def semion_enriched_monoidal():
    """The semion category enriched in itself: hom(x, y) = x + y.

    All structure phases were found by solving the coherence equations mod 4
    once and for all; the tests re-verify every law from scratch.
    """
    import itertools

    from ecat.enriched import EnrichedCategory, EnrichedFunctor, cartesian_product_enriched
    from ecat.enriched_monoidal import EnrichedMonoidalCategory
    from ecat.monoidal import braided_tensor_lax_structure

    b = semion_braiding()
    m = b.host

    def el(obj, phase):
        return obj * 4 + phase % 4

    hom_obj = {(x, y): (x + y) % 2 for x in range(2) for y in range(2)}
    ident = {0: 0, 1: 0}
    theta = {t: 0 for t in itertools.product(range(2), repeat=3)}
    theta[(0, 1, 0)] = 2
    comp = {
        (x, y, z): el((x + z) % 2, theta[(x, y, z)])
        for x, y, z in itertools.product(range(2), repeat=3)
    }
    host = EnrichedCategory(m, 2, hom_obj, ident, comp)

    tau = {
        (0, 0, 1, 1): 3,
        (0, 1, 1, 1): 1,
        (1, 0, 0, 1): 3,
        (1, 0, 1, 1): 2,
        (1, 1, 0, 0): 2,
        (1, 1, 0, 1): 1,
    }
    cells = {}
    for p, q in itertools.product(range(4), repeat=2):
        (x1, x2), (y1, y2) = divmod(p, 2), divmod(q, 2)
        obj = (x1 + y1 + x2 + y2) % 2
        cells[(p, q)] = el(obj, tau.get((x1, x2, y1, y2), 0))
    tensor = EnrichedFunctor(
        braided_tensor_lax_structure(b),
        cartesian_product_enriched(host, host),
        host,
        (0, 1, 1, 0),
        cells,
    )
    assoc = {
        (x, y, z): el(0, 2 if x == y == z == 1 else 0)
        for x, y, z in itertools.product(range(2), repeat=3)
    }
    return EnrichedMonoidalCategory(host, b, tensor, 0, assoc, (0, 0), (0, 0))


def preorder_enriched_monoidal():
    """The preordered monoid {1, s} (s.s = s, 1 <= s) enriched in lattice-2.

    Thin everywhere: every structure component is the unique morphism of
    its type, so this is the cheapest nontrivial enriched monoidal fixture.
    """
    import itertools

    from ecat.enriched import EnrichedFunctor, cartesian_product_enriched
    from ecat.enriched_monoidal import EnrichedMonoidalCategory
    from ecat.monoidal import braided_tensor_lax_structure

    m = lattice2_monoidal()
    b = identity_braiding(m)
    host = thin_enriched(m, [0, 1], lambda a, bb: 1 if a <= bb else 0)
    c = m.base

    def pick(a, bb):
        (f,) = c.hom(a, bb)
        return f

    cells = {}
    for p, q in itertools.product(range(4), repeat=2):
        (x1, x2), (y1, y2) = divmod(p, 2), divmod(q, 2)
        cells[(p, q)] = pick(
            m.t_obj(host.hom(x1, y1), host.hom(x2, y2)),
            host.hom(x1 | x2, y1 | y2),
        )
    tensor = EnrichedFunctor(
        braided_tensor_lax_structure(b),
        cartesian_product_enriched(host, host),
        host,
        (0, 1, 1, 1),
        cells,
    )
    one = pick(m.unit, 1)
    assoc = {t: one for t in itertools.product(range(2), repeat=3)}
    return EnrichedMonoidalCategory(host, b, tensor, 0, assoc, (one, one), (one, one))


def sign_algebra(mult, unit):
    from ecat.monoidal import AlgebraObject

    return AlgebraObject(sign_monoidal(), 0, mult, unit, True)


def chain3_monoidal():
    """The chain 0 <= 1 <= 2 with min as tensor, unit 2."""
    return thin_monoidal(thin_category(3, lambda x, y: x <= y), min, 2)


def chain3_enriched():
    """chain-3 enriched in itself: hom(x, y) = top if x <= y else y."""
    return thin_enriched(chain3_monoidal(), [0, 1, 2], lambda x, y: 2 if x <= y else y)


# --- eager product builders ---
#
# Every table is written out as a plain tuple or dict. The library builds
# products as index views instead; these are the reference oracles for them.


def eager_product_category(c, d):
    nd, md = d.n_objects, d.n_morphisms
    dom, cod = [], []
    for f in c.morphisms():
        for g in d.morphisms():
            dom.append(c.dom[f] * nd + d.dom[g])
            cod.append(c.cod[f] * nd + d.cod[g])
    identity = tuple(
        c.identity[i] * md + d.identity[j] for i in c.objects() for j in d.objects()
    )
    compose = {}
    for (g1, f1), h1 in c.compose.items():
        for (g2, f2), h2 in d.compose.items():
            compose[(g1 * md + g2, f1 * md + f2)] = h1 * md + h2
    names = None
    if c.obj_names and d.obj_names:
        names = tuple(f"({a},{b})" for a in c.obj_names for b in d.obj_names)
    return FinCategory(c.n_objects * nd, tuple(dom), tuple(cod), identity, compose, names)


def eager_product_monoidal(m, n):
    import itertools

    from ecat.core import Functor
    from ecat.monoidal import MonoidalCategory

    base = eager_product_category(m.base, n.base)
    nm, mm = m.base.n_objects, m.base.n_morphisms
    nn, mn = n.base.n_objects, n.base.n_morphisms

    def ob(i, j):
        return i * nn + j

    def mo(f, g):
        return f * mn + g

    src = eager_product_category(base, base)
    obj_map = [0] * src.n_objects
    for i1, j1, i2, j2 in itertools.product(range(nm), range(nn), range(nm), range(nn)):
        obj_map[ob(i1, j1) * base.n_objects + ob(i2, j2)] = ob(
            m.t_obj(i1, i2), n.t_obj(j1, j2)
        )
    mor_map = [0] * src.n_morphisms
    for f1, g1, f2, g2 in itertools.product(range(mm), range(mn), range(mm), range(mn)):
        mor_map[mo(f1, g1) * base.n_morphisms + mo(f2, g2)] = mo(
            m.t_mor(f1, f2), n.t_mor(g1, g2)
        )
    tensor = Functor(src, base, tuple(obj_map), tuple(mor_map))
    assoc = {}
    for (i1, j1), (i2, j2), (i3, j3) in itertools.product(
        itertools.product(range(nm), range(nn)), repeat=3
    ):
        assoc[(ob(i1, j1), ob(i2, j2), ob(i3, j3))] = mo(
            m.a(i1, i2, i3), n.a(j1, j2, j3)
        )
    lu = tuple(mo(m.l(i), n.l(j)) for i in range(nm) for j in range(nn))
    ru = tuple(mo(m.r(i), n.r(j)) for i in range(nm) for j in range(nn))
    return MonoidalCategory(base, tensor, ob(m.unit, n.unit), assoc, lu, ru)


def eager_product_lax(f, g):
    import itertools

    from ecat.core import Functor
    from ecat.monoidal import LaxMonoidalFunctor

    src = eager_product_monoidal(f.source, g.source)
    tgt = eager_product_monoidal(f.target, g.target)
    n2 = g.source.base.n_objects
    nt2, mt2 = g.target.base.n_objects, g.target.base.n_morphisms
    obj = tuple(
        f.on_obj(i) * nt2 + g.on_obj(j)
        for i in f.source.base.objects()
        for j in g.source.base.objects()
    )
    mor = tuple(
        f.on_mor(i) * mt2 + g.on_mor(j)
        for i in f.source.base.morphisms()
        for j in g.source.base.morphisms()
    )
    mult = {}
    for i1, j1, i2, j2 in itertools.product(
        f.source.base.objects(), g.source.base.objects(),
        f.source.base.objects(), g.source.base.objects(),
    ):
        mult[(i1 * n2 + j1, i2 * n2 + j2)] = f.m2(i1, i2) * mt2 + g.m2(j1, j2)
    direction = "strong" if f.direction == g.direction == "strong" else "lax"
    return LaxMonoidalFunctor(
        src, tgt, Functor(src.base, tgt.base, obj, mor),
        f.unit_cell * mt2 + g.unit_cell, mult, direction,
    )


def eager_cartesian_product_enriched(e1, e2):
    import itertools

    from ecat.enriched import EnrichedCategory

    base = eager_product_monoidal(e1.base, e2.base)
    n2 = e2.base.base.n_objects
    m2 = e2.base.base.n_morphisms
    n_obj = e1.n_objects * e2.n_objects

    def ob(x):
        return divmod(x, e2.n_objects)

    hom_obj, ident, comp = {}, {}, {}
    for x, y in itertools.product(range(n_obj), repeat=2):
        (x1, x2), (y1, y2) = ob(x), ob(y)
        hom_obj[(x, y)] = e1.hom(x1, y1) * n2 + e2.hom(x2, y2)
    for x in range(n_obj):
        x1, x2 = ob(x)
        ident[x] = e1.one(x1) * m2 + e2.one(x2)
    for x, y, z in itertools.product(range(n_obj), repeat=3):
        (x1, x2), (y1, y2), (z1, z2) = ob(x), ob(y), ob(z)
        comp[(x, y, z)] = e1.c(x1, y1, z1) * m2 + e2.c(x2, y2, z2)
    return EnrichedCategory(base, n_obj, hom_obj, ident, comp)


def eager_product_enriched_functor(f, g):
    import itertools

    from ecat.enriched import EnrichedFunctor

    src = eager_cartesian_product_enriched(f.source, g.source)
    tgt = eager_cartesian_product_enriched(f.target, g.target)
    n2s, n2t = g.source.n_objects, g.target.n_objects
    mt = g.background.target.base.n_morphisms
    obj = tuple(
        f.on_obj(x1) * n2t + g.on_obj(x2)
        for x1 in f.source.objects()
        for x2 in g.source.objects()
    )
    comps = {}
    for x, y in itertools.product(range(src.n_objects), repeat=2):
        (x1, x2), (y1, y2) = divmod(x, n2s), divmod(y, n2s)
        comps[(x, y)] = f.at(x1, y1) * mt + g.at(x2, y2)
    return EnrichedFunctor(
        eager_product_lax(f.background, g.background), src, tgt, obj, comps
    )


# --- lookup oracles ---
#
# The library reads hom sets from a per-category index, memoises inverses
# and hoists loop invariants out of check_monoidal_module. These are the
# plain versions they replaced, kept as reference oracles.


def scan_hom(c, x, y):
    """Hom set by a linear scan over all morphisms, in ascending order."""
    return tuple(f for f in range(c.n_morphisms) if c.dom[f] == x and c.cod[f] == y)


def scan_inverse(c, f):
    """Inverse of f by a fresh scan of the reverse hom set, or None."""
    for g in scan_hom(c, c.cod[f], c.dom[f]):
        if c.comp(g, f) == c.identity[c.dom[f]] and c.comp(f, g) == c.identity[c.cod[f]]:
            return g
    return None


def exhaustive_check_monoidal_module(mm):
    """check_monoidal_module before its lookups were hoisted, verbatim."""
    import itertools

    from ecat.actions import _expect, inv
    from ecat.report import StructureError, ValidationReport

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

    # the module associator is an oplax-monoidal transformation;
    # the mid-swap on the base uses the anti-braiding
    from ecat.monoidal import mid_swap

    for a1, a2, b1, b2 in itertools.product(objs_a, repeat=4):
        for x, y in itertools.product(objs_x, repeat=2):
            lhs = c.comp_many(
                mm.i(a1, a2, mod.a_obj(b1, x), mod.a_obj(b2, y)),
                mod.a_mor(
                    a_cat.base.identity[a_cat.t_obj(a1, a2)], mm.i(b1, b2, x, y)
                ),
                mod.o(a_cat.t_obj(a1, a2), a_cat.t_obj(b1, b2), lm.t_obj(x, y)),
            )
            swap = mid_swap(
                a_cat, a1, a2, b1, b2,
                lambda u, v: inv(a_cat, mm.base_braiding.c(v, u)),
            )
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
