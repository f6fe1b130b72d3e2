"""Ladder fixtures and seeded mutations, built from the public `ecat` API.

The fixtures are written out here rather than imported from the test suite,
so that editing a test cannot change what the benchmark measures. Each thin
fixture carries its order relation, tensor and residuation as plain Python
functions; the workloads use those as oracles that do not go through any
`ecat` search.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Callable

from ecat import actions, core, enriched, enriched_monoidal, monoidal


@dataclass(frozen=True)
class ThinFixture:
    """A thin (or discrete) symmetric monoidal category and its oracles.

    `residual(x, y)` is the internal hom [x, y] of the self-action, worked
    out by hand: Boolean implication on lattices, Goedel implication on
    chains, division in a group.
    """

    name: str
    n: int
    leq: Callable[[int, int], bool]
    tensor: Callable[[int, int], int]
    unit: int
    residual: Callable[[int, int], int]
    monoidal: monoidal.MonoidalCategory
    braiding: monoidal.BraidedStructure
    cells: actions.MonoidalModuleCells


def thin_category(n: int, leq) -> core.FinCategory:
    """The category on objects 0..n-1 with one arrow x -> y iff leq(x, y)."""
    arrows = [(x, y) for x in range(n) for y in range(n) if leq(x, y)]
    index = {a: i for i, a in enumerate(arrows)}
    compose = {
        (g, f): index[(x, z)]
        for f, (x, y) in enumerate(arrows)
        for g, (y2, z) in enumerate(arrows)
        if y2 == y
    }
    return core.FinCategory(
        n_objects=n,
        dom=tuple(x for x, _ in arrows),
        cod=tuple(y for _, y in arrows),
        identity=tuple(index[(x, x)] for x in range(n)),
        compose=compose,
    )


def thin_strict_monoidal(c: core.FinCategory, tensor, unit: int):
    """Strict monoidal structure on a thin category from its object tensor."""
    n = c.n_objects
    obj_map = tuple(tensor(x, y) for x in range(n) for y in range(n))
    mor_map = []
    for f in c.morphisms():
        for g in c.morphisms():
            src = tensor(c.dom[f], c.dom[g])
            tgt = tensor(c.cod[f], c.cod[g])
            (h,) = c.hom(src, tgt)
            mor_map.append(h)
    t = core.Functor(core.product_category(c, c), c, obj_map, tuple(mor_map))
    return monoidal.strict_monoidal(c, t, unit)


def identity_braiding(m: monoidal.MonoidalCategory) -> monoidal.BraidedStructure:
    """Identity components; a symmetric braiding when the tensor commutes."""
    braiding = {}
    for x, y in itertools.product(m.base.objects(), repeat=2):
        if m.t_obj(x, y) != m.t_obj(y, x):
            raise ValueError(f"tensor does not commute at {(x, y)}")
        braiding[(x, y)] = m.base.identity[m.t_obj(x, y)]
    return monoidal.BraidedStructure(m, braiding, True)


def _thin(name, n, leq, tensor, unit, residual) -> ThinFixture:
    m = thin_strict_monoidal(thin_category(n, leq), tensor, unit)
    b = identity_braiding(m)
    return ThinFixture(
        name, n, leq, tensor, unit, residual, m, b, actions.monoidal_self_module(b)
    )


def boolean_lattice(bits: int) -> ThinFixture:
    """Subsets of a `bits`-element set under inclusion, meet as tensor."""
    n = 1 << bits
    top = n - 1
    return _thin(
        f"lattice{n}",
        n,
        lambda x, y: x & y == x,
        lambda x, y: x & y,
        top,
        lambda x, y: (~x | y) & top,
    )


def chain(n: int) -> ThinFixture:
    """The chain 0 < 1 < ... < n-1 with min as tensor."""
    top = n - 1
    return _thin(
        f"chain{n}",
        n,
        lambda x, y: x <= y,
        min,
        top,
        lambda x, y: top if x <= y else y,
    )


def z2() -> ThinFixture:
    """The group Z/2 as a discrete monoidal category."""
    return _thin(
        "z2", 2, lambda x, y: x == y, lambda x, y: x ^ y, 0, lambda x, y: x ^ y
    )


def endofunctor_count(fx: ThinFixture) -> int:
    """Identity-background enriched endofunctors of the self-enrichment.

    Over a thin base an enriched functor is an object map F with
    [x, y] <= [Fx, Fy] for all x, y; its components are then forced.
    Counting such maps by brute force is the oracle for the E0 center's
    object count.
    """
    objs = range(fx.n)
    return sum(
        all(fx.leq(fx.residual(x, y), fx.residual(f[x], f[y])) for x in objs for y in objs)
        for f in itertools.product(objs, repeat=fx.n)
    )


# --- the semion and preorder enriched monoidal categories ---


def _phase(obj: int, k: int) -> int:
    """Morphism index of the endomorphism with phase k (mod 4) of obj."""
    return obj * 4 + k % 4


def semion_monoidal() -> monoidal.MonoidalCategory:
    """Objects Z/2, End(x) = Z/4; associator phase 2 at (1, 1, 1) only."""
    c = core.FinCategory(
        n_objects=2,
        dom=tuple(x for x in range(2) for _ in range(4)),
        cod=tuple(x for x in range(2) for _ in range(4)),
        identity=(0, 4),
        compose={
            (_phase(x, i), _phase(x, j)): _phase(x, i + j)
            for x in range(2)
            for i in range(4)
            for j in range(4)
        },
    )
    obj_map = tuple((x + y) % 2 for x in range(2) for y in range(2))
    mor_map = tuple(
        _phase((f // 4 + g // 4) % 2, f + g) for f in range(8) for g in range(8)
    )
    tensor = core.Functor(core.product_category(c, c), c, obj_map, mor_map)
    assoc = {
        t: _phase(sum(t) % 2, 2 if t == (1, 1, 1) else 0)
        for t in itertools.product(range(2), repeat=3)
    }
    return monoidal.MonoidalCategory(c, tensor, 0, assoc, (0, 4), (0, 4))


def semion_braiding() -> monoidal.BraidedStructure:
    """The non-symmetric braiding with phase 1 at (1, 1)."""
    m = semion_monoidal()
    braiding = {
        (x, y): _phase((x + y) % 2, x * y)
        for x, y in itertools.product(range(2), repeat=2)
    }
    return monoidal.BraidedStructure(m, braiding, False)


# Phases of the semion self-enrichment, solved once from the coherence
# equations mod 4; check_enriched_monoidal re-verifies them on every run.
_SEMION_COMPOSITION_PHASE = {(0, 1, 0): 2}
_SEMION_TENSOR_PHASE = {
    (0, 0, 1, 1): 3,
    (0, 1, 1, 1): 1,
    (1, 0, 0, 1): 3,
    (1, 0, 1, 1): 2,
    (1, 1, 0, 0): 2,
    (1, 1, 0, 1): 1,
}


def semion_enriched_monoidal() -> enriched_monoidal.EnrichedMonoidalCategory:
    """The semion category enriched in itself, hom(x, y) = x + y."""
    b = semion_braiding()
    pairs = list(itertools.product(range(2), repeat=2))
    host = enriched.EnrichedCategory(
        b.host,
        2,
        {(x, y): (x + y) % 2 for x, y in pairs},
        {0: 0, 1: 0},
        {
            t: _phase((t[0] + t[2]) % 2, _SEMION_COMPOSITION_PHASE.get(t, 0))
            for t in itertools.product(range(2), repeat=3)
        },
    )
    cells = {}
    for p, q in itertools.product(range(4), repeat=2):
        (x1, x2), (y1, y2) = divmod(p, 2), divmod(q, 2)
        cells[(p, q)] = _phase(
            (x1 + x2 + y1 + y2) % 2, _SEMION_TENSOR_PHASE.get((x1, x2, y1, y2), 0)
        )
    tensor = enriched.EnrichedFunctor(
        monoidal.braided_tensor_lax_structure(b),
        enriched.cartesian_product_enriched(host, host),
        host,
        (0, 1, 1, 0),
        cells,
    )
    assoc = {
        t: _phase(0, 2 if t == (1, 1, 1) else 0)
        for t in itertools.product(range(2), repeat=3)
    }
    return enriched_monoidal.EnrichedMonoidalCategory(
        host, b, tensor, 0, assoc, (0, 0), (0, 0)
    )


def preorder_enriched_monoidal(
    lattice2: ThinFixture,
) -> enriched_monoidal.EnrichedBraidedCategory:
    """The preordered monoid {1, s} (s.s = s, 1 <= s) enriched in lattice-2.

    Every structure element is the unique morphism of its type. Returned
    with the identity braiding, which makes it symmetric.
    """
    m, b = lattice2.monoidal, lattice2.braiding
    c = m.base

    def arrow(x, y):
        (f,) = c.hom(x, y)
        return f

    objs = range(2)
    hom = {(x, y): int(x <= y) for x in objs for y in objs}
    host = enriched.EnrichedCategory(
        m,
        2,
        hom,
        {x: arrow(m.unit, hom[(x, x)]) for x in objs},
        {
            (x, y, z): arrow(m.t_obj(hom[(y, z)], hom[(x, y)]), hom[(x, z)])
            for x, y, z in itertools.product(objs, repeat=3)
        },
    )
    cells = {}
    for p, q in itertools.product(range(4), repeat=2):
        (x1, x2), (y1, y2) = divmod(p, 2), divmod(q, 2)
        cells[(p, q)] = arrow(
            m.t_obj(hom[(x1, y1)], hom[(x2, y2)]), hom[(x1 | x2, y1 | y2)]
        )
    tensor = enriched.EnrichedFunctor(
        monoidal.braided_tensor_lax_structure(b),
        enriched.cartesian_product_enriched(host, host),
        host,
        (0, 1, 1, 1),
        cells,
    )
    one = arrow(m.unit, 1)
    em = enriched_monoidal.EnrichedMonoidalCategory(
        host,
        b,
        tensor,
        0,
        {t: one for t in itertools.product(objs, repeat=3)},
        (one, one),
        (one, one),
    )
    braiding_el = {
        (x, y): host.one(em.t(x, y)) for x, y in itertools.product(objs, repeat=2)
    }
    return enriched_monoidal.EnrichedBraidedCategory(em, braiding_el, True)


# --- seeded one-entry mutations ---


@dataclass(frozen=True)
class Mutation:
    """One changed table entry and the law families its check must report."""

    label: str
    table: str
    key: object
    old: int
    new: int
    laws: tuple


SEMION_ASSOCIATOR_LAWS = (
    "associator:enriched-nat-square",
    "associator:enriched-nat-square-hom-route",
    "underlying:pentagon",
)


def semion_associator_mutations(em, rng, count: int) -> list:
    """Shift the phase of one semion associator element.

    Every shift breaks the enriched naturality of the associator. It breaks
    the pentagon unless it lands on the other 3-cocycle (all phases 0),
    which is left out of the draw, and it breaks the triangle exactly when
    the middle object is the unit, since only a(x, 1, y) enters there.
    """
    space = [
        (key, shift)
        for key in sorted(em.associator)
        for shift in (1, 2, 3)
        if not (key == (1, 1, 1) and shift == 2)
    ]
    out = []
    for key, shift in rng.sample(space, count):
        old = em.associator[key]
        new = _phase(old // 4, old + shift)
        laws = SEMION_ASSOCIATOR_LAWS
        if key[1] == em.unit_obj:
            laws = tuple(sorted(laws + ("underlying:triangle",)))
        out.append(Mutation(f"{key}+{shift}", "associator", key, old, new, laws))
    return out


def _other_morphism(c: core.FinCategory, old: int, rng) -> int:
    """A morphism index other than old; on a thin category it is mistyped."""
    return (old + rng.randrange(1, c.n_morphisms)) % c.n_morphisms


def interchange_mutations(cells, rng, count: int) -> list:
    """Replace interchange cells of a thin monoidal module.

    The carrier is thin, so any other morphism has the wrong type and the
    check must report interchange-typing and nothing else.
    """
    c = cells.module.carrier
    keys = rng.sample(sorted(cells.interchange), count)
    return [
        Mutation(
            str(key), "interchange", key, cells.interchange[key],
            _other_morphism(c, cells.interchange[key], rng), ("interchange-typing",),
        )
        for key in keys
    ]


def coherence_element_mutations(em, rng, count: int) -> list:
    """Replace associator or unitor elements of a thin enriched monoidal
    category; the other element has the wrong type."""
    c = em.host.base.base
    space = [("associator", k) for k in sorted(em.associator)]
    space += [(t, x) for t in ("left_unitor", "right_unitor") for x in em.host.objects()]
    out = []
    for table, key in rng.sample(space, count):
        old = getattr(em, table)[key]
        laws = ("associator-typing",) if table == "associator" else ("unitor-typing",)
        out.append(
            Mutation(f"{table}{key}", table, key, old, _other_morphism(c, old, rng), laws)
        )
    return out


def apply(target, mut: Mutation):
    """A copy of target with the one entry of mut replaced."""
    table = getattr(target, mut.table)
    if table[mut.key] != mut.old or mut.new == mut.old:
        raise ValueError(f"mutation {mut.label} does not change {mut.table}")
    if isinstance(table, tuple):
        changed = table[: mut.key] + (mut.new,) + table[mut.key + 1 :]
    else:
        changed = {**table, mut.key: mut.new}
    return dataclasses.replace(target, **{mut.table: changed})
