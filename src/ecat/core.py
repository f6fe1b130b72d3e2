"""Finite categories, functors, natural transformations, brute-force searches.

A category is a pile of index tables. Objects are ``0..n-1``; each morphism
index has a domain, codomain; ``compose[(g, f)]`` is defined exactly when
``cod(f) == dom(g)``. Morphisms are compared by index only.

Products are views, not copies. The tables of a product (of categories here,
and of monoidal categories, lax functors and enriched categories elsewhere)
are ``ProductSequence`` and ``ProductMapping`` objects that compute each
entry from the factor tables by index arithmetic when it is read. They
behave as read-only tuples and dicts, and compare equal by their factors,
so iterated products cost only what their readers read.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from ecat.report import Budget, StructureError, ValidationReport


@dataclass(frozen=True, eq=True)
class FinCategory:
    """A finite category given by its index tables.

    Lookups derived from the tables are built lazily, once per instance, on
    first use: ``hom`` reads an index from ``(x, y)`` to the hom set, and
    ``monoidal.find_inverse`` memoises its answers in ``_inverse_memo``.
    Both live in the instance ``__dict__``, not in dataclass fields, so
    equality, hashing and ``dataclasses.replace`` ignore them (a replaced
    copy starts with empty caches). They rely on the tables not being
    mutated after construction; nothing in ``ecat`` mutates them.
    """

    n_objects: int
    dom: Sequence[int]
    cod: Sequence[int]
    identity: tuple[int, ...]
    compose: Mapping  # (g, f) -> g.f, keys are morphism index pairs
    obj_names: tuple[str, ...] | None = field(default=None, compare=False)
    mor_names: tuple[str, ...] | None = field(default=None, compare=False)

    @property
    def n_morphisms(self) -> int:
        return len(self.dom)

    @cached_property
    def _hom_index(self) -> dict[tuple[int, int], tuple[int, ...]]:
        index: dict[tuple[int, int], list[int]] = {}
        dom, cod = self.dom, self.cod
        for f in range(self.n_morphisms):
            index.setdefault((dom[f], cod[f]), []).append(f)
        return {key: tuple(mors) for key, mors in index.items()}

    @cached_property
    def _inverse_memo(self) -> dict[int, int | None]:
        return {}

    def hom(self, x: int, y: int) -> tuple[int, ...]:
        """The morphisms x -> y in ascending index order."""
        return self._hom_index.get((x, y), ())

    def comp(self, g: int, f: int) -> int:
        """g after f."""
        try:
            return self.compose[(g, f)]
        except KeyError:
            raise StructureError(
                f"compose undefined for ({g}, {f}): cod(f)={self.cod[f]}, dom(g)={self.dom[g]}"
            ) from None

    def comp_many(self, *mors: int) -> int:
        """Composite of a chain listed target-to-source: comp_many(h, g, f) = h.g.f."""
        out = mors[0]
        for f in mors[1:]:
            out = self.comp(out, f)
        return out

    def objects(self) -> range:
        return range(self.n_objects)

    def morphisms(self) -> range:
        return range(self.n_morphisms)

    def obj_name(self, x: int) -> str:
        return self.obj_names[x] if self.obj_names else str(x)

    def mor_name(self, f: int) -> str:
        return self.mor_names[f] if self.mor_names else str(f)


def _check_ranges(c: FinCategory) -> None:
    n, m = c.n_objects, c.n_morphisms
    if len(c.cod) != m or len(c.identity) != n:
        raise StructureError("table lengths inconsistent")
    for f in range(m):
        if not (0 <= c.dom[f] < n and 0 <= c.cod[f] < n):
            raise StructureError(f"morphism {f} has out-of-range dom/cod")
    for x in range(n):
        if not (0 <= c.identity[x] < m):
            raise StructureError(f"identity of object {x} out of range")
    for (g, f), h in c.compose.items():
        if not (0 <= g < m and 0 <= f < m and 0 <= h < m):
            raise StructureError(f"compose entry ({g},{f})->{h} out of range")


def check_category(c: FinCategory) -> ValidationReport:
    report = ValidationReport("category")
    _check_ranges(c)
    for x in c.objects():
        e = c.identity[x]
        if c.dom[e] != x or c.cod[e] != x:
            report.add("identity-typing", (x,), f"id has dom {c.dom[e]}, cod {c.cod[e]}")
    for g in c.morphisms():
        for f in c.morphisms():
            defined = (g, f) in c.compose
            composable = c.cod[f] == c.dom[g]
            if composable and not defined:
                report.add("compose-totality", (g, f), "composable pair undefined")
            elif defined and not composable:
                report.add("compose-partiality", (g, f), "non-composable pair defined")
            elif defined:
                h = c.compose[(g, f)]
                if c.dom[h] != c.dom[f] or c.cod[h] != c.cod[g]:
                    report.add("compose-typing", (g, f), f"composite {h} mistyped")
    if not report.ok:
        return report
    for f in c.morphisms():
        if c.comp(c.identity[c.cod[f]], f) != f:
            report.add("identity-law", (f,), "id . f != f")
        if c.comp(f, c.identity[c.dom[f]]) != f:
            report.add("identity-law", (f,), "f . id != f")
    for h in c.morphisms():
        for g in c.morphisms():
            if c.cod[g] != c.dom[h]:
                continue
            for f in c.morphisms():
                if c.cod[f] != c.dom[g]:
                    continue
                if c.comp(h, c.comp(g, f)) != c.comp(c.comp(h, g), f):
                    report.add("associativity", (h, g, f))
    return report


class _ProductView:
    """Index arithmetic shared by the product views.

    A product index is a mixed-radix number whose digits index the factors,
    first factor most significant: an object (i, j) of C x D is i*|D| + j.
    Each factor is ``(table, n_in, n_out)``: a table of the factor, the size
    of the range its keys run over, and the size of the range its values run
    over. A key of the view carries ``arity`` product indices; the entry is
    read from every factor at that factor's digits and the values are joined
    by the same mixed-radix rule. Factors that are themselves views of the
    same kind and arity are flattened, so bracketing does not matter.
    """

    __slots__ = ("factors", "arity", "_n_in", "_steps")
    _arities: tuple[int, ...] = ()

    def __init__(self, factors, arity: int):
        if arity not in self._arities:
            raise ValueError(f"{type(self).__name__} has no arity {arity}")
        flat = []
        for table, n_in, n_out in factors:
            if isinstance(table, type(self)._kind) and table.arity == arity:
                flat.extend(table.factors)
            else:
                flat.append((table, n_in, n_out))
        self.factors = tuple(flat)
        self.arity = arity
        self._n_in = math.prod(n_in for _, n_in, _ in flat)
        # (table, n_in, place value of its entries), last factor first
        steps, scale = [], 1
        for table, n_in, n_out in reversed(flat):
            steps.append((table, n_in, scale))
            scale *= n_out
        self._steps = tuple(steps)

    def _join1(self, k: int) -> int:
        """The entry at one in-range product index."""
        out = 0
        for table, n_in, scale in self._steps:
            k, d = divmod(k, n_in)
            out += table[d] * scale
        return out

    def _same_factors(self, other) -> bool:
        return (
            isinstance(other, type(self)._kind)
            and self.arity == other.arity
            and self.factors == other.factors
        )


class ProductSequence(_ProductView, Sequence):
    """A read-only tuple of a product, computed entry by entry.

    Arity 1 serves ``dom``, ``cod``, functor maps and unitors: position ``k``
    is one product index. Arity 2 serves the object and morphism maps of a
    product tensor, whose source is the product with itself: position
    ``k1*N + k2``, with ``N`` the product size, is a pair. Indexing, negative
    indices, slices and out-of-range errors behave as on a tuple. Equality
    is by factors, falling back to entrywise comparison with tuples and
    other sequence views.
    """

    __slots__ = ("_size",)
    _arities = (1, 2)

    def __init__(self, factors, arity: int = 1):
        super().__init__(factors, arity)
        self._size = self._n_in**arity

    def __len__(self):
        return self._size

    def __getitem__(self, index):
        if type(index) is not int:
            if isinstance(index, slice):
                return tuple(self[k] for k in range(*index.indices(self._size)))
            index = operator.index(index)
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError("tuple index out of range")
        if self.arity == 1:
            return self._join1(index)
        k1, k2 = divmod(index, self._n_in)
        out = 0
        for table, n_in, scale in self._steps:
            k1, d1 = divmod(k1, n_in)
            k2, d2 = divmod(k2, n_in)
            out += table[d1 * n_in + d2] * scale
        return out

    def __iter__(self):
        return map(self.__getitem__, range(self._size))

    def __eq__(self, other):
        if self._same_factors(other):
            return True
        if isinstance(other, (tuple, ProductSequence)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"ProductSequence(<{len(self)} entries, {len(self.factors)} factors>)"


class ProductMapping(_ProductView, Mapping):
    """A read-only dict of a product, computed entry by entry.

    Keys are pairs or triples of product indices (arity 2 or 3), or bare
    product indices (arity 1). An entry exists exactly when every factor
    has one, so partial tables such as compose stay partial. Missing,
    out-of-range and malformed keys raise ``KeyError`` as a dict would, so
    ``in``, ``get`` and ``dict(view)`` work unchanged. Equality is by
    factors, falling back to entrywise comparison with any mapping.
    """

    __slots__ = ()
    _arities = (1, 2, 3)

    def __len__(self):
        return math.prod(len(table) for table, _, _ in self.factors)

    def __getitem__(self, key):
        n = self._n_in
        try:
            if self.arity == 1:
                if not 0 <= key < n:
                    raise KeyError(key)
                return self._join1(key)
            if type(key) is not tuple or len(key) != self.arity:
                raise KeyError(key)
            if self.arity == 2:
                k1, k2 = key
                if not (0 <= k1 < n and 0 <= k2 < n):
                    raise KeyError(key)
                out = 0
                for table, n_in, scale in self._steps:
                    k1, d1 = divmod(k1, n_in)
                    k2, d2 = divmod(k2, n_in)
                    out += table[d1, d2] * scale
                return out
            k1, k2, k3 = key
            if not (0 <= k1 < n and 0 <= k2 < n and 0 <= k3 < n):
                raise KeyError(key)
            out = 0
            for table, n_in, scale in self._steps:
                k1, d1 = divmod(k1, n_in)
                k2, d2 = divmod(k2, n_in)
                k3, d3 = divmod(k3, n_in)
                out += table[d1, d2, d3] * scale
            return out
        except (KeyError, TypeError):
            raise KeyError(key) from None

    def __iter__(self):
        radices = [n_in for _, n_in, _ in self.factors]
        for combo in itertools.product(*(table for table, _, _ in self.factors)):
            if self.arity == 1:
                combo = [(k,) for k in combo]
            comps = [0] * self.arity
            for digits, n_in in zip(combo, radices):
                for k, d in enumerate(digits):
                    comps[k] = comps[k] * n_in + d
            yield comps[0] if self.arity == 1 else tuple(comps)

    def __eq__(self, other):
        if self._same_factors(other):
            return True
        if isinstance(other, Mapping):
            return len(self) == len(other) and all(
                k in self and self[k] == v for k, v in other.items()
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"ProductMapping(<{len(self)} entries, {len(self.factors)} factors>)"


ProductSequence._kind = ProductSequence
ProductMapping._kind = ProductMapping


class ProductCompose(ProductMapping):
    """Compose table of a product category: a ``ProductMapping`` of arity 2.

    ``(g, f)`` is defined exactly when every factor composes its digits, and
    its value is the product index of the factor composites. No entry is
    stored: iterated products, however large, hold only their factor tables,
    and two products with the same factors compare equal without touching
    an entry.
    """

    __slots__ = ()

    def __init__(self, c: FinCategory, d: FinCategory):
        super().__init__(
            [(cat.compose, cat.n_morphisms, cat.n_morphisms) for cat in (c, d)], 2
        )


def product_category(c: FinCategory, d: FinCategory) -> FinCategory:
    """Pairs with componentwise composition; object (i,j) gets index i*|D|+j.

    ``dom``, ``cod`` and ``compose`` are views over the factors; only the
    per-object ``identity`` tuple is stored.
    """
    nc, nd = c.n_objects, d.n_objects
    mc, md = c.n_morphisms, d.n_morphisms
    identity = tuple(
        c.identity[i] * md + d.identity[j] for i in c.objects() for j in d.objects()
    )
    names = None
    if c.obj_names and d.obj_names:
        names = tuple(f"({a},{b})" for a in c.obj_names for b in d.obj_names)
    return FinCategory(
        n_objects=nc * nd,
        dom=ProductSequence([(c.dom, mc, nc), (d.dom, md, nd)]),
        cod=ProductSequence([(c.cod, mc, nc), (d.cod, md, nd)]),
        identity=identity,
        compose=ProductCompose(c, d),
        obj_names=names,
    )


def _is_product(s: FinCategory, c: FinCategory, d: FinCategory) -> bool:
    """Whether s has the tables of ``product_category(c, d)``, so that a
    functor out of s is read by the mixed-radix index of c and d."""
    nc, nd, mc, md = c.n_objects, d.n_objects, c.n_morphisms, d.n_morphisms
    return (
        s.n_objects == nc * nd
        and s.identity == tuple(
            c.identity[i] * md + d.identity[j] for i in c.objects() for j in d.objects()
        )
        and s.dom == ProductSequence([(c.dom, mc, nc), (d.dom, md, nd)])
        and s.cod == ProductSequence([(c.cod, mc, nc), (d.cod, md, nd)])
        and s.compose == ProductCompose(c, d)
    )


def opposite_category(c: FinCategory) -> FinCategory:
    compose = {(f, g): h for (g, f), h in c.compose.items()}
    return FinCategory(
        n_objects=c.n_objects,
        dom=c.cod,
        cod=c.dom,
        identity=c.identity,
        compose=compose,
        obj_names=c.obj_names,
        mor_names=c.mor_names,
    )


def terminal_category() -> FinCategory:
    return FinCategory(
        n_objects=1,
        dom=(0,),
        cod=(0,),
        identity=(0,),
        compose={(0, 0): 0},
        obj_names=("*",),
        mor_names=("1_*",),
    )


@dataclass(frozen=True, eq=True)
class Functor:
    source: FinCategory
    target: FinCategory
    obj_map: Sequence[int]
    mor_map: Sequence[int]

    def on_obj(self, x: int) -> int:
        return self.obj_map[x]

    def on_mor(self, f: int) -> int:
        return self.mor_map[f]


def check_functor(fun: Functor) -> ValidationReport:
    report = ValidationReport("functor")
    c, d = fun.source, fun.target
    if len(fun.obj_map) != c.n_objects or len(fun.mor_map) != c.n_morphisms:
        raise StructureError("functor table lengths inconsistent")
    for x in fun.obj_map:
        if not 0 <= x < d.n_objects:
            raise StructureError("functor obj_map out of range")
    for f in fun.mor_map:
        if not 0 <= f < d.n_morphisms:
            raise StructureError("functor mor_map out of range")
    for f in c.morphisms():
        if d.dom[fun.mor_map[f]] != fun.obj_map[c.dom[f]]:
            report.add("functor-dom", (f,))
        if d.cod[fun.mor_map[f]] != fun.obj_map[c.cod[f]]:
            report.add("functor-cod", (f,))
    for x in c.objects():
        if fun.mor_map[c.identity[x]] != d.identity[fun.obj_map[x]]:
            report.add("functor-identity", (x,))
    if not report.ok:
        return report
    for (g, f), h in c.compose.items():
        if d.comp(fun.mor_map[g], fun.mor_map[f]) != fun.mor_map[h]:
            report.add("functor-composition", (g, f))
    return report


def identity_functor(c: FinCategory) -> Functor:
    return Functor(c, c, tuple(c.objects()), tuple(c.morphisms()))


def compose_functors(g: Functor, f: Functor) -> Functor:
    """g after f."""
    if f.target is not g.source and f.target != g.source:
        raise StructureError("functors not composable")
    return Functor(
        f.source,
        g.target,
        tuple(g.obj_map[x] for x in f.obj_map),
        tuple(g.mor_map[m] for m in f.mor_map),
    )


def constant_functor(c: FinCategory, d: FinCategory, x: int) -> Functor:
    return Functor(
        c, d, tuple(x for _ in c.objects()), tuple(d.identity[x] for _ in c.morphisms())
    )


@dataclass(frozen=True, eq=True)
class NatTransf:
    source_functor: Functor
    target_functor: Functor
    components: tuple[int, ...]

    def at(self, x: int) -> int:
        return self.components[x]


def check_nat_transf(nat: NatTransf) -> ValidationReport:
    report = ValidationReport("natural transformation")
    f, g = nat.source_functor, nat.target_functor
    c, d = f.source, f.target
    if len(nat.components) != c.n_objects:
        raise StructureError("component count mismatch")
    for x in c.objects():
        comp = nat.components[x]
        if not 0 <= comp < d.n_morphisms:
            raise StructureError(f"component at {x} out of range")
        if d.dom[comp] != f.obj_map[x] or d.cod[comp] != g.obj_map[x]:
            report.add("component-typing", (x,))
    if not report.ok:
        return report
    for m in c.morphisms():
        x, y = c.dom[m], c.cod[m]
        if d.comp(nat.components[y], f.mor_map[m]) != d.comp(g.mor_map[m], nat.components[x]):
            report.add("naturality", (m,))
    return report


def identity_nat(fun: Functor) -> NatTransf:
    return NatTransf(
        fun, fun, tuple(fun.target.identity[fun.obj_map[x]] for x in fun.source.objects())
    )


def vcomp_nats(beta: NatTransf, alpha: NatTransf) -> NatTransf:
    """beta after alpha, componentwise."""
    d = alpha.source_functor.target
    comps = tuple(
        d.comp(beta.components[x], alpha.components[x])
        for x in alpha.source_functor.source.objects()
    )
    return NatTransf(alpha.source_functor, beta.target_functor, comps)


def hcomp_nats(beta: NatTransf, alpha: NatTransf) -> NatTransf:
    """Horizontal composite: beta (between functors D->E) alongside alpha (C->D)."""
    fp, gp = beta.source_functor, beta.target_functor
    f, g = alpha.source_functor, alpha.target_functor
    e = fp.target
    comps = tuple(
        e.comp(beta.components[g.obj_map[x]], fp.mor_map[alpha.components[x]])
        for x in f.source.objects()
    )
    return NatTransf(compose_functors(fp, f), compose_functors(gp, g), comps)


def enumerate_functors(
    c: FinCategory, d: FinCategory, cap: int | None = None
) -> list[Functor]:
    """All functors C -> D in lexicographic (obj_map, then mor_map) order."""
    budget = Budget(cap, "functor enumeration")
    out: list[Functor] = []
    non_identity = [f for f in c.morphisms() if f not in set(c.identity)]
    forced = {}
    for x in c.objects():
        forced[c.identity[x]] = x

    for obj_map in itertools.product(range(d.n_objects), repeat=c.n_objects):
        budget.spend()
        mor_map = [0] * c.n_morphisms
        for e, x in forced.items():
            mor_map[e] = d.identity[obj_map[x]]
        candidates = {
            f: d.hom(obj_map[c.dom[f]], obj_map[c.cod[f]]) for f in non_identity
        }
        if any(not v for v in candidates.values()):
            continue

        def consistent(upto: int) -> bool:
            assigned = set(forced) | set(non_identity[: upto + 1])
            for (g, f), h in c.compose.items():
                if g in assigned and f in assigned and h in assigned:
                    if d.comp(mor_map[g], mor_map[f]) != mor_map[h]:
                        return False
            return True

        def backtrack(i: int) -> None:
            budget.spend()
            if i == len(non_identity):
                out.append(Functor(c, d, tuple(obj_map), tuple(mor_map)))
                return
            f = non_identity[i]
            for m in candidates[f]:
                mor_map[f] = m
                if consistent(i):
                    backtrack(i + 1)
            mor_map[f] = 0

        backtrack(0)
    return out


def enumerate_nat_transfs(
    f: Functor, g: Functor, cap: int | None = None
) -> list[NatTransf]:
    budget = Budget(cap, "natural transformation enumeration")
    c, d = f.source, f.target
    per_object = [sorted(d.hom(f.obj_map[x], g.obj_map[x])) for x in c.objects()]
    out = []
    for comps in itertools.product(*per_object):
        budget.spend()
        nat = NatTransf(f, g, comps)
        if check_nat_transf(nat).ok:
            out.append(nat)
    return out


def find_terminal_objects(c: FinCategory) -> list[int]:
    out = []
    for t in c.objects():
        if all(len(c.hom(x, t)) == 1 for x in c.objects()):
            out.append(t)
    return out


def _degree_signature(c: FinCategory, x: int) -> tuple:
    outs = sorted(len(c.hom(x, y)) for y in c.objects())
    ins = sorted(len(c.hom(y, x)) for y in c.objects())
    loops = len(c.hom(x, x))
    return (tuple(outs), tuple(ins), loops)


def iso_search(
    c: FinCategory, d: FinCategory, cap: int | None = None
) -> Functor | None:
    """First isomorphism C -> D in deterministic order, or None."""
    if c.n_objects != d.n_objects or c.n_morphisms != d.n_morphisms:
        return None
    budget = Budget(cap, "isomorphism search")
    sig_c = [_degree_signature(c, x) for x in c.objects()]
    sig_d = [_degree_signature(d, x) for x in d.objects()]
    if sorted(sig_c) != sorted(sig_d):
        return None

    obj_map = [-1] * c.n_objects
    used_obj = [False] * d.n_objects

    def try_morphisms() -> Functor | None:
        mor_map = [-1] * c.n_morphisms
        used = [False] * d.n_morphisms
        for x in c.objects():
            e = c.identity[x]
            mor_map[e] = d.identity[obj_map[x]]
            used[mor_map[e]] = True
        non_identity = [f for f in c.morphisms() if mor_map[f] == -1]

        def backtrack(i: int) -> Functor | None:
            budget.spend()
            if i == len(non_identity):
                fun = Functor(c, d, tuple(obj_map), tuple(mor_map))
                return fun if check_functor(fun).ok else None
            f = non_identity[i]
            for m in d.hom(obj_map[c.dom[f]], obj_map[c.cod[f]]):
                if used[m]:
                    continue
                mor_map[f] = m
                used[m] = True
                ok = True
                assigned = [a for a in c.morphisms() if mor_map[a] != -1]
                for g in assigned:
                    for h in assigned:
                        if (g, h) in c.compose:
                            img = mor_map[c.compose[(g, h)]]
                            if img != -1 and d.comp(mor_map[g], mor_map[h]) != img:
                                ok = False
                                break
                    if not ok:
                        break
                if ok:
                    res = backtrack(i + 1)
                    if res is not None:
                        return res
                used[m] = False
                mor_map[f] = -1
            return None

        return backtrack(0)

    def assign_obj(x: int) -> Functor | None:
        budget.spend()
        if x == c.n_objects:
            return try_morphisms()
        for y in d.objects():
            if used_obj[y] or sig_c[x] != sig_d[y]:
                continue
            obj_map[x] = y
            used_obj[y] = True
            res = assign_obj(x + 1)
            if res is not None:
                return res
            used_obj[y] = False
        obj_map[x] = -1
        return None

    return assign_obj(0)


def inverse_functor(fun: Functor) -> Functor:
    """Inverse of a bijective functor."""
    obj = [0] * fun.target.n_objects
    mor = [0] * fun.target.n_morphisms
    for x, y in enumerate(fun.obj_map):
        obj[y] = x
    for f, g in enumerate(fun.mor_map):
        mor[g] = f
    return Functor(fun.target, fun.source, tuple(obj), tuple(mor))
