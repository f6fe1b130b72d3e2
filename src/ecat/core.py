"""Finite categories, functors, natural transformations, and the one search.

A category is a pile of index tables. Objects are ``0..n-1``; each morphism
index has a domain, codomain; ``compose[(g, f)]`` is defined exactly when
``cod(f) == dom(g)``. Morphisms are compared by index only.

Products are views, not copies. The tables of a product (of categories here,
and of monoidal categories, lax functors and enriched categories elsewhere)
are ``ProductSequence`` and ``ProductMapping`` objects that compute each
entry from the factor tables by index arithmetic when it is read. They
behave as read-only tuples and dicts, and compare equal by their factors,
so iterated products cost only what their readers read.

Every category whose morphisms are labelled data has one presentation:
the underlying category of an enriched category (elements 1 -> hom(x, y)),
the Drinfeld center (host morphisms that respect half-braidings), full
monoidal subcategories (host morphisms), module endofunctors (natural
transformations by their components) and skeletal finite sets (function
tables). ``labelled_category`` numbers a list of triples ``(x, y, label)``
and composes through the labels; ``labelled_bifunctor`` tabulates a tensor
on such a category from the label of each pair. Only this module builds a
``FinCategory`` from tables.

Every exhaustive search of ``ecat`` (all functors, natural transformations,
isomorphisms, half-braidings, enriched functors, terminal families and
mediating isomorphisms) runs on ``_search``: a backtracking search that
assigns variables in order, checks each constraint as soon as its last
variable is assigned, yields solutions in lexicographic order and spends
one budget unit per node.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, wraps

from ecat.report import Budget, StructureError, ValidationReport


def kept(build):
    """``build(obj)``, built on the first call for obj and kept in
    ``obj._kept``, keyed by build itself, so two kept builds on one
    instance do not collide.

    This is the one way ``ecat`` keeps what it builds from an instance's
    tables. Each class that keeps anything declares the store as
    ``_kept: dict = field(default_factory=dict, init=False, compare=False,
    repr=False)``, so it is outside ``__init__``, equality, hashing and
    ``repr``, and a ``dataclasses.replace`` copy builds afresh. A build that
    raises keeps nothing, so the next call builds, and raises, again. What
    is kept relies on the tables not being mutated after construction;
    nothing in ``ecat`` mutates them.

    The store is a field set in ``__init__``, not an entry written into
    ``vars(obj)`` later as ``functools.cached_property`` writes: on CPython
    3.11 such a write turns off the fast attribute path for the instance.
    Measured that way on CPython 3.11.7 (2 vCPUs), a method that reads two
    attributes went from 0.0140 to 0.0215 s per 200k calls, and in-process
    lattice-8 benchmark passes were about 10% slower.
    """

    @wraps(build)
    def get(obj):
        store = obj._kept
        try:
            return store[build]
        except KeyError:
            pass
        value = store[build] = build(obj)
        return value

    return get


@dataclass(frozen=True, eq=True)
class FinCategory:
    """A finite category given by its index tables.

    Lookups derived from the tables are built lazily, once per instance, on
    first use: ``n_morphisms`` is the length of ``dom``, ``hom`` reads an
    index from ``(x, y)`` to the hom set, ``thin`` is read from that index,
    and ``monoidal.find_inverse`` memoises its answers in
    ``_inverse_memo``. They live in the instance ``__dict__``, not in
    dataclass fields, so equality, hashing and ``dataclasses.replace``
    ignore them (a replaced copy starts with empty caches). They rely on
    the tables not being mutated after construction; nothing in ``ecat``
    mutates them.
    """

    n_objects: int
    dom: Sequence[int]
    cod: Sequence[int]
    identity: tuple[int, ...]
    compose: Mapping  # (g, f) -> g.f, keys are morphism index pairs
    obj_names: tuple[str, ...] | None = field(default=None, compare=False)
    mor_names: tuple[str, ...] | None = field(default=None, compare=False)

    @cached_property
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
    def thin(self) -> bool:
        """Whether every hom set has at most one morphism.

        The one rule every thin gate applies: in a thin category (a
        preorder; Lawvere 1973, Kelly 1982 §1) any two parallel morphisms
        are equal, so a law that equates two composites holds as soon as
        both are defined and typed. A checker decides its remaining laws
        this way, after its own typing sections, once the structures it is
        built on pass their own checks, so that every composite is defined
        and typed; otherwise it enumerates them. The gates:

        - ``check_category``: identity and associativity, once composition
          is total and typed;
        - ``monoidal.check_monoidal``: naturality, pentagon and triangle,
          once the tensor maps out of ``product_category(c, c)`` into c and
          c passes ``check_category`` (``monoidal._out_of_product``);
        - ``monoidal.check_braided`` and ``enriched.check_enriched``: every
          law after typing and invertibility, once the host or base passes
          ``monoidal._is_monoidal``;
        - ``actions.check_module``: naturality, pentagon and unit triangles,
          and its action's composition law, once the base passes
          ``_is_monoidal`` and the action maps out of the product of the
          base and the carrier into the carrier;
        - ``actions.check_monoidal_module``: interchange naturality, hexagon
          and the oplax associator, once the base and carrier monoidal
          categories, the base braiding and the module pass;
        - ``enriched_monoidal.check_enriched_monoidal``: the tensor's
          composition law and the associator's naturality, on a thin base
          once the base passes ``_is_monoidal``, the braiding passes, the
          tensor background is the pinned one and nothing is reported;
        - seven checks of the centers, once the host passes
          ``enriched._thin_host`` (a thin base that passes ``_is_monoidal``
          and a host that passes ``check_enriched``) and the cells each
          reads are typed: the E0 and E1 sliding squares of
          ``centers._bracket_search`` (its cells from
          ``enriched._enriched_functor_cells`` and
          ``enriched._half_braiding_cells`` for ``bracket_family`` and
          ``condition_star``, ``enriched._bracket_cells`` for
          ``bracket_pair``), the naturality squares of
          ``enriched_monoidal.check_enriched_half_braiding``, the
          factorings of ``centers._terminal_bracket`` that the search
          hands it, and four in the verifiers
          (``centers._UniversalCheck``): rho whole, once the comparison
          functor passes, both actions are typed and rho's components are
          typed against the object maps of its source; each mediator
          candidate, its background naturality and its nat, once the
          comparison functor passes; the comparison functor's composition
          law, on a thin source and target (``centers._comparison_report``);
          and the naturality squares of a nat that the verifiers still
          check (``centers._nat_report``).
        """
        return len(self._hom_index) == self.n_morphisms

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
    if not report.ok or c.thin:
        return report  # on a thin c the laws below equate parallel morphisms
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


class LazyPairTable(Mapping):
    """A read-only dict over the pairs of ``range(n)``, each entry computed
    by ``entry(x, y)`` when it is first read, and kept: the mult cells of
    ``compose_lax`` and ``braided_tensor_lax_structure``, the components
    of ``compose_enriched_functors``, the tensor cells of ``e0_center`` and
    ``gamma1``, and the f2 cells of the centers' evaluation actions.

    Keys iterate in (x, y) order; ``in``, ``len`` and key iteration compute
    no entry. Reading an entry raises what computing it raises, also through
    ``get``, so ``dict(table)``, ``items``, ``values`` and equality with any
    mapping raise at the first entry, in (x, y) order, that cannot be
    computed.
    """

    __slots__ = ("_entry", "_n", "_memo")

    def __init__(self, n: int, entry):
        self._entry, self._n = entry, n
        self._memo = {}

    def __contains__(self, key) -> bool:
        if type(key) is not tuple or len(key) != 2:
            return False
        x, y = key
        try:
            return 0 <= x < self._n and 0 <= y < self._n
        except TypeError:
            return False

    def __getitem__(self, key) -> int:
        value = self._memo.get(key)
        if value is None:
            if key not in self:
                raise KeyError(key)
            value = self._memo[key] = self._entry(*key)
        return value

    def get(self, key, default=None):
        return self[key] if key in self else default

    def __iter__(self):
        return itertools.product(range(self._n), repeat=2)

    def __len__(self) -> int:
        return self._n * self._n


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


def labelled_category(n_objects: int, elements: list, identity, compose) -> tuple:
    """The category on objects ``0..n_objects-1`` presented by labelled
    morphisms, and the number of each triple.

    ``elements`` lists triples ``(x, y, label)``, each a morphism x -> y,
    numbered in the order given; ``index`` maps each triple to its number.
    ``identity(x)`` is the label of the identity at x. ``compose(g, f)``
    is the label of g after f, for triples f: x -> y and g: y -> z; the
    composite is the triple ``(x, z, compose(g, f))``. It is called once
    per composable pair, f outer and g inner, both in numbering order, so
    the compose table is filled in that order and the first pair whose
    composite raises is the first in that order. Non-composable pairs are
    never visited. An identity or composite that is not among the triples
    raises KeyError. Returns ``(category, index)``.
    """
    index = {t: k for k, t in enumerate(elements)}
    ident = tuple(index[(x, x, identity(x))] for x in range(n_objects))
    by_dom: dict = {}
    for k, t in enumerate(elements):
        by_dom.setdefault(t[0], []).append((k, t))
    table = {}
    for kf, f in enumerate(elements):
        for kg, g in by_dom.get(f[1], ()):
            table[(kg, kf)] = index[(f[0], g[1], compose(g, f))]
    dom = tuple(t[0] for t in elements)
    cod = tuple(t[1] for t in elements)
    return FinCategory(n_objects, dom, cod, ident, table), index


def labelled_bifunctor(cat: FinCategory, elements: list, index: dict,
                       obj_map: Sequence[int], label) -> Functor:
    """A tensor on a labelled category, as a functor out of
    ``product_category(cat, cat)``.

    On objects it is ``obj_map``, with T(x, y) = ``obj_map[x * n + y]``.
    It sends the pair of triples (f, g) to the triple
    ``(T(dom f, dom g), T(cod f, cod g), label(f, g))``, read f outer and g
    inner in numbering order; a triple that is not an element raises
    KeyError.
    """
    n = cat.n_objects
    mor_map = tuple(
        index[(obj_map[f[0] * n + g[0]], obj_map[f[1] * n + g[1]], label(f, g))]
        for f in elements
        for g in elements
    )
    return Functor(product_category(cat, cat), cat, tuple(obj_map), mor_map)


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
    _check_functor_typing(fun, report)
    if report.ok:
        _check_functor_composition(fun, report)
    return report


def _check_functor_typing(fun: Functor, report: ValidationReport) -> None:
    """Add to report the typing of fun and its identity law; raise
    ``StructureError`` when its tables are not index-consistent.

    The composition law is left to ``_check_functor_composition``, so that
    its one gated caller, ``actions.check_module``, can decide that law on
    a thin carrier from this typing and skip only that loop.
    """
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


def _check_functor_composition(fun: Functor, report: ValidationReport) -> None:
    """Add to report every composable pair (g, f) of the source whose
    composite fun does not preserve, given that fun passes
    ``_check_functor_typing``. Its one gated caller is
    ``actions.check_module``, which runs it unless the carrier is thin."""
    c, d = fun.source, fun.target
    for (g, f), h in c.compose.items():
        if d.comp(fun.mor_map[g], fun.mor_map[f]) != fun.mor_map[h]:
            report.add("functor-composition", (g, f))


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


def _search(n: int, domain, constraints, budget: Budget):
    """Every assignment of variables 0..n-1 that meets the constraints.

    This is the one exhaustive search of ``ecat``; every "all X" and "the
    first X" is a call to it. ``domain(i, a)`` is called once variables
    0..i-1 are assigned and gives the values of variable i in order; it may
    read ``a[:i]`` while it is called.
    ``constraints`` holds pairs ``(last, check)``: ``check(a)`` may read
    ``a[:last + 1]`` and runs as soon as variable ``last`` is assigned, so a
    failed check prunes every extension at once. Assignments are yielded as
    tuples in lexicographic order, the order of ``itertools.product`` over
    the domains. Each value tried for a variable spends one unit of budget,
    so a search that returns has seen every candidate and one that cannot
    finish raises ``BudgetExceeded``.
    """
    checks = [[] for _ in range(n)]
    for last, check in constraints:
        checks[last].append(check)
    if n == 0:
        yield ()
        return
    a = [None] * n
    stack = [iter(domain(0, a))]
    while stack:
        i = len(stack) - 1
        for a[i] in stack[i]:
            budget.spend()
            if all(check(a) for check in checks[i]):
                break
        else:
            stack.pop()
            continue
        if i + 1 == n:
            yield tuple(a)
        else:
            stack.append(iter(domain(i + 1, a)))


def _functor_search(c: FinCategory, d: FinCategory, budget: Budget, iso: bool = False):
    """Functors C -> D in lexicographic (obj_map, then mor_map) order.

    Objects are the first variables, then the morphisms that are not
    identities; a composite is checked once its three morphisms are mapped.
    With iso set, only bijections that keep degree signatures are yielded.
    """
    n = c.n_objects
    ident = {e: x for x, e in enumerate(c.identity)}
    free = [f for f in c.morphisms() if f not in ident]
    var = dict(ident)
    var.update((f, n + k) for k, f in enumerate(free))
    objs = [d.objects()] * n
    if iso:
        sig_c = [_degree_signature(c, x) for x in c.objects()]
        sig_d = [_degree_signature(d, y) for y in d.objects()]
        if sorted(sig_c) != sorted(sig_d):
            return
        objs = [[y for y in d.objects() if sig_d[y] == s] for s in sig_c]

    def image(a, f):
        return d.identity[a[ident[f]]] if f in ident else a[var[f]]

    def domain(i, a):
        if i < n:
            return objs[i]
        f = free[i - n]
        return d.hom(a[c.dom[f]], a[c.cod[f]])

    constraints = []
    if iso:
        d_ids = set(d.identity)
        constraints += [(x, lambda a, x=x: a[x] not in a[:x]) for x in range(n)]
        constraints += [
            (n + k, lambda a, k=k: a[n + k] not in a[n:n + k] and a[n + k] not in d_ids)
            for k in range(len(free))
        ]
    constraints += [
        (max(c.dom[f], c.cod[f]), lambda a, f=f: bool(d.hom(a[c.dom[f]], a[c.cod[f]])))
        for f in free
    ]
    constraints += [
        (max(var[g], var[f], var[h]),
         lambda a, g=g, f=f, h=h: d.comp(image(a, g), image(a, f)) == image(a, h))
        for (g, f), h in c.compose.items()
    ]
    for a in _search(n + len(free), domain, constraints, budget):
        yield Functor(c, d, a[:n], tuple(image(a, f) for f in c.morphisms()))


def enumerate_functors(
    c: FinCategory, d: FinCategory, cap: int | Budget | None = None
) -> list[Functor]:
    """All functors C -> D in lexicographic (obj_map, then mor_map) order."""
    return list(_functor_search(c, d, Budget.of(cap, "functor enumeration")))


def _nat_search(f: Functor, g: Functor, budget: Budget):
    """Natural transformations f => g in lexicographic component order;
    naturality at m is checked once both of its ends have components."""
    c, d = f.source, f.target
    constraints = [
        (max(c.dom[m], c.cod[m]),
         lambda a, m=m: d.comp(a[c.cod[m]], f.mor_map[m]) == d.comp(g.mor_map[m], a[c.dom[m]]))
        for m in c.morphisms()
    ]

    def domain(x, a):
        return d.hom(f.obj_map[x], g.obj_map[x])

    for comps in _search(c.n_objects, domain, constraints, budget):
        yield NatTransf(f, g, comps)


def enumerate_nat_transfs(
    f: Functor, g: Functor, cap: int | Budget | None = None
) -> list[NatTransf]:
    return list(_nat_search(f, g, Budget.of(cap, "natural transformation enumeration")))


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
    c: FinCategory, d: FinCategory, cap: int | Budget | None = None
) -> Functor | None:
    """First isomorphism C -> D in deterministic order, or None."""
    if c.n_objects != d.n_objects or c.n_morphisms != d.n_morphisms:
        return None
    return next(_functor_search(c, d, Budget.of(cap, "isomorphism search"), iso=True), None)


def inverse_functor(fun: Functor) -> Functor:
    """Inverse of a bijective functor."""
    obj = [0] * fun.target.n_objects
    mor = [0] * fun.target.n_morphisms
    for x, y in enumerate(fun.obj_map):
        obj[y] = x
    for f, g in enumerate(fun.mor_map):
        mor[g] = f
    return Functor(fun.target, fun.source, tuple(obj), tuple(mor))
