"""Lookups paid for once: the hom index and the inverse memo, and
check_monoidal_module with its thin-carrier rule, each compared with the
plain version it replaced."""

import dataclasses
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecat.actions import (
    ModuleAction,
    MonoidalModuleCells,
    check_module,
    check_monoidal_module,
    internal_hom,
    monoidal_self_module,
    self_module,
    terminal_module,
)
from ecat.canonical import (
    canonical_construction,
    canonical_monoidal,
    monoidal_cells_from_enriched,
)
from ecat.core import (
    FinCategory,
    Functor,
    _degree_signature,
    check_category,
    check_functor,
    opposite_category,
    product_category,
    terminal_category,
)
from ecat.monoidal import (
    BraidedStructure,
    _out_of_product,
    check_braided,
    drinfeld_center_z1,
    enumerate_half_braidings,
    find_inverse,
    product_monoidal,
    strict_monoidal,
)
from ecat.report import BudgetExceeded, StructureError

from helpers import (
    chain2,
    chain3_monoidal,
    exhaustive_check_monoidal_module,
    identity_braiding,
    lattice2_monoidal,
    lattice4_monoidal,
    meet_semilattice_monoidal,
    meet_semilattices,
    scan_hom,
    scan_inverse,
    semion_braiding,
    semion_monoidal,
    sign_monoidal,
    thin_monoidal,
    z2_discrete_monoidal,
)

MONOIDALS = {
    "z2": z2_discrete_monoidal,
    "semion": semion_monoidal,
    "lattice2": lattice2_monoidal,
    "chain3": chain3_monoidal,
    "lattice4": lattice4_monoidal,
}


def _categories():
    """Each fixture's category, its product view with itself, its opposite
    and a dataclasses.replace copy."""
    for name, build in MONOIDALS.items():
        c = build().base
        yield name, c
        yield f"{name}^2", product_category(c, c)
        yield f"{name}^op", opposite_category(c)
        yield f"{name}-replaced", dataclasses.replace(c, obj_names=None)


CATEGORIES = dict(_categories())


@pytest.mark.parametrize("name", CATEGORIES)
def test_hom_matches_linear_scan(name):
    c = CATEGORIES[name]
    for x, y in itertools.product(range(-1, c.n_objects + 1), repeat=2):
        assert c.hom(x, y) == scan_hom(c, x, y)
        assert type(c.hom(x, y)) is tuple


@pytest.mark.parametrize("name", CATEGORIES)
def test_thin_means_at_most_one_morphism_per_hom_set(name):
    c = CATEGORIES[name]
    hom_sizes = [len(scan_hom(c, x, y)) for x, y in itertools.product(c.objects(), repeat=2)]
    assert c.thin == (max(hom_sizes) <= 1)
    assert "thin" not in {f.name for f in dataclasses.fields(FinCategory)}


def test_hom_index_is_lazy_per_instance_and_not_a_field():
    c = product_category(lattice2_monoidal().base, z2_discrete_monoidal().base)
    assert "_hom_index" not in vars(c)
    assert c.hom(0, 0) == scan_hom(c, 0, 0)
    assert "_hom_index" in vars(c)
    assert "_hom_index" not in {f.name for f in dataclasses.fields(FinCategory)}
    copy = dataclasses.replace(c)
    assert copy == c
    assert "_hom_index" not in vars(copy)
    # a copy with other tables gets its own index, not the original's
    flipped = dataclasses.replace(c, dom=c.cod, cod=c.dom)
    for x, y in itertools.product(c.objects(), repeat=2):
        assert flipped.hom(x, y) == scan_hom(flipped, x, y) == c.hom(y, x)


@pytest.mark.parametrize("name", CATEGORIES)
def test_degree_signature_matches_linear_scan(name):
    c = CATEGORIES[name]
    for x in c.objects():
        outs = sorted(len(scan_hom(c, x, y)) for y in c.objects())
        ins = sorted(len(scan_hom(c, y, x)) for y in c.objects())
        expected = (tuple(outs), tuple(ins), len(scan_hom(c, x, x)))
        assert _degree_signature(c, x) == expected


@pytest.mark.parametrize("name", CATEGORIES)
def test_find_inverse_matches_rescan(name):
    c = CATEGORIES[name]
    answers = [scan_inverse(c, f) for f in c.morphisms()]
    assert [find_inverse(c, f) for f in c.morphisms()] == answers
    assert [find_inverse(c, f) for f in c.morphisms()] == answers


def test_find_inverse_reports_non_invertible_morphisms():
    c = lattice2_monoidal().base
    (le,) = c.hom(0, 1)
    assert find_inverse(c, le) is None
    assert find_inverse(c, le) is None
    assert find_inverse(c, c.identity[0]) == c.identity[0]


def test_find_inverse_memo_is_per_instance():
    group = sign_monoidal().base  # {e, g} with g.g = e
    idempotent = dataclasses.replace(
        group, compose={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    )
    assert find_inverse(group, 1) == 1
    assert find_inverse(idempotent, 1) is None
    assert scan_inverse(idempotent, 1) is None
    assert find_inverse(group, 1) == 1


# --- check_monoidal_module against the exhaustive oracle ---


def _canonical_cells(m):
    """The module cells read back from the canonical enriched monoidal
    category of the self-module of m."""
    cells = monoidal_self_module(identity_braiding(m))
    can = canonical_construction(cells.module)
    return monoidal_cells_from_enriched(canonical_monoidal(cells, can), can)


def _self_cells():
    return {
        "semion": monoidal_self_module(semion_braiding()),
        "sign": monoidal_self_module(identity_braiding(sign_monoidal())),
        "z2": monoidal_self_module(identity_braiding(z2_discrete_monoidal())),
        "lattice2": monoidal_self_module(identity_braiding(lattice2_monoidal())),
        "chain3": monoidal_self_module(identity_braiding(chain3_monoidal())),
        "lattice4": monoidal_self_module(identity_braiding(lattice4_monoidal())),
        "sign-x-z2": monoidal_self_module(
            identity_braiding(product_monoidal(sign_monoidal(), z2_discrete_monoidal()))
        ),
        # parallel arrows 0 -> 1, so a changed interchange cell breaks naturality
        "sign-x-lattice2": monoidal_self_module(
            identity_braiding(product_monoidal(sign_monoidal(), lattice2_monoidal()))
        ),
        "canonical-lattice4": _canonical_cells(lattice4_monoidal()),
    }


SELF_CELLS = _self_cells()


def _alternative(c, f, k):
    """A morphism of the same type as f, other than f, or None."""
    alts = [g for g in c.hom(c.dom[f], c.cod[f]) if g != f]
    return alts[k % len(alts)] if alts else None


MUTATED_TABLES = ("interchange", "module-associator", "action")


def _entries(cells, table):
    """The (key, morphism) entries of one table of the cells."""
    mod = cells.module
    if table == "interchange":
        return list(cells.interchange.items())
    if table == "module-associator":
        return list(mod.oplax_assoc.items())
    if table == "action":
        return list(enumerate(mod.act.mor_map))
    if table == "carrier-associator":
        return list(cells.carrier_monoidal.associator.items())
    if table == "base-associator":
        return list(mod.base.associator.items())
    if table == "base-braiding":
        return list(cells.base_braiding.braiding.items())
    if table == "unit-cell":
        return [((), cells.unit_cell)]
    return list(enumerate(cells.carrier_monoidal.tensor.mor_map))  # "carrier-tensor"


def _with_entry(cells, table, key, g):
    """A copy of the cells with one entry of one table set to g."""
    mod = cells.module
    if table == "interchange":
        return dataclasses.replace(cells, interchange={**cells.interchange, key: g})
    if table == "module-associator":
        assoc = {**mod.oplax_assoc, key: g}
        return dataclasses.replace(cells, module=dataclasses.replace(mod, oplax_assoc=assoc))
    if table == "base-associator":
        base = dataclasses.replace(mod.base, associator={**mod.base.associator, key: g})
        return dataclasses.replace(cells, module=dataclasses.replace(mod, base=base))
    if table == "base-braiding":
        b = cells.base_braiding
        return dataclasses.replace(
            cells, base_braiding=dataclasses.replace(b, braiding={**b.braiding, key: g})
        )
    if table == "unit-cell":
        return dataclasses.replace(cells, unit_cell=g)
    lm = cells.carrier_monoidal
    if table == "carrier-associator":
        lm = dataclasses.replace(lm, associator={**lm.associator, key: g})
        return dataclasses.replace(cells, carrier_monoidal=lm)
    fun = mod.act if table == "action" else lm.tensor
    mor_map = list(fun.mor_map)
    mor_map[key] = g
    fun = dataclasses.replace(fun, mor_map=tuple(mor_map))
    if table == "action":
        return dataclasses.replace(cells, module=dataclasses.replace(mod, act=fun))
    return dataclasses.replace(cells, carrier_monoidal=dataclasses.replace(lm, tensor=fun))


def _mutations(cells):
    """One same-typed one-entry mutation per interchange cell, module
    associator cell and action mor_map entry that admits one."""
    c = cells.module.carrier
    for table in MUTATED_TABLES:
        for k, (key, f) in enumerate(_entries(cells, table)):
            g = _alternative(c, f, k)
            if g is not None:
                yield table, _with_entry(cells, table, key, g)


@pytest.mark.parametrize("name", SELF_CELLS)
def test_check_monoidal_module_matches_oracle_on_valid_cells(name):
    cells = SELF_CELLS[name]
    report = check_monoidal_module(cells)
    assert report.ok
    assert report.violations == exhaustive_check_monoidal_module(cells).violations


@pytest.mark.parametrize("name", ["semion", "sign", "sign-x-z2"])
def test_check_monoidal_module_matches_oracle_on_mutations(name):
    broken = {}
    count = 0
    for kind, cells in _mutations(SELF_CELLS[name]):
        got = check_monoidal_module(cells).violations
        assert got == exhaustive_check_monoidal_module(cells).violations
        assert got, f"{kind} mutation reported nothing"
        broken.setdefault(kind, set()).update(v.law for v in got)
        count += 1
    assert count > 0
    if name == "semion":
        assert set(broken) == {"interchange", "module-associator", "action"}
        assert "interchange-hexagon" in broken["interchange"]
        assert "interchange-naturality" in broken["action"]
        assert "associator-oplax-monoidal" in broken["module-associator"]


@pytest.mark.parametrize("name", ["semion", "sign"])
@pytest.mark.parametrize("table", ["action", "carrier-tensor"])
def test_check_monoidal_module_matches_oracle_when_not_a_functor(name, table):
    cells = SELF_CELLS[name]
    c = cells.module.carrier
    key, f = _entries(cells, table)[1]
    broken = _with_entry(cells, table, key, _alternative(c, f, 0))
    fun = broken.module.act if table == "action" else broken.carrier_monoidal.tensor
    assert not check_functor(fun).ok  # typed, but no longer a functor
    report = check_monoidal_module(broken)
    assert not report.ok
    assert report.violations == exhaustive_check_monoidal_module(broken).violations


def test_check_monoidal_module_enumerates_on_a_non_thin_functorial_carrier():
    cells = SELF_CELLS["sign-x-lattice2"]
    functors = (cells.module.base.tensor, cells.module.act, cells.carrier_monoidal.tensor)
    assert all(check_functor(fun).ok for fun in functors)
    assert not cells.module.carrier.thin
    c = cells.module.carrier
    laws = set()
    for key, f in _entries(cells, "interchange"):
        for g in c.hom(c.dom[f], c.cod[f]):
            if g == f:
                continue
            mutated = _with_entry(cells, "interchange", key, g)
            got = check_monoidal_module(mutated).violations
            assert got == exhaustive_check_monoidal_module(mutated).violations
            laws.update(v.law for v in got)
    assert "interchange-naturality" in laws


@pytest.mark.parametrize("name", ["semion", "sign-x-lattice2"])
def test_check_monoidal_module_matches_oracle_on_carrier_associator_mutations(name):
    cells = SELF_CELLS[name]
    c = cells.module.carrier
    laws = set()
    for k, (key, f) in enumerate(_entries(cells, "carrier-associator")):
        g = _alternative(c, f, k)
        if g is not None:
            mutated = _with_entry(cells, "carrier-associator", key, g)
            got = check_monoidal_module(mutated).violations
            assert got == exhaustive_check_monoidal_module(mutated).violations
            laws.update(v.law for v in got)
    assert "interchange-hexagon" in laws


def test_check_monoidal_module_enumerates_when_the_action_leaves_another_source():
    cells = SELF_CELLS["sign-x-lattice2"]
    mod = cells.module
    ca, c = mod.base.base, mod.carrier
    mc = c.n_morphisms
    src = mod.act.source
    # keep only the composites with an identity: the action then passes as
    # a functor out of src even after changing its entry at two non-identities
    ids = set(src.identity)
    src = dataclasses.replace(
        src, compose={k: v for k, v in src.compose.items() if ids.intersection(k)}
    )
    k = next(
        f * mc + p
        for f in ca.morphisms()
        for p in c.morphisms()
        if f not in ca.identity and p not in c.identity
    )
    mor_map = list(mod.act.mor_map)
    mor_map[k] = _alternative(c, mor_map[k], 0)
    act = dataclasses.replace(mod.act, source=src, mor_map=tuple(mor_map))
    assert check_functor(act).ok
    broken = dataclasses.replace(cells, module=dataclasses.replace(mod, act=act))
    report = check_monoidal_module(broken)
    assert "interchange-naturality" in report.laws()
    assert report.violations == exhaustive_check_monoidal_module(broken).violations


def test_check_monoidal_module_enumerates_when_the_carrier_is_not_a_category():
    # one object, identity 0 and g = 1, with 0 . g = 0: the tensor that
    # sends only (g, g) to g passes as a functor, but squares do not paste
    c = FinCategory(1, (0, 0), (0, 0), (0,), {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1})
    tensor = Functor(product_category(c, c), c, (0,), (0, 0, 0, 1))
    m = strict_monoidal(c, tensor, 0)
    cells = monoidal_self_module(BraidedStructure(m, {(0, 0): 0}, True))
    assert not check_category(c).ok
    assert check_functor(tensor).ok
    report = check_monoidal_module(cells)
    assert report.laws() == {"interchange-naturality"}
    assert report.violations == exhaustive_check_monoidal_module(cells).violations


class _CountingCompose(dict):
    """A compose table that counts the compositions read from it."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(["semion", "sign", "sign-x-z2", "sign-x-lattice2"]),
    st.sampled_from(MUTATED_TABLES),
    st.data(),
)
def test_check_monoidal_module_matches_oracle_on_drawn_mutations(name, table, data):
    cells = SELF_CELLS[name]
    c = cells.module.carrier
    key, f = data.draw(st.sampled_from(_entries(cells, table)))
    alternatives = [g for g in c.hom(c.dom[f], c.cod[f]) if g != f]
    assume(alternatives)
    mutated = _with_entry(cells, table, key, data.draw(st.sampled_from(alternatives)))
    got = check_monoidal_module(mutated).violations
    assert got == exhaustive_check_monoidal_module(mutated).violations


@pytest.mark.parametrize("table", ["carrier-associator", "module-associator"])
def test_check_monoidal_module_raises_on_a_missing_associator_entry(table):
    for name in ("semion", "lattice4"):  # lattice4 is thin
        cells = SELF_CELLS[name]
        mod, lm = cells.module, cells.carrier_monoidal
        if table == "carrier-associator":
            assoc = dict(lm.associator)
            del assoc[(1, 0, 1)]
            cells = dataclasses.replace(
                cells, carrier_monoidal=dataclasses.replace(lm, associator=assoc)
            )
        else:
            assoc = dict(mod.oplax_assoc)
            del assoc[(1, 0, 1)]
            cells = dataclasses.replace(
                cells, module=dataclasses.replace(mod, oplax_assoc=assoc)
            )
        with pytest.raises(KeyError) as oracle:
            exhaustive_check_monoidal_module(cells)
        with pytest.raises(KeyError) as got:
            check_monoidal_module(cells)
        assert got.value.args == oracle.value.args == ((1, 0, 1),)


@pytest.mark.parametrize("table", ["carrier-associator", "module-associator"])
def test_check_monoidal_module_raises_on_a_mistyped_associator_entry(table):
    cells = SELF_CELLS["semion"]
    c = cells.module.carrier
    key, f = _entries(cells, table)[0]
    g = next(h for h in c.morphisms() if (c.dom[h], c.cod[h]) != (c.dom[f], c.cod[f]))
    cells = _with_entry(cells, table, key, g)
    with pytest.raises(StructureError) as oracle:
        exhaustive_check_monoidal_module(cells)
    with pytest.raises(StructureError) as got:
        check_monoidal_module(cells)
    assert str(got.value) == str(oracle.value)
    assert str(got.value).startswith("compose undefined")


def test_check_monoidal_module_rejects_an_object_map_that_leaves_the_objects():
    # sign acts on z2 through object 0; the carrier tensor sends (1, 1) to
    # -1, which Python reads as the last object, so the typing pass holds
    sign, z2 = sign_monoidal(), z2_discrete_monoidal()
    c = z2.base
    act = Functor(product_category(sign.base, c), c, (0, 0), (0, 0, 0, 0))
    mod = ModuleAction(sign, c, act, {(0, 0, 0): 0, (0, 0, 1): 0}, (0, 1))
    lm = dataclasses.replace(z2, tensor=dataclasses.replace(z2.tensor, obj_map=(0, 1, 1, -1)))
    interchange = {(0, 0, x, y): 0 for x, y in itertools.product(range(2), repeat=2)}
    cells = MonoidalModuleCells(mod, identity_braiding(sign), lm, interchange, 0)
    # the enumeration looks up the interchange at object -1 and fails there
    with pytest.raises(KeyError):
        exhaustive_check_monoidal_module(cells)
    with pytest.raises(StructureError, match="leaves the objects"):
        check_monoidal_module(cells)


# --- the thin-carrier rule against the exhaustive oracle ---


THIN_CELLS = ("z2", "lattice2", "chain3", "lattice4", "canonical-lattice4")

THIN_TABLES = (
    "interchange",
    "carrier-associator",
    "module-associator",
    "action",
    "carrier-tensor",
    "base-associator",
    "base-braiding",
    "unit-cell",
)


def _outcome(check, cells):
    """The violations check reports, or the type and message it raises."""
    try:
        return check(cells).violations
    except Exception as exc:
        return type(exc), str(exc)


def _mistyped(c, f, k):
    """A morphism of c of another type than f; in a thin category every
    other morphism is one."""
    alts = [g for g in c.morphisms() if (c.dom[g], c.cod[g]) != (c.dom[f], c.cod[f])]
    return alts[k % len(alts)]


def _assert_mistyped_entry_matches_oracle(cells, table, i):
    """Give entry i of the table a morphism of another type; the check must
    report or raise exactly what the oracle does."""
    k = cells.module.base.base if table.startswith("base-") else cells.module.carrier
    key, f = _entries(cells, table)[i]
    mutated = _with_entry(cells, table, key, _mistyped(k, f, i))
    got = _outcome(check_monoidal_module, mutated)
    assert got == _outcome(exhaustive_check_monoidal_module, mutated), (table, key)


def test_the_thin_rule_applies_to_the_thin_fixtures_only():
    # so the oracle tests on the other fixtures run the loops
    for name, cells in SELF_CELLS.items():
        assert cells.module.carrier.thin == (name in THIN_CELLS), name


@pytest.mark.parametrize("name", ["z2", "lattice2", "chain3"])
def test_thin_rule_matches_oracle_on_every_mistyped_entry(name):
    cells = SELF_CELLS[name]
    for table in THIN_TABLES:
        for i in range(len(_entries(cells, table))):
            _assert_mistyped_entry_matches_oracle(cells, table, i)


# drawn: every entry of a lattice-4 fixture costs the oracle about 12 s (2-vCPU x86)
@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(["lattice4", "canonical-lattice4"]),
    st.sampled_from(THIN_TABLES),
    st.data(),
)
def test_thin_rule_matches_oracle_on_drawn_mistyped_entries(name, table, data):
    cells = SELF_CELLS[name]
    i = data.draw(st.integers(0, len(_entries(cells, table)) - 1))
    _assert_mistyped_entry_matches_oracle(cells, table, i)


@pytest.mark.parametrize("name", THIN_CELLS)
@pytest.mark.parametrize("table", ["interchange", "carrier-associator", "module-associator"])
def test_thin_rule_matches_oracle_on_a_negative_cell(name, table):
    # f - |mor C| reads as f wherever it indexes a table. The interchange
    # typing reports it out of range; the associators are read by no typing
    # loop, so their cell passes a typing read, but it is no compose key.
    cells = SELF_CELLS[name]
    c = cells.module.carrier
    key, f = _entries(cells, table)[-1]
    mutated = _with_entry(cells, table, key, f - c.n_morphisms)
    got = _outcome(check_monoidal_module, mutated)
    assert got == _outcome(exhaustive_check_monoidal_module, mutated)
    if table == "interchange":
        assert [(v.law, v.instance) for v in got] == [("interchange-typing", key)]
    else:
        assert got[0] is StructureError and got[1].startswith("compose undefined")


@pytest.mark.parametrize("table", ["base-associator", "base-braiding"])
def test_thin_rule_needs_invertible_base_cells(table):
    # The monoid {e, z} with z . z = z, as a one-object base, acts on the
    # terminal category, which is thin. Setting a base associator or
    # braiding cell to z keeps it typed, but the mid-swaps of the oplax
    # section then invert z, and the enumeration raises there.
    c = FinCategory(1, (0, 0), (0, 0), (0,), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    m = strict_monoidal(c, Functor(product_category(c, c), c, (0,), (0, 1, 1, 1)), 0)
    t = terminal_category()
    lm = strict_monoidal(t, Functor(product_category(t, t), t, (0,), (0,)), 0)
    cells = MonoidalModuleCells(
        terminal_module(m), identity_braiding(m), lm, {(0, 0, 0, 0): 0}, 0
    )
    assert check_monoidal_module(cells).ok
    mutated = _with_entry(cells, table, (0, 0) if table == "base-braiding" else (0, 0, 0), 1)
    got = _outcome(check_monoidal_module, mutated)
    assert got == _outcome(exhaustive_check_monoidal_module, mutated)
    assert got == (StructureError, "morphism 1 is not invertible")


def test_thin_rule_needs_the_braiding_on_the_base():
    # The identity braiding of chain-2 with join as tensor passes its own
    # check, but its cells are mistyped for the meet tensor the module acts
    # by, so the mid-swaps of the oplax section do not compose.
    cells = SELF_CELLS["lattice2"]
    join = identity_braiding(thin_monoidal(chain2(), max, 0))
    assert check_braided(join).ok
    mutated = dataclasses.replace(cells, base_braiding=join)
    got = _outcome(check_monoidal_module, mutated)
    assert got == _outcome(exhaustive_check_monoidal_module, mutated)
    assert got[0] is StructureError and got[1].startswith("compose undefined")


def test_thin_rule_composes_nothing_in_the_sections_it_decides():
    cells = SELF_CELLS["lattice4"]
    mod = cells.module
    c = mod.carrier
    na, nx = mod.base.base.n_objects, c.n_objects
    compose = _CountingCompose(c.compose)
    counted = dataclasses.replace(c, compose=compose)
    copy = dataclasses.replace(cells, module=dataclasses.replace(mod, carrier=counted))
    # a first check fills the inverse memo and the kept verdicts; what the
    # precondition still reads on the carrier is the action's product check
    # and check_module, each typing the composites once in check_category
    assert check_monoidal_module(copy).ok
    compose.reads = 0
    assert _out_of_product(copy.module.act, mod.base.base, counted)
    assert check_module(copy.module).ok
    precondition_reads = compose.reads
    assert precondition_reads == 2 * len(c.compose)
    compose.reads = 0
    assert check_monoidal_module(copy).ok
    # Beyond the precondition, only the unit sections compose: two squares
    # of two compositions per (a, x), one of two per (x, y), and three for
    # the unit cell. The hexagon alone would read 2 * 2 * 4^6 = 16,384.
    assert compose.reads - precondition_reads == 4 * na * nx + 2 * nx**2 + 3


@settings(deadline=None, max_examples=25)
@given(meet_semilattices())
def test_meet_semilattice_self_modules_are_coherent(masks):
    cells = monoidal_self_module(identity_braiding(meet_semilattice_monoidal(masks)))
    assert cells.module.carrier.thin
    report = check_monoidal_module(cells)
    assert report.ok
    # the oracle takes about 1.4 s on six elements and 8.5 s on eight (2-vCPU x86)
    if len(masks) <= 5:
        assert report.violations == exhaustive_check_monoidal_module(cells).violations


# --- searches honour ECAT_BUDGET by default ---


def test_internal_hom_honours_env_budget(monkeypatch):
    mod = self_module(lattice4_monoidal())
    assert internal_hom(mod, 3, 3) is not None
    monkeypatch.setenv("ECAT_BUDGET", "1")
    with pytest.raises(BudgetExceeded):
        internal_hom(mod, 3, 3)


def test_enumerate_half_braidings_honours_env_budget(monkeypatch):
    m = semion_monoidal()
    assert enumerate_half_braidings(m, 1)
    monkeypatch.setenv("ECAT_BUDGET", "1")
    with pytest.raises(BudgetExceeded):
        enumerate_half_braidings(m, 1)


def test_drinfeld_center_z1_honours_env_budget(monkeypatch):
    m = z2_discrete_monoidal()
    assert drinfeld_center_z1(m).monoidal.base.n_objects > 0
    monkeypatch.setenv("ECAT_BUDGET", "1")
    with pytest.raises(BudgetExceeded):
        drinfeld_center_z1(m)
