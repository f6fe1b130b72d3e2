"""Metamorphic rows: an enriched category with one object repeated is
equivalent to the one without, so their E0 centers are equivalent (Kelly
1982 §1.11): they have as many isomorphism classes, and the universal
property holds on both. The repeated input inflates the center (chain-2's
from 3 objects to 13, lattice-4's from 9 to 57), so these rows also run the
verifiers on centers with many isomorphic objects.
"""

import pytest

from ecat.centers import e0_center, evaluation_action, trivial_action, verify_e0_universal
from ecat.enriched import underlying_category
from ecat.monoidal import find_inverse

from helpers import lattice2_monoidal, lattice4_monoidal, thin_enriched

CAP = 1_000_000


def _chain2(objs):
    return thin_enriched(lattice2_monoidal(), objs, lambda x, y: int(x <= y))


def _lattice4(objs):
    return thin_enriched(lattice4_monoidal(), objs, lambda x, y: (~x | y) & 3)


def _iso_classes(e) -> int:
    """The number of isomorphism classes of objects of e's underlying
    category."""
    u = underlying_category(e).cat
    parent = list(u.objects())

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for f in u.morphisms():
        if find_inverse(u, f) is not None:
            parent[root(u.dom[f])] = root(u.cod[f])
    return len({root(x) for x in u.objects()})


# (input, the same input with one object repeated, center sizes)
ROWS = {
    "chain2-repeat-top": (lambda: _chain2([0, 1]), lambda: _chain2([0, 1, 1]), (3, 13)),
    "chain2-repeat-bottom": (lambda: _chain2([0, 1]), lambda: _chain2([0, 0, 1]), (3, 13)),
    "lattice4-repeat-1": (
        lambda: _lattice4([0, 1, 2, 3]), lambda: _lattice4([0, 1, 1, 2, 3]), (9, 57)),
}


@pytest.mark.parametrize("row", ROWS)
def test_a_repeated_object_keeps_the_e0_center_up_to_equivalence(row):
    make, make_repeated, sizes = ROWS[row]
    classes = []
    for e, size in zip((make(), make_repeated()), sizes):
        res = e0_center(e, CAP)
        host = res.category.host
        assert host.n_objects == size
        classes.append(_iso_classes(host))
        for action in (evaluation_action(res, e), trivial_action(e)):
            out = verify_e0_universal(e, action, CAP, res)
            assert out.ok and out.uniqueness_count == 1
    assert classes[0] == classes[1]
