"""A traced center run labels every budget unit it spends.

The tracer credits each unit to the innermost spanned function on the
stack, so a search reached only through an unspanned private twin would
count toward its caller and leave its own total at 0.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from ecat import centers  # noqa: E402
from helpers import chain2_enriched  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402  (needs ROOT on sys.path)

CAP = 500_000


def test_an_e0_center_spends_only_in_the_ordinary_center_and_condition_star():
    e = chain2_enriched()
    with Tracer() as tr:
        centers.e0_center(e, CAP)
    totals = tr.totals()
    star = totals["centers.condition_star"]["budget"]
    z1 = totals["monoidal.drinfeld_center_z1"]["budget"]
    assert star > 0 and z1 > 0
    assert star + z1 == tr.budget_total
