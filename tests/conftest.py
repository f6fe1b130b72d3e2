"""Hypothesis profiles for the test suite.

``ci`` prints the reproduction blob of every failing example, so that a
counterexample drawn in CI can be replayed from the log with
``@reproduce_failure``. Select it with ``--hypothesis-profile=ci``.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
