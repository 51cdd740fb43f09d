"""Settings shared by the whole test suite.

One hypothesis profile for every run: derandomized, so each property test
draws the same examples on every run and machine; a bounded example count
and no per-example deadline, so the property tests keep the suite's wall
time flat and cannot fail on a slow host.
"""
from hypothesis import settings

settings.register_profile("pma-lab", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.load_profile("pma-lab")
