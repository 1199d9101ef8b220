"""Suite-wide hypothesis settings: every run draws the same examples."""

from hypothesis import settings

# derandomize seeds each test's examples from a hash of the test itself, so
# two runs of the suite test the same inputs; deadline=None because the first
# examples pay numpy's and LAPACK's warm-up
settings.register_profile("almostnormal", derandomize=True, deadline=None)
settings.load_profile("almostnormal")
