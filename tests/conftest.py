"""Shared test configuration: one hypothesis profile for every property test.

Derandomized so that each run draws the same examples, without per-example
deadlines (the integrator and quadrature oracles vary widely in cost), and
30 examples per property.
"""

from hypothesis import settings

settings.register_profile("blackstock", derandomize=True, deadline=None, max_examples=30)
settings.load_profile("blackstock")
