"""Test-suite settings: property tests draw the same examples in every
checkout.

Hypothesis replays the failures it stored in an untracked .hypothesis
directory before it draws new examples, and draws them at random, so a
property test could fail in one checkout and pass in another. This profile
derandomizes the draws and keeps no example database; each test's own
max_examples and deadline still apply.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
