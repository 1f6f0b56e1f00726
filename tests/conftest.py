"""Shared test configuration.

``--hypothesis-profile=ci`` runs the property tests that take their example
count from the profile ten times longer than the default profile does, with
the same derandomized examples on every run.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, derandomize=True, deadline=None)
