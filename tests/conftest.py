"""Shared test settings: one deterministic Hypothesis profile.

Property tests derive their examples from the test itself
(``derandomize=True``), keep no example database between runs and have no
deadline, so every run of the suite tries the same inputs and a slow machine
does not fail a property.  ``max_examples`` bounds what properties add to the
suite's time.
"""

from hypothesis import settings

settings.register_profile(
    "subsetcal", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("subsetcal")
