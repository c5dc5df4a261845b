"""Shared pytest configuration.

Hypothesis profiles: tier-1 runs with each test's own settings.  The
scheduled CI job sets ``HYPOTHESIS_PROFILE=nightly`` for a wider sweep
of the tests that defer their example count to the loaded profile.
"""

import os

from hypothesis import settings

settings.register_profile("nightly", max_examples=200)

_profile = os.environ.get("HYPOTHESIS_PROFILE")
if _profile:
    settings.load_profile(_profile)
