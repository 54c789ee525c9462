"""Hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` selects the ``ci`` profile, which prints the
``@reproduce_failure`` line of a failing example so that the case can be
replayed from the log.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
