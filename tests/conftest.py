"""Hypothesis profiles.  HYPOTHESIS_PROFILE=ci draws the same examples on
every run and prints the blob that replays a failure, so a failing case
seen in CI reproduces locally."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
