"""Hypothesis runs the same examples on every run: derandomized, with no
example database carried between runs."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
