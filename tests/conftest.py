"""Test-suite settings shared by every module."""

from hypothesis import settings

# Properties run the same examples on every run and keep no example database;
# each property sets its own max_examples.
settings.register_profile("pcnsim", derandomize=True, database=None, deadline=None)
settings.load_profile("pcnsim")
