"""Test-suite settings shared by every test module."""

from hypothesis import settings

# Solver calls vary in time with the mesh depth, so no per-example deadline;
# a failing example prints the @reproduce_failure blob that replays it.
settings.register_profile("sphere-zeros", deadline=None, print_blob=True)
settings.load_profile("sphere-zeros")
