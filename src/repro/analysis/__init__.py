"""Repo-invariant linting.

:mod:`repro.analysis.repolint` is a Python-``ast`` linter that turns the
repo's dynamic invariants (touch-state honesty, cache ``reset_counters``,
determinism, pickle confinement) into static CI gates.
"""
