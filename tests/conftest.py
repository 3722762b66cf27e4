"""Hypothesis profiles: ``ci`` runs 1000 examples a property, for a CI step
that selects it with ``--hypothesis-profile=ci``; a test that sets its own
``max_examples`` keeps it."""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
