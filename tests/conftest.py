"""Hypothesis profiles for the property tests: ``tier1`` (loaded here, 60
examples a test) and ``thorough`` (400), chosen on the command line with
``--hypothesis-profile thorough``."""
try:
    from hypothesis import settings
except ImportError:  # the property tests then fail to import on their own
    pass
else:
    settings.register_profile("tier1", max_examples=60)
    settings.register_profile("thorough", max_examples=400)
    settings.load_profile("tier1")
