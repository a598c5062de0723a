"""Hypothesis profiles of the suite.

``tier1``, loaded by default, is derandomized and keeps no example
database, so every run of the suite draws the same examples.  ``explore``
draws new examples on each run and keeps the failing ones in the
git-ignored ``.hypothesis/``:

    python -m pytest tests --hypothesis-profile=explore
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")
