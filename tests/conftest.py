"""Run every hypothesis property from a fixed seed, with no example database,
so that tier-1 gives the same verdict on each run and leaves no files behind."""

import os
import tempfile

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

# hypothesis also caches the constants it reads from the source under test;
# keep that cache in a directory removed when the run ends
_cache = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _cache.name)
