"""Keep hypothesis's on-disk caches out of the checkout.

The property tests run with database=None, but hypothesis still caches
the constants it finds in the source under its storage directory, which
defaults to ./.hypothesis.
"""

import os
import tempfile

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "oscille-hypothesis"))
