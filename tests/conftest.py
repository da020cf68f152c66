import os
import sys
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# On a failing example, hypothesis's pytest plugin imports its patch writer,
# which imports libcst where it is installed, and libcst's import raises a
# DeprecationWarning.  Under -W error::DeprecationWarning that ends the run
# in INTERNALERROR, hiding the falsifying example and every later test.
# Importing the writer once here, with that warning ignored for this import
# only, keeps a failure readable; without libcst there is nothing to import.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
