import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # The same examples on every run, and no example database on disk.
    settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
    settings.load_profile("derandomized")
