import pathlib
import sys

import pytest

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


@pytest.fixture
def cluster_walks(monkeypatch):
    """The member lists of every check_cluster call the package makes.

    duality is the one module that calls it, so patching the clusters and
    duality bindings covers every caller.
    """
    import contact_duality.clusters as clusters
    import contact_duality.duality as duality

    walked = []
    original = clusters.check_cluster

    def recording(relation, members):
        members = list(members)
        walked.append(members)
        return original(relation, members)

    for module in (clusters, duality):
        monkeypatch.setattr(module, "check_cluster", recording)
    return walked


@pytest.fixture
def law_walks(monkeypatch):
    """The tables of every first_law_violation call the package makes.

    Only spaces binds first_law_violation, so patching it there covers every
    caller.
    """
    import contact_duality.spaces as spaces

    walked = []
    original = spaces.first_law_violation

    def recording(domain, image, source, target, name):
        walked.append(image)
        return original(domain, image, source, target, name)

    monkeypatch.setattr(spaces, "first_law_violation", recording)
    return walked


@pytest.fixture
def fraction_orderings(monkeypatch):
    """The operator names of every Fraction order comparison made, in order.

    Fraction's rich comparisons are plain class attributes, so patching them
    on the class counts every call, from the package and from the test alike.
    """
    from fractions import Fraction

    made = []

    def counting(name):
        original = getattr(Fraction, name)

        def compare(a, b):
            made.append(name)
            return original(a, b)
        return compare

    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, counting(name))
    return made
