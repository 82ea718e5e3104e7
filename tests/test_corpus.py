import pytest

from corpus import all_preorder_spaces, discrete, small_algebra
from contact_duality.errors import StructureError


def test_small_algebra_names_exactly_n_atoms():
    for n in range(1, 12):
        assert small_algebra(n).atom_count == n


def test_corpus_sizes_beyond_the_names_are_refused():
    for make, too_many in ((small_algebra, 12), (discrete, 9), (all_preorder_spaces, 9)):
        with pytest.raises(StructureError):
            make(too_many)
        with pytest.raises(StructureError):
            make(-1)
