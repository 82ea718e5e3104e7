"""The mutation table in tests/mutants.py still matches the source."""

from mutants import MUTANTS, ROOT


def test_every_mutant_text_occurs_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name
        for test_id in m.tests:
            path, *names = test_id.split("::")
            text = (ROOT / path).read_text()
            assert all(f"def {name}(" in text or f"class {name}" in text for name in names), test_id
