import pytest

from kforge import kolyvagin
from kforge.euler import clear_memo


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test builds its own system values, cocycles and classes, as each
    CLI command does."""
    clear_memo()
    yield
    clear_memo()


@pytest.fixture
def built_cocycles(monkeypatch):
    """The conductor of every cocycle built, in call order: one Cocycle
    construction per build, none for a memo hit."""
    conductors = []
    cocycle = kolyvagin.Cocycle

    def counted(field, values, dsphi, frobenius_exponents):
        conductors.append(field.m)
        return cocycle(field, values, dsphi, frobenius_exponents)

    monkeypatch.setattr(kolyvagin, "Cocycle", counted)
    return conductors
