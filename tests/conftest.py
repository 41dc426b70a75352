import pytest

from kforge import kolyvagin
from kforge.kolyvagin import clear_memo


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test builds its own cocycles and classes, as each CLI command does."""
    clear_memo()
    yield
    clear_memo()


@pytest.fixture
def certified(monkeypatch):
    """The conductor of every cocycle _certify verifies, in call order."""
    conductors = []
    certify = kolyvagin._certify

    def counted(field, M, values, dsphi):
        conductors.append(field.m)
        return certify(field, M, values, dsphi)

    monkeypatch.setattr(kolyvagin, "_certify", counted)
    return conductors
