import pytest

from kforge.kolyvagin import clear_memo


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test builds its own cocycles and classes, as each CLI command does."""
    clear_memo()
    yield
    clear_memo()
