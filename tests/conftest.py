"""Every test starts with an empty per-unit memo, so no test sees the
results another test memoised and memory stays flat over the suite."""

import pytest

from bicat.fin import clear_table


@pytest.fixture(autouse=True)
def _empty_table():
    clear_table()
