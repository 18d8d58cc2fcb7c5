"""Every test starts with an empty memo, as every check does, so no test
sees the results another test memoised."""

import pytest

from bicat.fin import clear_table


@pytest.fixture(autouse=True)
def _empty_table():
    clear_table()
