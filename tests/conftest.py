"""Every test starts with an empty unit-of-work table, so no test sees the
values another test interned and memory stays flat over the suite."""

import pytest

from bicat.fin import clear_table


@pytest.fixture(autouse=True)
def _empty_table():
    clear_table()
