"""Every test starts with an empty memo, as every check does, so no test
sees the results another test memoised."""

import pytest

from bicat import fin
from bicat.fin import clear_table


@pytest.fixture(autouse=True)
def _empty_table():
    clear_table()


def pytest_terminal_summary(terminalreporter):
    """Print the values the session's units interned: a count of the work
    the tests did, which repeats exactly for a fixed hypothesis seed."""
    terminalreporter.write_sep("-", "bicat: %d values interned"
                               % (fin.interned + len(fin._VALUES)))
