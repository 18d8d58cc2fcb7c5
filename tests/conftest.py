"""Every test starts with an empty memo, as every check does, so no test
sees the results another test memoised.

Hypothesis runs one fixed example set per tree (the ``derandomized``
profile, loaded here), so a session's work counts repeat from run to run
and a failure reproduces on the next.  Hypothesis's own profile,
``pytest --hypothesis-profile default``, draws fresh examples instead."""

import pytest
from hypothesis import settings

from bicat import fin
from bicat.fin import clear_table

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def _empty_table():
    clear_table()


def pytest_terminal_summary(terminalreporter):
    """Print the values the session's units interned and the results they
    memoised: counts of the work the tests did, which repeat exactly for a
    fixed example set."""
    terminalreporter.write_sep("-", "bicat: %d values interned"
                               % (fin.interned + len(fin._VALUES)))
    terminalreporter.write_sep("-", "bicat: %d memo entries"
                               % (fin.memo_entries
                                  + sum(map(len, fin._TABLES))))
