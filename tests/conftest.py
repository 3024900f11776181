import subprocess
import sys

import pytest

from murmur import arith

# address space of a capped run: room for numpy and scipy, none for a table sized by a huge input
_AS_CAP = 3 * 10**9


@pytest.fixture(scope="session")
def tables():
    return arith.sieve(10_000)


@pytest.fixture(scope="session")
def tables_big():
    return arith.sieve(200_000)


@pytest.fixture
def capped_run():
    """Run Python source in a subprocess whose address space is capped, so
    a regression that allocates in proportion to its input fails there
    instead of exhausting the machine's memory."""

    def run(code):
        cap = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({_AS_CAP}, {_AS_CAP}))\n"
        return subprocess.run([sys.executable, "-c", cap + code], capture_output=True, text=True)

    return run
