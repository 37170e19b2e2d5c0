import pytest

import trimoduli as tm


@pytest.fixture(scope="session")
def s31():
    """The n = 31 census; shared because it costs about 1 s."""
    return tm.enumerate_weighted(31)


@pytest.fixture(scope="session")
def s2():
    return tm.enumerate_weighted(2)
