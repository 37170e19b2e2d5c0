import pytest

import trimoduli as tm


@pytest.fixture(scope="session")
def s31():
    """The n = 31 census; shared because it costs about 1 s."""
    return tm.enumerate_weighted(31)


@pytest.fixture(scope="session")
def s2():
    return tm.enumerate_weighted(2)


@pytest.fixture(scope="session")
def curve31():
    """The obtuse curve to n = 31, from one scan of about 1 s."""
    return tm.obtuse_curve(31)
