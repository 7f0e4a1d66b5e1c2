import signal

import numpy as np
import pytest

from multisymp import area_lagrangian, ellipsoid_lagrangian, graph_lift, minimal_surface_density


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def x3():
    return np.zeros(3)


@pytest.fixture
def area3():
    return area_lagrangian(3, 2)


@pytest.fixture
def ellipsoid3():
    return ellipsoid_lagrangian(3, 2, [1.0, 4.0, 9.0])


@pytest.fixture
def minimal_lift3():
    return graph_lift(minimal_surface_density(3, 2))


def pytest_configure(config):
    config.addinivalue_line("markers", "time_limit(seconds): fail the test, instead of hanging, once it runs this long")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Raise TimeoutError inside a test marked time_limit once its wall-clock limit passes (SIGALRM)."""
    marker = item.get_closest_marker("time_limit")
    if marker is None:
        yield
        return
    seconds = marker.args[0]

    def expire(signum, frame):
        raise TimeoutError(f"{item.nodeid} ran longer than its {seconds} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
