"""The ``compiled`` marker: the logistic family runs only on the compiled
kernel, so a test marked ``compiled`` is skipped where the kernel cannot be
built (no C compiler) instead of failing.  The ``built_lib`` fixture is the
compiled library without its load-time self-check."""

import pytest

from cesaro_lmc import _kernel


def pytest_configure(config):
    config.addinivalue_line("markers", "compiled: needs the compiled kernel (the logistic family)")


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    if item.get_closest_marker("compiled") is not None and _kernel.load() is None:
        pytest.skip("the compiled kernel cannot be built here")


@pytest.fixture(scope="session")
def built_lib():
    """The compiled library as built, not checked at load: a test of its
    streams checks the C code itself, where a library that failed the
    self-check would only make ``load()`` fall back to numpy."""
    try:
        return _kernel._open(_kernel._shared_object())
    except OSError:
        pytest.skip("the compiled kernel cannot be built here")
