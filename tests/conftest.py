"""The ``compiled`` marker: the logistic family runs only on the compiled
kernel, so a test marked ``compiled`` is skipped where the kernel cannot be
built (no C compiler) instead of failing."""

import pytest

from cesaro_lmc import _kernel


def pytest_configure(config):
    config.addinivalue_line("markers", "compiled: needs the compiled kernel (the logistic family)")


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    if item.get_closest_marker("compiled") is not None and _kernel.load() is None:
        pytest.skip("the compiled kernel cannot be built here")
