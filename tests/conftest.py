"""Suite-wide guards."""

import gc
import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running (a leaked pool
    worker would outlive the call that forked it)."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes left running: {left}"


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test after which the cyclic garbage collector is off (a
    collector pause that leaks would leave it off for every later test)."""
    yield
    assert gc.isenabled(), "the cyclic garbage collector was left off"
