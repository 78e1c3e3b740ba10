"""Suite-wide guards."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running (a leaked pool
    worker would outlive the call that forked it)."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes left running: {left}"
