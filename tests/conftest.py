"""Fixtures shared by the test modules."""

import os
import signal

import pytest


@pytest.fixture
def in_child():
    """Run ``check`` in a forked child that SIGALRM kills after ``seconds``; True if it held.

    A deadlock in the child fails the test instead of hanging the suite.
    """
    def run(check, seconds=30) -> bool:
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                signal.alarm(seconds)
                ok = check()
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        return os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

    return run
