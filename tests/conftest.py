from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest

from cgrs.backend import ToyBackend, overthinking_spec
from cgrs.lexicon import build_trigger_set, default_trigger_words


@pytest.fixture(scope="session")
def overthinking_backend() -> ToyBackend:
    return ToyBackend(overthinking_spec())


@pytest.fixture(scope="session")
def overthinking_triggers(overthinking_backend):
    return build_trigger_set(default_trigger_words(), overthinking_backend.vocabulary)


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` fails the test instead of letting it hang."""

    @contextmanager
    def within(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"block did not finish within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return within


TOY_PROMPT = "Solve 6*7. "
