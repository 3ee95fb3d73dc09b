"""Shared test fixtures."""

import os

import pytest


@pytest.fixture(autouse=True)
def _restore_repro_environment():
    """Snapshot every ``REPRO_*`` variable and put it back after each test.

    ``RunConfig.from_env`` reads these, so a test that sets one (directly,
    through ``monkeypatch`` on a name that was absent, or by running the
    CLI, which exports its flags) must not change the configuration
    later tests resolve.
    """
    saved = {
        name: value for name, value in os.environ.items() if name.startswith("REPRO_")
    }
    yield
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        if name not in saved:
            del os.environ[name]
    os.environ.update(saved)
