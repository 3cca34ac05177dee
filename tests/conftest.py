"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordim


@pytest.fixture
def fresh_python():
    """Run code in a new interpreter that imports this checkout's ordim."""
    src = str(Path(ordim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(code, *flags):
        return subprocess.run([sys.executable, *flags, "-c", code],
                              capture_output=True, text=True, env=env, timeout=120)

    return run
