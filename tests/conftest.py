"""Shared fixtures."""

import os
import pathlib

import pytest

import foresthall


@pytest.fixture
def package_env():
    """The environment with PYTHONPATH leading first to the imported
    foresthall, so that a subprocess runs the package under test."""
    src = str(pathlib.Path(foresthall.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env
