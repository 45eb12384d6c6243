"""Shared fixtures: cached workload traces (profiling is the expensive
part, so each workload is profiled once per test session)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.profiler import Trace
from repro.workloads import PAPER_ORDER, create

_TRACE_CACHE = {}


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter on this tree's ``repro``, so
    nothing the test session already imported can mask the result."""
    src = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)


def cached_trace(name: str, **params) -> Trace:
    """Profile ``name`` once per unique parameterization."""
    key = (name, tuple(sorted(params.items())))
    if key not in _TRACE_CACHE:
        workload = create(name, **params)
        _TRACE_CACHE[key] = workload.profile()
    return _TRACE_CACHE[key]


@pytest.fixture(scope="session")
def nvsa_trace() -> Trace:
    return cached_trace("nvsa", seed=0)


@pytest.fixture(scope="session")
def prae_trace() -> Trace:
    return cached_trace("prae", seed=0)


@pytest.fixture(scope="session")
def lnn_trace() -> Trace:
    return cached_trace("lnn", seed=0)


@pytest.fixture(scope="session")
def ltn_trace() -> Trace:
    return cached_trace("ltn", seed=0)


@pytest.fixture(scope="session")
def nlm_trace() -> Trace:
    return cached_trace("nlm", seed=0)


@pytest.fixture(scope="session")
def vsait_trace() -> Trace:
    return cached_trace("vsait", seed=0)


@pytest.fixture(scope="session")
def zeroc_trace() -> Trace:
    return cached_trace("zeroc", seed=0)


@pytest.fixture(scope="session")
def all_traces() -> dict:
    return {name: cached_trace(name, seed=0) for name in PAPER_ORDER}
