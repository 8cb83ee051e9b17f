"""Shared fixtures.  Each mutant corpus is checked once per test session and
its report shared by every test that inspects mutants."""

from __future__ import annotations

import gc
import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import golden  # noqa: E402


@pytest.fixture(scope="session")
def mutant_reports(tmp_path_factory):
    """Mutant file -> ``CorpusReport`` of the corpus carrying that mutant."""
    return {
        mutant: golden.run_mutant(mutant, base, tmp_path_factory.mktemp(mutant))
        for mutant, base, _ in golden.mutant_index()
    }


def _perfbench_module(name: str):
    """A module of the benchmark, loaded from its file, not edited."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def perfbench_inputs():
    """The benchmark's input generators."""
    return _perfbench_module("inputs")


@pytest.fixture(scope="session")
def perfbench_spans():
    """The benchmark's tracer, with the list of functions it wraps."""
    return _perfbench_module("spans")


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that ends with the cyclic collector disabled, where it
    happens, rather than as a slower session that leaks cycles from then on."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
