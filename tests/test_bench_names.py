"""The library names that the benchmark's tracer looks up by name.

`bench/tracing.py` wraps `PRIVATE` functions and `METHODS` by name: a
missing method crashes `Tracer.install`, and a missing private function
silently zeroes the per-point residue metric.  The metric names in
`CALLS_AND_SELF`, `HOOKS`, `TOTAL` and the `cli.cmd_<c>` spans are read
the same way: a renamed function zeroes its metric without a word.  The
file is loaded by path and left as it is.
"""

import importlib
import importlib.util
import inspect
import os
import random
import sys

from toricres import cli, mirror
from toricres.laurent import monomial

TRACING = os.path.join(os.path.dirname(__file__), "..", "bench", "tracing.py")


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist(monkeypatch):
    tracing = load_tracing(monkeypatch)
    assert tracing.PRIVATE
    for name in tracing.PRIVATE:
        short, attr = name.split(".")
        module = importlib.import_module("toricres." + short)
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, \
            name
    for short, cls, meth, _ in tracing.METHODS:
        klass = getattr(importlib.import_module("toricres." + short), cls)
        assert callable(getattr(klass, meth, None)), f"{cls}.{meth}"


# names the tracer still lists although the library dropped them
STALE = {"linalg.rref", "linalg.cofactor_nullvector"}


def test_metric_names_exist(monkeypatch):
    tracing = load_tracing(monkeypatch)
    spans = {name for *_, name in tracing.METHODS}
    names = {*tracing.CALLS_AND_SELF, *tracing.HOOKS, *tracing.TOTAL}
    for name in sorted(names - STALE - spans):
        short, attr = name.split(".")
        module = importlib.import_module("toricres." + short)
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, \
            name
    for command in tracing.CLI_COMMANDS:
        handler = getattr(cli, f"cmd_{command}", None)
        assert inspect.isfunction(handler), command
        assert cli._HANDLERS[command] is handler, command


def test_one_residue_value_per_point_row(monkeypatch):
    calls = []
    real = mirror._wps_residue_value

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(mirror, "_wps_residue_value", counted)
    fam = mirror.WpsFamily((1, 1, 1), [(0,), (1, 2)])
    report = mirror.verify_family(fam, 3, P=monomial(3, (1, 1, 0)),
                                  rng=random.Random(0))
    assert report["ok"]
    assert len(calls) == len(report["points"]) == 2
