"""The benchmark's pinned closed-form expansions, checked in the test suite.

`bench/workloads.py` pins the expansion of every bundled closed form at
order 40 by digest, so a change of the forms or of their chart would
otherwise first show up as a failed benchmark run.  The file is loaded by
path and left as it is.
"""

import importlib.util
import os
import sys

import pytest

from toricres.mirror import yukawa_fixture
from toricres.series import expand_rational

WORKLOADS = os.path.join(os.path.dirname(__file__), "..", "bench",
                         "workloads.py")


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


WL = load_workloads()


@pytest.mark.parametrize("name, k, want", WL.YUKAWA,
                         ids=[f"{n}-{WL._k(k)}" for n, k, _ in WL.YUKAWA])
def test_yukawa_expansion_digest(name, k, want):
    assert WL.YUKAWA_ORDER == 40
    s = expand_rational(yukawa_fixture(name, k), WL.YUKAWA_ORDER)
    assert WL.digest(WL._series_text(s)) == want
