"""Each test starts without a kept nef partition.

check_nef_partition hands back the process's last partition, residue setup
and all, so a setup built under a monkeypatch or a basis cap in one test
would otherwise reach the next.
"""

import pytest

from toricres import polytope


@pytest.fixture(autouse=True)
def fresh_nef_partition():
    polytope._nef_partition.cache_clear()
