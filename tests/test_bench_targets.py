"""Every call the traced benchmark run wraps must exist in the program.

benchmarks/bench_trace.py installs its spans with `vars(owner)[attr]`, so a
renamed or deleted function would otherwise show only as a crash of a traced
benchmark run.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "benchmarks"))

import bench_trace  # noqa: E402


@pytest.mark.parametrize(
    "owner, attr, name", bench_trace.TARGETS, ids=[t[2] for t in bench_trace.TARGETS]
)
def test_trace_target_resolves(owner, attr, name):
    assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"
    assert callable(vars(owner)[attr])
