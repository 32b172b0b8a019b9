"""Golden canonical traces: the bytes a change must keep.

The traces in tests/golden/ were written by tests/golden/make_golden.py.
BLAS kernels are chosen per CPU, so the bytes are compared only on the
numpy, BLAS and CPU they were taken under; elsewhere the test skips and
says why.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.mark.parametrize("case", sorted(make_golden.CASES))
def test_canonical_trace_has_the_golden_bytes(case):
    taken_under = json.loads((GOLDEN / "taken_under.json").read_text())
    here = make_golden.machine()
    if here != taken_under:
        pytest.skip(f"golden traces were taken under {taken_under}, this machine is {here}")
    assert make_golden.canonical_trace(case) == (GOLDEN / f"{case}.json").read_bytes()
