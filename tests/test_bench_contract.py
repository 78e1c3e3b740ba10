"""The library names the benchmark reaches into.

``bench/spans.py`` patches the attributes in its ``BOUNDARIES`` table when
a traced run starts, and ``bench/workloads.py`` passes ``workers=`` to the
two experiments.  A rename or deletion in the library must fail here, not
halfway through a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import polyagibbs

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(home, attr) for home, attr, _, _ in mod.BOUNDARIES]


@pytest.mark.parametrize("home,attr", _boundaries())
def test_span_boundary_resolves(home, attr):
    mod = importlib.import_module(f"polyagibbs.{home}")
    if "." in attr:
        # patched on the class itself, so it must be defined there
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, attr))


@pytest.mark.parametrize(
    "fn",
    [polyagibbs.remainder_convergence_experiment, polyagibbs.component_count_experiment],
)
def test_experiments_accept_workers(fn):
    assert "workers" in inspect.signature(fn).parameters
