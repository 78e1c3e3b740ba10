"""The library names the benchmark reaches into.

``bench/spans.py`` patches the attributes in its ``BOUNDARIES`` table when
a traced run starts, and ``bench/workloads.py`` calls ``pg.<name>`` on the
package and ``model.<name>`` on a ``GibbsModel``, and passes ``workers=``
to the two experiments.  A rename or deletion in the library must fail
here, not halfway through a benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import polyagibbs

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


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


def _workload_names():
    """(owner, attribute) of every ``pg.<name>`` and ``model.<name>`` read
    in ``bench/workloads.py``."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    return sorted({
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("pg", "model")
    })


def test_workload_names_are_found():
    owners = {owner for owner, _ in _workload_names()}
    assert owners == {"pg", "model"}


@pytest.mark.parametrize("owner,attr", _workload_names())
def test_workload_name_resolves(owner, attr):
    target = polyagibbs if owner == "pg" else polyagibbs.GibbsModel
    assert hasattr(target, attr)


@pytest.mark.parametrize(
    "fn",
    [polyagibbs.remainder_convergence_experiment, polyagibbs.component_count_experiment],
)
def test_experiments_accept_workers(fn):
    assert "workers" in inspect.signature(fn).parameters
