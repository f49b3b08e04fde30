"""The benchmark's tracer (perfbench/tracer.py) wraps program functions by
name.  These checks read its tables and fail here, in the tier-1 suite, when
a traced name is renamed, moved or no longer returns what a hook measures."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

from trielem import cli
from trielem.catalog import build
from trielem.isometry import enumerate_isometries, short_vectors

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def read_literal(path, name):
    """The literal assigned to a module-level name, read without running
    the module."""
    for node in ast.parse(path.read_text()).body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path}")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_module_level_functions():
    tracer = load_tracer()
    for layer, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"trielem.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn) and not isinstance(fn, type), f"{layer}.{name}"
            # defined at module level in that layer, possibly behind a cache
            assert fn.__module__ == module.__name__, f"{layer}.{name}"
            assert fn.__qualname__ == name, f"{layer}.{name}"


def test_aggregated_module_and_cyclotomic_methods_exist():
    tracer = load_tracer()
    importlib.import_module(f"trielem.{tracer.AGGREGATED_MODULE}")
    cls = importlib.import_module("trielem.cyclotomic").Cyclotomic
    assert all(attr in vars(cls) for attr in tracer.CYCLOTOMIC_METHODS)


def test_hooked_results_have_a_length():
    # the tracer counts isometries and vectors with len() on the results
    lat = build("A2")
    isometries = enumerate_isometries(lat)
    assert isinstance(isometries, list) and len(isometries) == 12
    assert isinstance(short_vectors(lat, -2), list)


def test_order3_search_makes_every_required_isometry_call():
    # a search that bypasses a function the benchmark requires fails here,
    # not only in the traced benchmark run
    required = read_literal(PERFBENCH / "run.py", "REQUIRED_CALLS")["order3-search"]
    names = [key.removesuffix(".calls") for key in required if key.startswith("isometry.")]
    lattices = read_literal(PERFBENCH / "workloads.py", "ORDER3_LATTICES")
    tracer = load_tracer()
    modules = tracer.trielem_modules()
    spans = tracer.Tracer(modules, tracer.find_caches(modules))
    spans.install()
    try:
        for expr, found, _ in lattices:
            result = cli.run(["search-order3", "--lattice", expr, "--format", "json"])
            assert json.loads(result.payload)["found"] is found, expr
    finally:
        spans.remove()
    assert names
    assert [name for name in names if not spans.calls[name]] == []
