"""The benchmark's tracer (perfbench/tracer.py) wraps program functions by
name.  These checks read its tables and fail here, in the tier-1 suite, when
a traced name is renamed, moved or no longer returns what a hook measures."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from trielem import cli
from trielem.catalog import build, parse_expr
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


def workload_sample(workload, directory):
    """A few commands of each benchmark workload, each with fields its JSON
    payload must hold."""
    if workload == "tables":
        # the E6*(3) row builds a lattice through rational_inverse
        return [
            (["table1", "--format", "json"], {}),
            (["verify-pair", "--s", "U(3)+E6*(3)", "--t", "A2(-1)+A2^6", "--format", "json"], {"ok": True}),
            (["lefschetz", "--rho", "8", "--s", "7", "--format", "json"], {}),
        ]
    if workload == "gram-info":
        data = json.loads((PERFBENCH.parent / "goldens" / "dense_bases.json").read_text())["dense_01.json"]
        path = directory / "dense_01.json"
        path.write_text(json.dumps(data))
        return [(["lattice", str(path), "--format", "json"], {"name": data["name"]})]
    # the workload reads each lattice from a JSON file
    sample = []
    for k, (expr, found, _) in enumerate(read_literal(PERFBENCH / "workloads.py", "ORDER3_LATTICES")):
        path = directory / f"o{k:02d}.json"
        gram = [list(row) for row in parse_expr(expr).gram.entries]
        path.write_text(json.dumps({"name": expr, "gram": gram}))
        sample.append((["search-order3", "--lattice", str(path), "--format", "json"], {"found": found}))
    return sample


@pytest.mark.parametrize("workload", ["tables", "gram-info", "order3-search"])
def test_workload_makes_every_required_call(workload, tmp_path):
    # a command path that bypasses a function the benchmark requires, such
    # as a discriminant group that no longer reaches smith_normal_form,
    # fails here, not only in the traced benchmark run
    required = read_literal(PERFBENCH / "run.py", "REQUIRED_CALLS")[workload]
    tracer = load_tracer()
    modules = tracer.trielem_modules()
    caches = tracer.find_caches(modules)
    for cache in caches.values():
        cache.cache_clear()
    spans = tracer.Tracer(modules, caches)
    spans.install()
    try:
        for argv, fields in workload_sample(workload, tmp_path):
            result = cli.run(argv)
            assert result.exit_code == 0, argv
            out = json.loads(result.payload)
            assert all(out[key] == value for key, value in fields.items()), argv
        counts = spans.snapshot()
    finally:
        spans.remove()
    assert required
    assert [key for key in required if not counts[key]] == []
