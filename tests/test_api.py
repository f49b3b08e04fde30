"""The public API: what ``trielem.__all__`` exports, and names removed
from it."""

import inspect
from dataclasses import fields

import trielem
from trielem.lattice import DiscriminantGroup, FiniteQuadraticForm
from trielem.linalg import Matrix, smith_normal_form


def test_every_exported_name_imports_once():
    assert len(trielem.__all__) == len(set(trielem.__all__))
    namespace = {}
    exec("from trielem import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(trielem.__all__)
    assert all(namespace[name] is getattr(trielem, name) for name in trielem.__all__)


def test_removed_names_are_gone():
    # a discriminant group is its integer lifts only, and whether an
    # isometry acts trivially on it is a bool
    assert "DiscriminantAction" not in trielem.__all__
    assert not hasattr(trielem, "DiscriminantAction")
    assert not hasattr(trielem.isometry, "DiscriminantAction")
    assert [f.name for f in fields(DiscriminantGroup)] == ["invariant_factors", "lifts", "order"]
    for name in ("generators", "representative", "coordinates_of", "_coordinate_rows"):
        assert not hasattr(DiscriminantGroup, name), name
    assert not hasattr(FiniteQuadraticForm, "bilinear_values")
    assert list(inspect.signature(smith_normal_form).parameters) == ["a", "modulus"]
    assert not hasattr(Matrix, "row")
