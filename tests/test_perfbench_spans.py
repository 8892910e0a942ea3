"""The names the benchmark's tracer wraps must exist on the package.

``perfbench/spans.py`` replaces functions and methods by name.  A renamed or
deleted function, or a method that a class only inherits, would otherwise
pass these tests and fail only in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans",
    Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def package_module(name):
    return importlib.import_module(f"qgollnitz.{name}")


@pytest.mark.parametrize("span, mod, cls_name, attr", spans.METHODS)
def test_traced_method_is_defined_on_its_class(span, mod, cls_name, attr):
    cls = getattr(package_module(mod), cls_name)
    assert callable(vars(cls).get(attr)), f"{cls_name}.{attr} for {span}"


@pytest.mark.parametrize("span, mod, attr", spans.FUNCTIONS)
def test_traced_function_resolves(span, mod, attr):
    assert callable(getattr(package_module(mod), attr, None)), \
        f"{mod}.{attr} for {span}"


@pytest.mark.parametrize("span, mod, attr", spans.GENERATORS)
def test_traced_generator_resolves(span, mod, attr):
    fn = getattr(package_module(mod), attr, None)
    assert inspect.isgeneratorfunction(fn), f"{mod}.{attr} for {span}"
