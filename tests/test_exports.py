import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import damplab
from damplab import errors

MODULES = sorted(info.name for info in pkgutil.iter_modules(damplab.__path__))
SOURCES = {
    path.stem: path.read_text() for path in Path(damplab.__file__).parent.glob("*.py")
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"damplab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_load_through_module_getattr(monkeypatch):
    modules = {name: importlib.import_module(f"damplab.{name}") for name in damplab.__all__}
    # Without the bindings that loading a submodule leaves on the package,
    # every lookup goes through its __getattr__, as in a fresh interpreter.
    for name in modules:
        monkeypatch.delattr(damplab, name)
    namespace = {}
    exec("from damplab import *", namespace)
    assert {name: namespace[name] for name in modules} == modules
    assert {name: getattr(damplab, name) for name in modules} == modules
    assert set(modules) <= set(dir(damplab))


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'sweep'"):
        damplab.sweep


def test_every_error_class_is_used_outside_errors():
    classes = [
        cls.__name__
        for cls in vars(errors).values()
        if inspect.isclass(cls) and cls.__module__ == errors.__name__
    ]
    unused = [
        name
        for name in classes
        if not any(
            re.search(rf"\b{name}\b", text)
            for stem, text in SOURCES.items()
            if stem != "errors"
        )
    ]
    assert classes
    assert unused == []
