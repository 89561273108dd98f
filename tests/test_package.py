import importlib
import pkgutil

import heatforms


def test_every_exported_name_resolves():
    """Every name in the package's __all__ and in each submodule's must
    exist, so that deleting a function cannot leave its export behind."""
    names = ["heatforms"] + [f"heatforms.{m.name}"
                             for m in pkgutil.iter_modules(heatforms.__path__)]
    assert "heatforms.quadrature" in names
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert missing == []
