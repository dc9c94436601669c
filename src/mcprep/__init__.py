"""Circuits that prepare particle-number-conserving multiconfigurational
states, an exact statevector checker, and the algorithms built on top."""
import importlib.util
import sys

__version__ = "0.1.0"


def _lazy_numpy():
    """numpy, executed at its first attribute access unless already imported.

    The command line then rejects bad input without paying numpy's import.
    This is the ``importlib.util.LazyLoader`` recipe of the importlib docs. A
    numpy that cannot be found, or a ``None`` entry in ``sys.modules``, still
    fails here, at import, with ``ModuleNotFoundError``.
    """
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module
