"""Every example script still imports against the library.

Each file is loaded under a module name other than ``__main__``, so its
``if __name__ == "__main__"`` guard keeps ``main()`` from running; only the
imports and top-level definitions execute.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path, monkeypatch):
    name = f"examples_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their module through sys.modules while the file runs.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
