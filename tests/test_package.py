"""The package surface: ``icdms`` exports what its modules declare public."""

import ast
from pathlib import Path

import pytest

import icdms
from icdms import ChannelParams, default_grid, discrete, gaussian, geometry, oracle

MODULES = (discrete, gaussian, geometry, oracle)
SOURCES = sorted(Path(icdms.__file__).parent.glob("*.py"))


def test_all_is_the_version_and_the_modules_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)  # each name declared in one module
    assert icdms.__all__ == ["__version__", *names]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_name_is_the_modules_own_object(module):
    for name in module.__all__:
        assert getattr(icdms, name) is getattr(module, name), name


def test_sample_cap_error_is_importable_where_it_is_raised():
    ch = ChannelParams(p1=6.0, p2=6.0, c12=0.0, c21=0.3)
    with pytest.raises(icdms.SampleCapError):
        icdms.sweep_gaussian(ch, default_grid("g_sp1"), "g_sp1", r1_step=1e-7)


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names that ``tree`` imports but neither reads nor lists in ``__all__``;
    ``from __future__ import ...`` and star imports bind nothing to read."""
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_reads(path):
    assert _unread_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unread_import_rule_sees_a_name_read_only_in_a_docstring():
    tree = ast.parse(
        'from __future__ import annotations\n'
        'import math\nfrom os import path as p, sep\n'
        '__all__ = ["sep"]\n'
        'def f():\n    """Uses ``math``."""\n    return p\n'
    )
    assert _unread_imports(tree) == ["math"]
