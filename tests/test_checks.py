"""The offline checks live in ``lltkit.checks``: ``lltkit`` exports them on
first access, and the request path does not import them."""

from __future__ import annotations

import ast
import subprocess
import sys

import pytest

import lltkit
from lltkit import bounds, checks


@pytest.mark.parametrize("name", lltkit._CHECKS)
def test_lazy_exports_are_the_checks_objects(name):
    assert getattr(lltkit, name) is getattr(checks, name)
    namespace = {}
    exec(f"from lltkit import {name}", namespace)
    assert namespace[name] is getattr(checks, name)


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_check'"):
        lltkit.no_such_check  # noqa: B018


def test_import_leaves_the_checks_unloaded():
    code = ("import sys, lltkit\n"
            "assert not {'lltkit.checks', 'mpmath'} & set(sys.modules)\n"
            "lltkit.c_hk\n"
            "assert 'lltkit.checks' in sys.modules")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_bounds_imports_no_numpy_at_module_level():
    with open(bounds.__file__, encoding="utf-8") as fobj:
        tree = ast.parse(fobj.read())
    names = [alias.name for node in tree.body if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert not [name for name in names if name and name.split(".")[0] == "numpy"]


def test_calibrated_registry_reads_the_scan_of_the_checks():
    reg = bounds.calibrated_registry(2000)
    assert reg.c0 == 0.19945866546502394
    assert reg.provenance == (
        "c0: exact scan for n <= 2000, max 0.19945866546502394 attained at n = 2000 "
        "(empirical, not certified beyond the scan). ce: 0.56 (user-supplied default).")
    assert reg.c0 == float(checks.calibrate_c0_scan(2000).max())
