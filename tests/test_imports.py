"""Every library module imports on the base install.

numpy is an optional extra (``repro[vector]``): the library falls back
to scalar code without it, so no ``repro`` module may need numpy (or
anything else outside the standard library) just to import.  This walk
imports each module of the package in turn; the CI no-numpy job runs it
with numpy absent.
"""

import importlib
import pkgutil

import pytest

import repro

#: Every module under ``repro`` except the CLI entry point, which runs
#: on import.  A package whose own import fails is still listed (its
#: submodules are not), so the failure surfaces as that package's test.
MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(
        repro.__path__, "repro.", onerror=lambda name: None
    )
    if info.name != "repro.__main__"
)


def test_walk_finds_the_library():
    assert "repro.compiler.policies" in MODULES
    assert "repro.core.replaying" in MODULES
    assert len(MODULES) > 50


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)
