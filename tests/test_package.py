"""The package root: its public names, and its version."""

import re
from pathlib import Path

import frogpr
from frogpr import ambiguity, analytic, circles, errors, frog, jsonio, recovery, spectral

MODULES = (ambiguity, analytic, circles, errors, frog, jsonio, recovery, spectral)


def test_the_root_exports_each_modules_public_names_once():
    assert frogpr.__all__ == [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert len(set(frogpr.__all__)) == len(frogpr.__all__)
    star = {}
    exec("from frogpr import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(frogpr.__all__)
    # Each module names only what it defines, and the root binds that same object.
    for module in MODULES:
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, name
            assert star[name] is getattr(module, name), name


def test_the_version_is_the_projects():
    # A regex, since Python 3.10 has no tomllib.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]*)"$', text, re.MULTILINE).group(1) == frogpr.__version__
