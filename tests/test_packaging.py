"""A built install carries every bundled data file and exports exactly the
public names README documents, no module keeps a process-global memo,
start-up does not load the count tables, and the package loads a public
name's module only when the name is used."""

import ast
import fnmatch
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import multiscore

ROOT = Path(__file__).resolve().parents[1]


def test_every_data_file_is_package_data():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["multiscore"]
    package = ROOT / "src" / "multiscore"
    files = [p.relative_to(package).as_posix() for p in (package / "data").rglob("*") if p.is_file()]
    assert files
    missed = [f for f in files if not any(fnmatch.fnmatchcase(f, g) for g in globs)]
    assert not missed, f"not in package-data {globs}: {missed}"


def readme_public_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.M)
    return [name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet)]


def test_all_is_exactly_the_readme_public_api():
    documented = readme_public_names()
    assert len(documented) == len(set(documented)), "README names an export twice"
    assert sorted(multiscore.__all__) == sorted(documented)
    assert len(multiscore.__all__) == len(set(multiscore.__all__))
    for name in multiscore.__all__:
        assert hasattr(multiscore, name), name


def test_only_the_package_declares_public_names():
    for info in pkgutil.iter_modules(multiscore.__path__):
        module = importlib.import_module(f"multiscore.{info.name}")
        assert not hasattr(module, "__all__"), f"multiscore.{info.name} defines __all__"


def test_no_module_memoizes_with_functools():
    # process-global memos outlive an evaluation; caches belong to the
    # objects of one run
    banned = {"lru_cache", "cache"}
    found = []
    for path in sorted((ROOT / "src" / "multiscore").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {"functools"} | {
            a.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
            for a in node.names if a.name == "functools" and a.asname
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}:{node.lineno}" for a in node.names if a.name in banned]
            elif (isinstance(node, ast.Attribute) and node.attr in banned
                  and isinstance(node.value, ast.Name) and node.value.id in aliases):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"functools memo in {found}"


def loaded_modules(statement):
    """The package modules a fresh interpreter has loaded after running
    ``statement``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = f"import sys; {statement}; print(sorted(m for m in sys.modules if m.startswith('multiscore')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out)


def test_start_up_does_not_load_the_count_tables():
    # every command imports multiscore.cli first; the table module is
    # imported inside the functions that count, so a command that counts
    # nothing does not pay for it
    loaded = loaded_modules("import multiscore.cli")
    assert "multiscore.cli" in loaded
    assert "multiscore.table" not in loaded


def test_start_up_loads_exactly_the_modules_commands_need():
    # the package imports nothing itself, and the CLI's own imports load
    # the modules every command needs, no more and no fewer
    assert loaded_modules("import multiscore.cli") == [
        "multiscore", "multiscore.assignment", "multiscore.cli", "multiscore.corpus", "multiscore.decoding",
        "multiscore.metrics", "multiscore.multiscore", "multiscore.report", "multiscore.text",
    ]


def test_importing_the_matcher_loads_only_the_matcher():
    # a user with a metric of their own pays for no other module
    loaded = loaded_modules("from multiscore import max_weight_matching")
    assert loaded == ["multiscore", "multiscore.assignment"]


def test_every_public_name_resolves_and_is_listed():
    for name in multiscore.__all__:
        value = getattr(multiscore, name)
        assert value.__module__.startswith("multiscore."), name
    assert set(multiscore.__all__) <= set(dir(multiscore))
    with pytest.raises(AttributeError, match="no_such_name"):
        multiscore.no_such_name
