"""A built install carries every bundled data file."""

import fnmatch
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_data_file_is_package_data():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["multiscore"]
    package = ROOT / "src" / "multiscore"
    files = [p.relative_to(package).as_posix() for p in (package / "data").rglob("*") if p.is_file()]
    assert files
    missed = [f for f in files if not any(fnmatch.fnmatchcase(f, g) for g in globs)]
    assert not missed, f"not in package-data {globs}: {missed}"
