"""numpy stays the only runtime dependency: the package imports nothing else
outside the standard library. No module but `sampler` uses `upsample`, as the
README says no training or inference step calls it. The README's layout
table lists every module, and its `.gpsb` format version is the one the
buffer writes."""

import ast
import re
import sys
from pathlib import Path

from gpsbench import buffer

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gpsbench"
ALLOWED = sys.stdlib_module_names | {"numpy"}


def foreign_imports(source):
    """The absolute imports in `source` whose top-level package is neither
    numpy nor standard library; relative imports are the package's own."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.partition(".")[0] not in ALLOWED]


def test_package_imports_only_numpy_and_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {m.name: foreign_imports(m.read_text(encoding="utf-8")) for m in modules}
    assert {name: bad for name, bad in found.items() if bad} == {}


def upsample_uses(source):
    """Line numbers of the imports of, and the names and attributes that
    refer to, `upsample` in `source`; docstrings and comments do not count."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if "upsample" in names:
            lines.append(node.lineno)
    return lines


def test_no_module_but_the_sampler_uses_upsample():
    # the check sees both forms of a use
    assert upsample_uses("from .sampler import gps_sample, upsample\n") == [1]
    assert upsample_uses("x = sampler.upsample(y, 2)\n") == [1]
    found = {m.name: upsample_uses(m.read_text(encoding="utf-8"))
             for m in sorted(PACKAGE.glob("*.py")) if m.name != "sampler.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_readme_layout_table_lists_every_module():
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    layout = readme.split("## Layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `gpsbench\.(\w+)` \|", layout, flags=re.MULTILINE)
    modules = [m.stem for m in PACKAGE.glob("*.py") if m.stem != "__init__"]
    assert sorted(listed) == sorted(modules)
    assert len(listed) == len(set(listed))


def test_readme_snapshot_version_is_the_buffers():
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    versions = re.findall(r"`\.gpsb`, format version (\d+)", readme)
    assert versions == [str(buffer.SNAPSHOT_VERSION)]
