"""The package's layout: what a module may import, and what README
promises to export."""

import ast
import re
from pathlib import Path

import morphauto

ROOT = Path(__file__).resolve().parent.parent


def _package_imports(path):
    # every import statement of the module that names a morphauto module,
    # relative imports included
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "morphauto":
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Import):
            found += [ast.unparse(node) for a in node.names if a.name.split(".")[0] == "morphauto"]
    return found


def test_linalg_imports_nothing_from_the_package():
    # linalg takes matrices as tuples of rows; it knows no morphism
    assert _package_imports(ROOT / "src" / "morphauto" / "linalg.py") == []


def test_import_check_sees_relative_and_absolute_imports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import math\nfrom . import words\nfrom .words import Morphism\n"
        "import morphauto.words\nfrom morphauto import linalg\nfrom fractions import Fraction\n",
        encoding="utf-8",
    )
    assert len(_package_imports(module)) == 4


def test_readme_lower_level_pieces_resolve():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Lower-level pieces are exported too:(.*?`)\.\s", text, re.S)
    assert listed is not None
    names = re.findall(r"`([^`]+)`", listed.group(1))
    assert "Morphism.incidence" in names and "char_poly" in names
    for name in names:
        head, *rest = name.split(".")
        assert head in morphauto.__all__, name
        obj = getattr(morphauto, head)
        for attr in rest:
            obj = getattr(obj, attr)
