"""The package's layout: what a module may import, and what README
promises to export and to run."""

import ast
import inspect
import re
from pathlib import Path

import morphauto
from morphauto.cli import corpus_dir

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
    # linalg takes matrices as sparse rows; it knows no morphism
    assert _package_imports(ROOT / "src" / "morphauto" / "linalg.py") == []


def test_import_check_sees_relative_and_absolute_imports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import math\nfrom . import words\nfrom .words import Morphism\n"
        "import morphauto.words\nfrom morphauto import linalg\nfrom fractions import Fraction\n",
        encoding="utf-8",
    )
    assert len(_package_imports(module)) == 4


def _references(tree):
    # the bare names and the attribute names the module reads, except a
    # function's own name inside its own body
    names, attrs = set(), set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = own | {node.name}
        if isinstance(node, ast.Name) and node.id not in own:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in own:
            attrs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(tree, frozenset())
    return names, attrs


def _package_trees():
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in (ROOT / "src" / "morphauto").glob("*.py")
        if path.name != "__init__.py"
    ]


def test_every_exported_function_has_a_caller_in_the_package():
    # a public function that only the tests call belongs in tests/oracles.py
    used = set()
    for tree in _package_trees():
        used |= set().union(*_references(tree))
    functions = [name for name in morphauto.__all__ if inspect.isfunction(getattr(morphauto, name))]
    assert "char_poly" in functions
    assert [name for name in functions if name not in used] == []


def _members_read(trees, exported):
    """Each public method or property of a class named in ``exported``, as
    "Class.name", mapped to whether some attribute reference in ``trees``
    reads its name outside its own body.  A bare name does not count: a
    local variable may share a member's name."""
    attrs = set().union(*(_references(tree)[1] for tree in trees))
    return {
        f"{node.name}.{item.name}": item.name in attrs
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in exported
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    }


def test_every_exported_method_has_a_caller_in_the_package():
    # a public method or property that only the tests read belongs in
    # tests/oracles.py, as a function
    members = _members_read(_package_trees(), set(morphauto.__all__))
    assert members["Morphism.incidence"]
    assert [name for name, read in members.items() if not read] == []


def test_method_check_reads_attribute_references_only():
    # ``unused`` is read only in its own body and as a local variable
    module = ast.parse(
        "class Thing:\n"
        "    def used(self):\n        return 1\n"
        "    @property\n    def unused(self):\n        return self.unused\n"
        "    def _private(self):\n        return 2\n"
        "def caller(thing):\n    unused = thing.used()\n    return unused\n"
    )
    assert _members_read([module], {"Thing"}) == {"Thing.used": True, "Thing.unused": False}


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


def test_readme_stage_list_is_what_analyze_records():
    # README's numbered **stage** list names, in order, every stage that
    # analyze records on the corpus
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^\d+\. \*\*([\w-]+)\*\* - ", text, re.M)
    recorded = {}
    for path in sorted(corpus_dir().glob("*.morph")):
        report = morphauto.analyze(morphauto.parse_morphism(path.read_text(encoding="utf-8")))
        recorded.update(dict.fromkeys(s.name for s in report.stages))
    assert listed == list(recorded)
