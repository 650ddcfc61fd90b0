"""Static scans: every name that a module under src/ or tests/ imports is
used in it, every field of a record class (a dataclass or a NamedTuple)
under src/ is read as an attribute somewhere in src/, tests/ or bench/, and
family ids are validated only by catalog.deformation.  One run of a fresh
interpreter checks what importing the library loads."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _imported(tree):
    """(bound name, line) per imported name; __future__ imports are compiler
    directives, not names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used(tree) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns] + [a.annotation for a in ast.walk(node.args)
                                            if isinstance(a, ast.arg)]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            annotations = []
        # a quoted annotation names what it uses inside the string
        for ann in filter(None, annotations):
            for leaf in ast.walk(ann):
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    used |= _used(ast.parse(leaf.value, mode="eval"))
        # names re-exported through __all__ count as used
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def test_no_unused_imports_in_src_and_tests():
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in _imported(tree) if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _record_fields(tree):
    """(class, field, line) per annotated field of a record class: one
    decorated with @dataclass or one whose bases include NamedTuple."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [dec.func if isinstance(dec, ast.Call) else dec
                      for dec in node.decorator_list]
        if ("dataclass" in map(_name, decorators)
                or "NamedTuple" in map(_name, node.bases)):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id, stmt.lineno


def test_every_record_field_is_read():
    read, fields = set(), []
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            read |= {n.attr for n in ast.walk(tree)
                     if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
            if top == "src":
                fields += [(path, *f) for f in _record_fields(tree)]
    assert fields
    dead = [f"{path.relative_to(ROOT)}:{line}: {cls}.{name}"
            for path, cls, name, line in fields if name not in read]
    assert not dead, "record fields never read:\n" + "\n".join(dead)


def test_only_the_catalog_validates_family_ids():
    sources = {path.name: path.read_text() for path in (ROOT / "src").rglob("*.py")}
    assert "unknown deformation" in sources["catalog.py"]
    assert [name for name, text in sources.items()
            if "unknown deformation" in text and name != "catalog.py"] == []
    assert [name for name, text in sources.items() if 'getattr(d, "id", d)' in text] == []


def test_importing_the_library_loads_no_heavy_stdlib_modules():
    """dataclasses pulls in inspect, ast, dis and tokenize, and argparse pulls
    in gettext; only main needs argparse.  -S keeps site's imports out."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import mbraid, mbraid.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'argparse'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
