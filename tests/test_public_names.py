"""Every public name of `src/pss` has a user in the program or the benchmark.

A name in a module's `__all__` that only the tests call is code the
command line, the benchmark and the reports do not need; tests keep their
own references in `tests/references.py` instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _loaded_names(tree, skip=None):
    """Names read in `tree`, as a bare name, an attribute or an import, outside the node `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return out


def _definition(tree, name):
    """The top-level statement that defines `name` (a def, a class or an assignment)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return node
    return None


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def unused_public_names(root=ROOT):
    """(module, name) for every `__all__` name of src/pss read nowhere in src/pss or bench
    but in its own definition."""
    paths = sorted((root / "src" / "pss").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}
    everywhere = {p: _loaded_names(tree) for p, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        others = set().union(*(names for p, names in everywhere.items() if p != path))
        for name in _exported(tree):
            own = _loaded_names(tree, skip=_definition(tree, name))
            if name not in own and name not in others:
                unused.append((path.stem, name))
    return unused


def test_every_public_name_has_a_user_outside_the_tests():
    assert unused_public_names() == []


def test_the_scan_finds_a_name_only_its_own_definition_reads(tmp_path):
    (tmp_path / "src" / "pss").mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    (tmp_path / "src" / "pss" / "m.py").write_text(
        '__all__ = ["used", "recursive", "CONST", "Cls"]\n'
        "CONST = 1\n\n\n"
        "def used():\n    return CONST\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else Cls\n\n\n"
        "class Cls:\n    pass\n"
    )
    (tmp_path / "bench" / "b.py").write_text("from pss.m import used\n\nused()\n")
    assert unused_public_names(tmp_path) == [("m", "recursive")]
