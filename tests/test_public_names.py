"""Every public name of `src/pss` has a user in the program or the benchmark,
every name the benchmark reads from `src/pss` exists, and every name a
`src/pss` module imports is read there or exported.  Reports keep one
write path: only `cli.run` calls `_emit`, and one function lays out the
text of every JSON document.

A name in a module's `__all__` that only the tests call is code the
command line, the benchmark and the reports do not need; tests keep their
own references in `tests/references.py` instead.  Conversely, a name that
`bench/` reads but `src/pss` no longer has would break the benchmark only
when the code path that reads it runs (the probes run only when traced).
"""

import ast
import json
import os
import subprocess
import sys
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


def unused_imports(root=ROOT):
    """(module, name) for every name a src/pss module imports, at the top or
    in a function, but neither reads anywhere nor lists in its `__all__`."""
    unused = []
    for path in sorted((root / "src" / "pss").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read.update(_exported(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append((path.stem, name))
    return sorted(unused)


def test_every_imported_name_is_read_or_exported():
    assert unused_imports() == []


def test_the_import_scan_finds_a_name_read_nowhere(tmp_path):
    (tmp_path / "src" / "pss").mkdir(parents=True)
    (tmp_path / "src" / "pss" / "m.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "import sys as system\n"
        "from .catalog import Branch, Family, delta\n\n"
        '__all__ = ["delta"]\n\n\n'
        "def f(fam: Family):\n"
        "    from .jets import partials\n\n"
        "    return os.path.join(fam.name)\n"
    )
    assert unused_imports(tmp_path) == [("m", "Branch"), ("m", "partials"), ("m", "system")]


def _callers(tree, match):
    """The innermost function around each call in `tree` that `match`
    accepts, in source order ("<module>" outside every function)."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and match(child):
                out.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return out


def emit_callers(root=ROOT):
    """The functions of cli.py that call `_emit`, the one report writer."""
    path = root / "src" / "pss" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return _callers(tree, lambda call: isinstance(call.func, ast.Name) and call.func.id == "_emit")


def _formats_json(call):
    return (isinstance(call.func, ast.Attribute) and call.func.attr in ("dump", "dumps")
            and any(k.arg == "indent" for k in call.keywords))


def json_formatters(root=ROOT):
    """(module, function) for every json.dump or json.dumps call of src/pss
    that lays out a document (passes `indent`)."""
    out = []
    for path in sorted((root / "src" / "pss").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        out += [(path.stem, where) for where in _callers(tree, _formats_json)]
    return out


def test_the_report_is_written_by_run_alone():
    assert emit_callers() == ["run"]


def test_one_function_lays_out_every_json_document():
    assert json_formatters() == [("immersion", "json_text")]


def test_the_write_path_scans_find_a_second_writer(tmp_path):
    (tmp_path / "src" / "pss").mkdir(parents=True)
    (tmp_path / "src" / "pss" / "cli.py").write_text(
        "def _emit(args, payload):\n    print(payload)\n\n\n"
        "def _cmd(args):\n    _emit(args, {})\n\n\n"
        "def run(argv):\n    def inner():\n        return _emit(argv, {})\n\n    _emit(argv, inner())\n"
    )
    (tmp_path / "src" / "pss" / "m.py").write_text(
        "import json\n\n\n"
        "def text(doc):\n    return json.dumps(doc, indent=2)\n\n\n"
        "def write(doc, fh):\n    json.dump(doc, fh, indent=2, sort_keys=True)\n    return json.dumps(doc)\n"
    )
    assert emit_callers(tmp_path) == ["_cmd", "inner", "run"]
    assert json_formatters(tmp_path) == [("m", "text"), ("m", "write")]


def _is_module(root, dotted):
    """Whether `dotted` (pss or pss.m) is a module of the tree at root."""
    path = root.joinpath("src", *dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def bench_reads(root=ROOT):
    """(bench file, module, name) for every name bench/*.py reads from a pss
    module: `from pss.m import x`, and `m.x` through a pss module it imported."""
    out = []
    for path in sorted((root / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = {}  # local name -> the pss module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "pss":
                for alias in node.names:
                    if _is_module(root, f"{node.module}.{alias.name}"):
                        modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                    else:
                        out.append((path.name, node.module, alias.name))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "pss":
                        modules[alias.asname or "pss"] = alias.name if alias.asname else "pss"

        def module_of(node):
            if isinstance(node, ast.Name):
                return modules.get(node.id)
            if isinstance(node, ast.Attribute):
                base = module_of(node.value)
                if base and _is_module(root, f"{base}.{node.attr}"):
                    return f"{base}.{node.attr}"
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                base = module_of(node.value)
                if base and not _is_module(root, f"{base}.{node.attr}"):
                    out.append((path.name, base, node.attr))
    return sorted(set(out))


# run with the tree's src first on the path, so `pss` is that tree's package
_RESOLVE = """
import importlib, json, sys
missing = []
for where, module, name in json.loads(sys.argv[1]):
    try:
        found = hasattr(importlib.import_module(module), name)
    except ImportError:
        found = False
    if not found:
        missing.append((where, module, name))
print(json.dumps(missing))
"""


def missing_bench_names(root=ROOT):
    """The entries of `bench_reads` that the imported pss modules do not have."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", _RESOLVE, json.dumps(bench_reads(root))],
                          cwd=root, env=env, capture_output=True, text=True, check=True)
    return [tuple(entry) for entry in json.loads(proc.stdout)]


def test_every_name_the_benchmark_reads_exists():
    reads = bench_reads()
    assert ("probes.py", "pss.dual", "seed") in reads and ("worker.py", "pss.cli", "run") in reads
    assert missing_bench_names() == []


def test_the_converse_scan_finds_a_name_the_benchmark_reads_but_pss_lacks(tmp_path):
    (tmp_path / "src" / "pss").mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    (tmp_path / "src" / "pss" / "__init__.py").write_text("")
    (tmp_path / "src" / "pss" / "m.py").write_text("def kept():\n    pass\n")
    (tmp_path / "bench" / "b.py").write_text(
        "import pss.m\n"
        "from pss import m\n"
        "from pss.m import gone, kept\n\n"
        "kept()\nm.kept()\nm.level_of(1)\npss.m.lift_level\n"
    )
    assert missing_bench_names(tmp_path) == [
        ("b.py", "pss.m", "gone"), ("b.py", "pss.m", "level_of"), ("b.py", "pss.m", "lift_level")]
