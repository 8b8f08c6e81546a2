"""Print each line of src/pss that no tier-1 test executes.

    python tests/unrun_lines.py [pytest arguments]

Runs `python -m pytest -q` (tier-1, or the given arguments) from the root of
the checkout with a temporary `sitecustomize.py` first on PYTHONPATH.  It
installs `sys.settrace` in every Python process that starts there, so the
tests that run the CLI in a subprocess count too: it adds its own directory
to the PYTHONPATH of each child that runs `sys.executable`.  Each process
records the (file, line) pairs it executes in src/pss and writes them out
when it exits.  A line counts as executable if the compiler gives it an
instruction.  The output lists, per module, the runs of executable lines
that no process executed, each with its text, then the total.

Standard library only, so it runs where `coverage` is not installed.  The
trace makes the suite about twice as slow; a test that times itself may
fail under it, which the exit status of pytest reports and the line count
does not depend on.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_SITECUSTOMIZE = '''
import atexit, json, os, subprocess, sys, threading

_OUT, _HERE, _PKG = {out!r}, {here!r}, {pkg!r}
_ours, _hits = {{}}, set()


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    mine = _ours.get(name)
    if mine is None:
        mine = _ours[name] = os.path.realpath(name).startswith(_PKG)
    if mine:
        _hits.add((name, frame.f_lineno))
        return _local
    return None


def _dump():
    sys.settrace(None)
    hits = sorted((os.path.realpath(f), n) for f, n in _hits)
    with open(os.path.join(_OUT, f"{{os.getpid()}}.json"), "w") as fh:
        json.dump(hits, fh)


_popen_init = subprocess.Popen.__init__


def _init(self, args, *rest, **kwargs):
    env = kwargs.get("env")
    if env is not None and not isinstance(args, str) and args and args[0] == sys.executable:
        kwargs["env"] = dict(env, PYTHONPATH=os.pathsep.join(filter(None, (_HERE, env.get("PYTHONPATH")))))
    _popen_init(self, args, *rest, **kwargs)


subprocess.Popen.__init__ = _init
atexit.register(_dump)
threading.settrace(_call)
sys.settrace(_call)
'''


def executable_lines(path):
    """The line numbers the compiler gives an instruction in `path`."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(n for _, _, n in code.co_lines() if n is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def runs(numbers):
    """Sorted numbers grouped into runs of consecutive ones."""
    out = []
    for n in sorted(numbers):
        if out and n == out[-1][-1] + 1:
            out[-1].append(n)
        else:
            out.append([n])
    return out


def main(argv):
    pkg = SRC / "pss"
    with tempfile.TemporaryDirectory() as here:
        out = os.path.join(here, "hits")
        os.mkdir(out)
        Path(here, "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(out=out, here=here, pkg=str(pkg.resolve()) + os.sep), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([here, str(SRC)]))
        status = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *argv],
                                cwd=ROOT, env=env).returncode
        hits = set()
        for name in os.listdir(out):
            with open(os.path.join(out, name)) as fh:
                hits.update(map(tuple, json.load(fh)))
    total = 0
    for path in sorted(pkg.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        run = {n for f, n in hits if f == str(path.resolve())}
        missed = executable_lines(path) - run
        total += len(missed)
        for block in runs(missed):
            first = f"src/pss/{path.name}:{block[0]}" + (f"-{block[-1]}" if len(block) > 1 else "")
            print(first)
            for n in block:
                print(f"    {text[n - 1]}")
    print(f"{total} executable lines of src/pss unrun (pytest exit status {status})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
