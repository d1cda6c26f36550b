"""Which functions of the package ever run: a call trace of tier-1, of the
corpus scripts and of one pass of each benchmark workload.

    python3 tests/traffic.py [SEED]

Runs the tier-1 suite, then the scripts of `tests/corpus` through
`cli.run_script`, then one untraced and one traced (TRACE=1) pass of
`perfbench/worker.py` on each workload at SEED (default 7), each in a fresh
interpreter under a `sys.settrace` hook that records every code object it
enters. Then prints each function, method and lambda of `src/motivic` that
no run entered, as `path:line qualified-name`, and their number. Class
bodies and comprehensions are left out. A child interpreter that a test
starts is not traced, so a function that only such a child reaches is
not entered here: each such function is listed in KNOWN with the reason it
is kept, and printed apart with that reason. Last, for information only,
it prints the functions that tier-1 enters and no script or workload
pass does: library surface that only the tests call.

Exits 1 when a function outside KNOWN was never entered (or a run failed),
else 0; the tier-1-only list does not change the exit code. KNOWN is keyed by qualified name, which code objects carry from
Python 3.11 (`co_qualname`); on older versions the names are bare and do
not match. The hook makes the suite several times slower. Only the
standard library is used, besides pytest for the suite.
"""

import inspect
import json
import os
import runpy
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "motivic")
CORPUS = os.path.join(ROOT, "tests", "corpus")
WORKLOADS = ("jet-count", "class-canon", "ring-laws")

# functions kept although no traced run enters them, by qualified name
PICKLED = "pickled only in the child interpreter of %s, which is not traced"
KNOWN = {
    "Record.__reduce__": PICKLED % "tests/test_records.py",
    "Poly.__reduce__": PICKLED % "tests/test_kring.py",
    "Block.__reduce__": PICKLED % "tests/test_kring.py",
}


def counted(code) -> bool:
    """A function, a method or a lambda; not a module, a class body or a
    comprehension."""
    return bool(code.co_flags & inspect.CO_NEWLOCALS) and (
        code.co_name == "<lambda>" or not code.co_name.startswith("<"))


def where(code):
    """(path, first line, qualified name) of a code object."""
    return (os.path.realpath(code.co_filename), code.co_firstlineno,
            getattr(code, "co_qualname", code.co_name))


def defined():
    """`where` of every function compiled from the package's sources."""
    out = set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as f:
            todo = [compile(f.read(), path, "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if inspect.iscode(c))
            if counted(code):
                out.add(where(code))
    return out


def child(out, argv):
    """Run pytest (argv[0] == "pytest"), the corpus scripts (argv[0] ==
    "corpus") or a script under the hook, then write the package functions
    it entered to `out` as JSON."""
    seen = set()

    def hook(frame, event, arg):
        # a global hook that returns None sees only "call" events
        seen.add(frame.f_code)

    sys.settrace(hook)
    try:
        if argv[0] == "pytest":
            import pytest
            code = pytest.main(argv[1:])
        elif argv[0] == "corpus":
            from motivic.cli import run_script
            for name in sorted(os.listdir(CORPUS)):
                if name.endswith(".mot"):
                    with open(os.path.join(CORPUS, name)) as f:
                        run_script(f.read())
            code = 0
        else:
            sys.argv = argv
            runpy.run_path(argv[0], run_name="__main__")
            code = 0
    finally:
        sys.settrace(None)
        entered = sorted({where(c) for c in seen if counted(c)})
        with open(out, "w") as f:
            json.dump([e for e in entered if e[0].startswith(PACKAGE + os.sep)], f)
    return int(code)


def main(argv):
    seed = argv[0] if argv else "7"
    worker = os.path.join(ROOT, "perfbench", "worker.py")
    runs = [["pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"], ["corpus"]]
    runs += [[worker, w, seed, trace] for trace in ("0", "1") for w in WORKLOADS]
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")
               + (os.pathsep + old if old else ""))
    entered = []
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "entered.json")
        for run in runs:
            proc = subprocess.run([sys.executable, os.path.realpath(__file__),
                                   "--child", out] + run, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL)
            print("%s: exit %d" % (" ".join(os.path.basename(a) for a in run),
                                   proc.returncode), file=sys.stderr)
            if proc.returncode:
                return proc.returncode
            with open(out) as f:
                entered.append({tuple(e) for e in json.load(f)})
    tier1, others = entered[0], set().union(*entered[1:])
    never = sorted(defined() - tier1 - others)
    unknown = [e for e in never if e[2] not in KNOWN]
    for path, line, name in unknown:
        print("%s:%d %s" % (os.path.relpath(path, ROOT), line, name))
    print("%d of %d package functions never ran, %d of them with a known reason:"
          % (len(never), len(defined()), len(never) - len(unknown)))
    for path, line, name in never:
        if name in KNOWN:
            print("  %s:%d %s: %s" % (os.path.relpath(path, ROOT), line, name,
                                     KNOWN[name]))
    only = sorted(tier1 - others)
    print("%d package functions run only under tier-1 (information only):"
          % len(only))
    for path, line, name in only:
        print("  %s:%d %s" % (os.path.relpath(path, ROOT), line, name))
    return 1 if unknown else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child(sys.argv[2], sys.argv[3:]))
    sys.exit(main(sys.argv[1:]))
