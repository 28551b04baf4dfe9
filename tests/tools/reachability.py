"""Which functions under ``src/repro`` does anything run?

Runs two kinds of process under a function-granularity profiler and
sorts every function defined under ``src/repro`` by what reached it:

* *traffic* — the four ``bench/run.py`` workloads (seed 7, 3 s each,
  ``--trace 0`` and ``--trace 1``), the ``examples/``, the CLI
  subcommands, and the ``benchmarks/`` suite (``--benchmark-disable``,
  run from a copy so the result files it writes stay out of the tree);
* *tests* — the tier-1 suite, ``pytest`` over ``tests/``.

A function is reached by *traffic* when a traffic process called it, by
*tests only* when only the tier-1 suite did, and by *nothing* otherwise::

    python tests/tools/reachability.py [--out DIR] [--check]

writes ``DIR/reachability.json`` and ``DIR/reachability.txt`` (default
``build/reachability``) plus one log per process under ``DIR/logs``.
``--check`` exits 1 when a function is reached by nothing, except
``__repr__`` / ``__str__`` and abstract stubs (a body of only a
docstring, ``...`` or ``raise NotImplementedError``). A process that
exits non-zero is reported, not fatal: a wall-clock floor in
``benchmarks/`` can fail on a loaded machine, and what that process
reached still counts.

How the collector sees every call:

* Every process, including each subprocess a test or the CLI starts,
  imports a generated ``sitecustomize`` that installs one profile hook
  with ``sys.setprofile`` and ``threading.setprofile``, so threads
  started later carry it too.
* ``sys.setprofile`` is replaced by a guard that keeps the hook
  installed. pytest-benchmark clears the profiler around every timed
  call, and code run in that window would otherwise go unseen.
* A process writes what it saw when it exits. A forked
  ``multiprocessing`` worker leaves through ``os._exit`` and never runs
  ``atexit``, so each fork registers the same dump as a multiprocessing
  finalizer, which the worker's bootstrap runs on its way out.
* The dump uninstalls the hook before it copies the set of code
  objects; its own calls would otherwise grow the set while it is read.

Functions are matched to their definitions by file, first line (the
first decorator's, as a code object counts it) and name.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src"

#: Where a profiled process writes its dump, and the directory whose
#: files it keeps (every other file's code objects are dropped).
ENV_DIR = "REPRO_REACHABILITY_DIR"
ENV_ROOT = "REPRO_REACHABILITY_ROOT"

#: Seconds any one profiled process may take.
TIMEOUT = 1800

SITECUSTOMIZE = """\
import os
if os.environ.get({env_dir!r}):
    import importlib.util
    _spec = importlib.util.spec_from_file_location("_reachability", {tool!r})
    _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    _module.install(os.environ[{env_dir!r}], os.environ[{env_root!r}])
"""


# ----------------------------------------------------------------------
# The collector (runs inside every profiled process)
# ----------------------------------------------------------------------
def install(out_dir: str, root: str) -> None:
    """Record every function this process calls from now on; write the
    ones defined under ``root`` to ``out_dir`` when the process ends."""
    import atexit
    import threading

    codes: set = set()
    add = codes.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    real_setprofile = sys.setprofile

    def keep_hook(func):
        real_setprofile(hook)

    def dump():
        real_setprofile(None)
        threading.setprofile(None)
        snapshot = list(codes)
        by_file: dict[str, list] = {}
        for code in snapshot:
            by_file.setdefault(code.co_filename, []).append(code)
        prefix = os.path.join(os.path.realpath(root), "")
        rows = []
        for filename, group in by_file.items():
            path = os.path.realpath(filename)
            if path.startswith(prefix):
                rel = path[len(prefix):].replace(os.sep, "/")
                rows.extend([rel, code.co_firstlineno, code.co_name] for code in group)
        name = f"{os.getpid()}-{time.time_ns()}.json"
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
            json.dump(rows, handle)

    armed = []

    def before_fork():
        util = sys.modules.get("multiprocessing.util")
        if util is not None and not armed:
            armed.append(True)
            util.register_after_fork(
                dump, lambda _: util.Finalize(None, dump, exitpriority=0)
            )

    os.makedirs(out_dir, exist_ok=True)
    sys.setprofile = keep_hook
    threading.setprofile(hook)
    real_setprofile(hook)
    atexit.register(dump)
    os.register_at_fork(before=before_fork)


def reached_keys(out_dir: pathlib.Path) -> set[tuple[str, int, str]]:
    """Every ``(file, first line, name)`` the dumps in ``out_dir`` hold."""
    keys: set[tuple[str, int, str]] = set()
    for path in out_dir.glob("*.json"):
        keys.update(tuple(row) for row in json.loads(path.read_text()))
    return keys


def run_profiled(
    argv: list[str],
    *,
    cwd: pathlib.Path,
    root: pathlib.Path,
    out_dir: pathlib.Path,
    log: pathlib.Path,
) -> int:
    """Run ``argv`` with the collector in it and every process it starts;
    dumps go to ``out_dir``, output to ``log``. Returns the exit code."""
    hook_dir = out_dir.parent / "_hook"
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(
            env_dir=ENV_DIR, env_root=ENV_ROOT, tool=str(pathlib.Path(__file__).resolve())
        )
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(SOURCE)])
    env[ENV_DIR] = str(out_dir)
    env[ENV_ROOT] = str(root)
    with open(log, "w", encoding="utf-8") as handle:
        try:
            return subprocess.run(
                argv, cwd=cwd, env=env, stdout=handle, stderr=subprocess.STDOUT,
                timeout=TIMEOUT,
            ).returncode
        except subprocess.TimeoutExpired:
            handle.write(f"\ntimed out after {TIMEOUT} s\n")
            return -1


# ----------------------------------------------------------------------
# Definitions
# ----------------------------------------------------------------------
def defined_functions(root: pathlib.Path) -> list[dict]:
    """Every ``def`` in the ``.py`` files under ``root``, nested ones and
    methods included, with the line a code object reports for it."""
    functions: list[dict] = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        _collect(tree, path.relative_to(root).as_posix(), [], functions)
    return functions


def _collect(node, rel: str, scope: list[str], out: list[dict]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            out.append({
                "file": rel,
                "line": first,
                "name": child.name,
                "qualname": ".".join(scope + [child.name]),
                "lines": child.end_lineno - first + 1,
                "exempt": _exemption(child),
            })
            _collect(child, rel, scope + [child.name], out)
        elif isinstance(child, ast.ClassDef):
            _collect(child, rel, scope + [child.name], out)
        else:
            _collect(child, rel, scope, out)


def _exemption(node) -> str | None:
    """Why ``--check`` may let this function go unreached, if it may."""
    if node.name in ("__repr__", "__str__"):
        return "repr"
    body = list(node.body)
    if body and _is_docstring(body[0]):
        body = body[1:]
    if not body or (len(body) == 1 and _is_stub_statement(body[0])):
        return "stub"
    return None


def _is_docstring(statement) -> bool:
    return (
        isinstance(statement, ast.Expr)
        and isinstance(statement.value, ast.Constant)
        and isinstance(statement.value.value, str)
    )


def _is_stub_statement(statement) -> bool:
    if isinstance(statement, ast.Expr):
        return isinstance(statement.value, ast.Constant) and statement.value.value is ...
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        exc = statement.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def classify(
    functions: list[dict],
    traffic: set[tuple[str, int, str]],
    tests: set[tuple[str, int, str]],
) -> None:
    """Set each function's ``reached`` to traffic, tests or nothing."""
    for function in functions:
        key = (function["file"], function["line"], function["name"])
        if key in traffic:
            function["reached"] = "traffic"
        elif key in tests:
            function["reached"] = "tests"
        else:
            function["reached"] = "nothing"
        function["tier1"] = key in tests


# ----------------------------------------------------------------------
# The processes
# ----------------------------------------------------------------------
_QUERY = "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 45"
_BAND_JOIN = (
    "SELECT SUM(sales.s_price) AS r FROM sales, item, promotion"
    " WHERE promotion.p_lo <= sales.s_price AND sales.s_price < promotion.p_hi"
    " AND promotion.p_kind = 1 AND item.i_attr BETWEEN 10 AND 40"
)
_FEEDBACK_STORE = (
    "from repro.feedback import FeedbackStore\n"
    "store = FeedbackStore()\n"
    "for rows in (42.0, 40.0):\n"
    "    store.record('epoch=1', tables=('lineitem',), predicate_key='smoke',\n"
    "                 observed_rows=rows, estimated_rows=7.0)\n"
    "store.save('feedback.json')\n"
)


def _cli_runs() -> list[list[str]]:
    """The CLI invocations, in order: later ones read earlier outputs."""
    sql = ["--scale", "8000", "--sample-size", "200"]
    runs = [["analyze", "--figure", str(figure)] for figure in range(1, 9)]
    runs[4].append("--chart")
    runs += [
        ["experiment", "exp1", "--scale", "8000", "--seeds", "2", "--points", "3",
         "--workers", "2", "--perf", "--policy", "expected:16",
         "--trace-out", "exp1.jsonl", "--metrics-out", "exp1.prom"],
        ["experiment", "exp2", "--scale", "8000", "--seeds", "2", "--points", "3",
         "--policy", "cvar:0.9:16"],
        ["experiment", "exp3", "--scale", "2000", "--seeds", "2", "--points", "3",
         "--policy", "bayes", "--trace"],
        ["report", "--output", "report.md", "--scale", "6000", "--fact-rows", "5000",
         "--seeds", "2"],
    ]
    for policy in (None, "95", "histogram", "bayes", "exact", "cvar:0.9", "expected:24"):
        runs.append(["sql", _QUERY, *sql] + (["--policy", policy] if policy else []))
    runs += [
        ["sql", "SELECT COUNT(*) FROM fact, dim1 WHERE dim1.d_attr < 100",
         "--workload", "star", *sql, "--trace-out", "sql.jsonl"],
        ["sql", _BAND_JOIN, "--workload", "snowflake", *sql, "--explain-only",
         "--metrics-out", "sql.prom"],
        ["sql", "SELEC x FROM lineitem", *sql],
        ["trace", "summarize", "exp1.jsonl"],
        ["trace", "summarize", "sql.jsonl", "--query", "sql/star"],
        ["chaos", "--plans", "4", "--scale", "1500", "--verbose"],
        ["serve-bench", "--tenants", "2", "--operations", "300", "--scale", "2000",
         "--sample-size", "64", "--swaps", "1", "--scaling", "--json-out",
         "serving.json"],
        ["feedback", "report", "feedback.json"],
        ["feedback", "report", "feedback.json", "--json"],
        ["feedback", "reset", "feedback.json"],
    ]
    return runs


def traffic_sources(work: pathlib.Path) -> list[tuple[str, list[str], pathlib.Path]]:
    """``(label, argv, cwd)`` of every traffic process, in run order."""
    python = sys.executable
    sources = []
    for workload in ("plan_cold", "exec_scale", "served_hot", "feedback_churn"):
        for trace in ("0", "1"):
            sources.append((
                f"bench {workload} --trace {trace}",
                [python, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "3", "--trace", trace],
                work,
            ))
    for example in sorted((ROOT / "examples").glob("*.py")):
        sources.append((f"example {example.name}", [python, str(example)], work))
    sources.append(("feedback store", [python, "-c", _FEEDBACK_STORE], work))
    for argv in _cli_runs():
        label = "repro " + " ".join(arg if len(arg) < 24 else arg[:21] + "..." for arg in argv)
        sources.append((label, [python, "-m", "repro", *argv], work))
    sources.append((
        "pytest benchmarks --benchmark-disable",
        [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks",
         "--benchmark-disable"],
        work,
    ))
    return sources


def collect(out: pathlib.Path) -> tuple[set, set, list[dict]]:
    """Run every process; the traffic keys, the tier-1 keys, and one
    ``{label, kind, returncode, seconds}`` per process."""
    raw = out / "raw"
    shutil.rmtree(raw, ignore_errors=True)
    (out / "logs").mkdir(parents=True, exist_ok=True)
    runs = []
    keys = {"traffic": set(), "tests": set()}
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        work = pathlib.Path(scratch)
        # benchmarks/ imports helpers from tests/ and registers its
        # markers in pyproject.toml.
        for name in ("benchmarks", "tests"):
            shutil.copytree(ROOT / name, work / name)
        shutil.copy(ROOT / "pyproject.toml", work)
        sources = [("traffic", *s) for s in traffic_sources(work)]
        sources.append((
            "tests", "pytest tests (tier-1)",
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"], ROOT,
        ))
        for index, (kind, label, argv, cwd) in enumerate(sources):
            started = time.perf_counter()
            dumps = raw / f"{index:02d}"
            code = run_profiled(
                argv, cwd=cwd, root=SOURCE, out_dir=dumps,
                log=out / "logs" / f"{index:02d}.log",
            )
            seconds = time.perf_counter() - started
            keys[kind] |= reached_keys(dumps)
            runs.append({"label": label, "kind": kind, "returncode": code,
                         "seconds": round(seconds, 1), "log": f"logs/{index:02d}.log"})
            print(f"{code:>4} {seconds:>7.1f}s  {label}", flush=True)
    return keys["traffic"], keys["tests"], runs


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
def summary(functions: list[dict]) -> dict:
    def count(predicate):
        return sum(1 for f in functions if predicate(f))

    return {
        "defined": len(functions),
        "traffic": count(lambda f: f["reached"] == "traffic"),
        "tier1": count(lambda f: f["tier1"]),
        "tests_only": count(lambda f: f["reached"] == "tests"),
        "nothing": count(lambda f: f["reached"] == "nothing"),
        "nothing_exempt": count(lambda f: f["reached"] == "nothing" and f["exempt"]),
    }


def unreached(functions: list[dict]) -> list[dict]:
    """What ``--check`` fails on."""
    return [f for f in functions if f["reached"] == "nothing" and not f["exempt"]]


def render(functions: list[dict], runs: list[dict]) -> str:
    counts = summary(functions)
    lines = [
        f"src/repro defines {counts['defined']} functions",
        f"  reached by traffic     {counts['traffic']:>6}",
        f"  reached by tier-1      {counts['tier1']:>6}",
        f"  reached by tests only  {counts['tests_only']:>6}",
        f"  reached by nothing     {counts['nothing']:>6}"
        f"  ({counts['nothing_exempt']} exempt: __repr__/__str__ or stub)",
    ]
    for kind, title in (("tests", "reached by tests only"), ("nothing", "reached by nothing")):
        rows = [f for f in functions if f["reached"] == kind]
        lines += ["", f"{title} ({len(rows)}):"]
        for f in rows:
            note = f"  [{f['exempt']}]" if f["exempt"] else ""
            lines.append(
                f"  {f['file']}:{f['line']:<5} {f['qualname']} ({f['lines']} lines){note}"
            )
    lines += ["", "processes (exit code, seconds, what):"]
    lines += [f"  {r['returncode']:>4} {r['seconds']:>7.1f}  {r['kind']}: {r['label']}"
              for r in runs]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=pathlib.Path, default=ROOT / "build" / "reachability",
        help="report directory (default: build/reachability)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if a function is reached by nothing",
    )
    args = parser.parse_args(argv)
    out = args.out.resolve()
    traffic, tests, runs = collect(out)
    functions = defined_functions(SOURCE)
    classify(functions, traffic, tests)
    report = {"summary": summary(functions), "processes": runs, "functions": functions}
    (out / "reachability.json").write_text(json.dumps(report, indent=1) + "\n")
    text = render(functions, runs)
    (out / "reachability.txt").write_text(text)
    print(text.split("\n\n", 1)[0])
    print(f"report written to {out}")
    missing = unreached(functions)
    if args.check and missing:
        print(f"FAIL: {len(missing)} functions are reached by nothing:")
        for f in missing:
            print(f"  {f['file']}:{f['line']} {f['qualname']}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
