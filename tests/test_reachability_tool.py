"""The reachability collector sees calls from threads, process-pool
workers and windows where the profiler was cleared, and reports what
nothing called (``tests/tools/reachability.py``)."""

import ast
import pathlib
import sys

from tests.tools import reachability

FIXTURE = pathlib.Path(__file__).parent / "tools" / "fixture"


def test_collector_sees_threads_workers_and_cleared_profiler(tmp_path):
    dumps = tmp_path / "dumps"
    code = reachability.run_profiled(
        [sys.executable, str(FIXTURE / "target.py")],
        cwd=tmp_path, root=FIXTURE, out_dir=dumps, log=tmp_path / "log",
    )
    assert code == 0, (tmp_path / "log").read_text()
    # The parent and the pool worker each wrote their own dump.
    assert len(list(dumps.glob("*.json"))) >= 2
    functions = reachability.defined_functions(FIXTURE)
    reachability.classify(functions, reachability.reached_keys(dumps), set())
    reached = {f["qualname"]: f["reached"] for f in functions}
    assert reached == {
        "from_thread": "traffic",
        "from_worker": "traffic",
        "while_profiler_cleared": "traffic",
        "never_called": "nothing",
        "main": "traffic",
    }
    assert [f["qualname"] for f in reachability.unreached(functions)] == [
        "never_called"
    ]


def test_tests_only_and_exemptions(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import abc\n"
        "class A(abc.ABC):\n"
        "    @abc.abstractmethod\n"
        "    def stub(self):\n"
        "        '''Docstring only.'''\n"
        "    def raises(self):\n"
        "        raise NotImplementedError('subclass')\n"
        "    def __repr__(self):\n"
        "        return 'A()'\n"
        "    def real(self):\n"
        "        def inner():\n"
        "            return 1\n"
        "        return inner()\n"
    )
    functions = reachability.defined_functions(tmp_path)
    by_name = {f["qualname"]: f for f in functions}
    assert by_name["A.stub"]["line"] == 3  # the decorator's line
    assert {name: f["exempt"] for name, f in by_name.items()} == {
        "A.stub": "stub",
        "A.raises": "stub",
        "A.__repr__": "repr",
        "A.real": None,
        "A.real.inner": None,
    }
    reachability.classify(functions, set(), {("mod.py", 10, "real")})
    assert by_name["A.real"]["reached"] == "tests"
    assert [f["qualname"] for f in reachability.unreached(functions)] == [
        "A.real.inner"
    ]


def test_every_cli_subcommand_is_driven():
    """A subcommand added to the CLI is added to the traffic too."""
    tree = ast.parse(
        (reachability.SOURCE / "repro" / "cli.py").read_text(encoding="utf-8")
    )
    subcommands = {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_parser"
    }
    driven = {argv[0] for argv in reachability._cli_runs()}
    assert subcommands == driven
