"""Tests for the RL100-series whole-program concurrency analyzer.

Covers the new engine layers directly (module graph, cross-module
symbol resolution, call graph, thread-entrypoint discovery, lock
context, taint), each RL10x check against minimal seeded trees, the
two PR 6 race mutants under ``tests/fixtures/concurrency_mutants``
(the shift-left proof), CLI polish (``lint explain``, family
wildcards), and the meta-tests that the shipped tree stays clean and
the analysis stays fast.
"""

import ast
import json
import textwrap
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import LintConfig, default_scan_root, run_lint
from repro.lint.engine import ModuleSource, discover_files
from repro.lint.program import (CLEAN, CONFINED, SHARED,
                                build_program, module_dotted_name)
from tests.conftest import fresh_python

RL1XX = {"RL101", "RL102", "RL103", "RL104", "RL105"}

MUTANTS = Path(__file__).resolve().parent / "fixtures" / \
    "concurrency_mutants"


def write_tree(tmp_path, files):
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))


def lint_tree(tmp_path, files, select=RL1XX):
    write_tree(tmp_path, files)
    return run_lint(LintConfig(root=tmp_path, select=set(select)))


def program_for(tmp_path, files):
    write_tree(tmp_path, files)
    root = tmp_path.resolve()
    modules = []
    for path in discover_files(root):
        relpath = path.relative_to(root).as_posix()
        source = path.read_text()
        modules.append(ModuleSource(path, relpath, source,
                                    ast.parse(source)))
    return build_program(modules, root)


def by_check(result, check_id):
    return [f for f in result.findings if f.check_id == check_id]


# -- engine layers -------------------------------------------------------------

class TestModuleGraph:
    def test_dotted_names_under_package_root(self, tmp_path):
        program = program_for(tmp_path, {
            "__init__.py": "",
            "sub/__init__.py": "",
            "sub/mod.py": "def f():\n    return 1\n",
        })
        root_name = tmp_path.name
        assert f"{root_name}.sub.mod" in program.modules
        assert f"{root_name}.sub" in program.modules
        assert f"{root_name}.sub.mod.f" in program.functions

    def test_plain_directory_root(self, tmp_path):
        program = program_for(tmp_path, {
            "a.py": "def f():\n    return 1\n",
        })
        assert "a" in program.modules
        assert "a.f" in program.functions


class TestSymbolResolution:
    def test_aliased_import_resolves_call(self, tmp_path):
        program = program_for(tmp_path, {
            "impl.py": "def build():\n    return []\n",
            "use.py": ("import impl as backend\n"
                       "def go():\n"
                       "    return backend.build()\n"),
        })
        calls = program.functions["use.go"].calls
        assert [c.callee for c in calls] == ["impl.build"]

    def test_transitive_reexport(self, tmp_path):
        program = program_for(tmp_path, {
            "__init__.py": "",
            "core/__init__.py": "from .impl import Worker\n",
            "core/impl.py": ("class Worker:\n"
                             "    def run(self):\n"
                             "        return 0\n"),
            "use.py": "",
        })
        root = tmp_path.name
        kind, qname = program.resolve(f"{root}.core.Worker")
        assert kind == "class"
        assert qname == f"{root}.core.impl.Worker"

    def test_from_import_alias(self, tmp_path):
        program = program_for(tmp_path, {
            "impl.py": "def build():\n    return []\n",
            "use.py": ("from impl import build as make\n"
                       "def go():\n"
                       "    return make()\n"),
        })
        assert [c.callee for c in program.functions["use.go"].calls] \
            == ["impl.build"]


class TestCallGraphAndEntrypoints:
    FILES = {
        "work.py": """\
            import threading

            class Job:
                def __init__(self):
                    self.hits = 0
                def step(self):
                    self.hits += 1

            def spawn(job: Job):
                t = threading.Thread(target=job.step)
                t.start()
                return t
            """,
    }

    def test_method_handle_target_is_entrypoint(self, tmp_path):
        program = program_for(tmp_path, self.FILES)
        assert "work.Job.step" in program.thread_side
        assert program.functions["work.Job.step"].is_entrypoint

    def test_typed_receiver_resolves_method_call(self, tmp_path):
        program = program_for(tmp_path, {
            "a.py": """\
                class Dev:
                    def ping(self):
                        return 1

                def use(dev: Dev):
                    return dev.ping()
                """,
        })
        assert [c.callee for c in program.functions["a.use"].calls] \
            == ["a.Dev.ping"]

    def test_callable_param_flows_to_dynamic_call(self, tmp_path):
        program = program_for(tmp_path, {
            "a.py": """\
                import threading

                class Sink:
                    def __init__(self):
                        self.seen = []
                    def push(self, item):
                        self.seen.append(item)

                def pump(emit):
                    emit(1)

                def main():
                    sink = Sink()
                    t = threading.Thread(target=pump,
                                         args=(sink.push,))
                    t.start()
                    t.join()
                    return sink.seen
                """,
        })
        # the bound method travels through the spawn into pump's
        # dynamic call, so push must end up on the thread side
        assert "a.Sink.push" in program.thread_side


class TestLockContext:
    def test_condition_aliases_inner_lock(self, tmp_path):
        result = lint_tree(tmp_path, {
            "q.py": """\
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._ready = threading.Condition(self._lock)
                        self.items = []
                    def put(self, item):
                        with self._ready:
                            self.items.append(item)
                    def drain(self):
                        with self._lock:
                            return list(self.items)

                def main():
                    box = Box()
                    threading.Thread(target=box.put, args=(1,)).start()
                    return box.drain()
                """,
        })
        # put() under the Condition == under _lock: no RL101
        assert by_check(result, "RL101") == []

    def test_local_and_global_lock_identities(self, tmp_path):
        program = program_for(tmp_path, {
            "g.py": """\
                import threading

                _LOCK = threading.Lock()

                def top():
                    local_lock = threading.Lock()
                    with _LOCK:
                        pass
                    with local_lock:
                        pass
                """,
        })
        acquired = {a.lock for a in program.acquisitions}
        assert ("global", "g", "_LOCK") in acquired
        assert ("local", "g.top", "local_lock") in acquired


class TestTaint:
    def test_deepcopy_sanitizes_spawn_arg(self, tmp_path):
        result = lint_tree(tmp_path, {
            "a.py": """\
                import copy
                import threading

                class Plan:
                    def __init__(self):
                        self.n = 0
                    def bump(self):
                        self.n += 1

                def worker(plan: Plan):
                    plan.bump()

                def main(count):
                    plan = Plan()
                    for wid in range(count):
                        threading.Thread(
                            target=worker,
                            args=(copy.deepcopy(plan),)).start()
                    plan.bump()
                """,
        })
        assert by_check(result, "RL103") == []

    def test_loop_partitioned_args_stay_confined(self, tmp_path):
        result = lint_tree(tmp_path, {
            "a.py": """\
                import threading

                class Plan:
                    def __init__(self):
                        self.n = 0
                    def bump(self):
                        self.n += 1

                def worker(plan: Plan):
                    plan.bump()

                def main(count):
                    plans = [Plan() for _ in range(count)]
                    for plan in plans:
                        threading.Thread(target=worker,
                                         args=(plan,)).start()
                """,
        })
        assert by_check(result, "RL103") == []
        assert by_check(result, "RL101") == []

    def test_fresh_per_iteration_vs_shared(self, tmp_path):
        program = program_for(tmp_path, {
            "a.py": """\
                import copy

                def f(shared):
                    fresh = []
                    cleaned = copy.deepcopy(shared)
                    return fresh
                """,
        })
        fn = program.functions["a.f"]
        assert program.taint(fn.locals_ref["fresh"], "a.f") == CONFINED
        assert program.taint(fn.locals_ref["cleaned"], "a.f") == CLEAN
        assert program.taint(("param", "shared"), "a.f") in (
            CONFINED, SHARED)


# -- the checks ----------------------------------------------------------------

class TestRL101SharedState:
    def test_flags_unlocked_shared_attribute(self, tmp_path):
        result = lint_tree(tmp_path, {
            "s.py": """\
                import threading

                class Stats:
                    def __init__(self):
                        self.count = 0
                    def record(self):
                        self.count += 1

                def main():
                    stats = Stats()
                    threading.Thread(target=stats.record).start()
                    return stats.count
                """,
        })
        found = by_check(result, "RL101")
        assert len(found) == 1
        assert found[0].line == 7
        assert "Stats.count" in found[0].message

    def test_lock_on_both_sides_is_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "s.py": """\
                import threading

                class Stats:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0
                    def record(self):
                        with self._lock:
                            self.count += 1

                def main():
                    stats = Stats()
                    threading.Thread(target=stats.record).start()
                    with stats._lock:
                        return stats.count
                """,
        })
        assert by_check(result, "RL101") == []

    def test_thread_confined_state_is_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "s.py": """\
                import threading

                class Loop:
                    def __init__(self):
                        self.ticks = 0
                    def run(self):
                        while self.ticks < 3:
                            self.ticks += 1

                def main():
                    loop = Loop()
                    threading.Thread(target=loop.run).start()
                """,
        })
        # mutated only on its own thread, never touched by main
        assert by_check(result, "RL101") == []


class TestRL102LockOrder:
    FILES = {
        "d.py": """\
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                def forward(self):
                    with self._a:
                        with self._b:
                            return 1
                def backward(self):
                    with self._b:
                        with self._a:
                            return 2
            """,
    }

    def test_flags_opposite_nesting(self, tmp_path):
        result = lint_tree(tmp_path, self.FILES)
        found = by_check(result, "RL102")
        assert len(found) == 1
        assert "Pair._a" in found[0].message
        assert "Pair._b" in found[0].message

    def test_interprocedural_edge(self, tmp_path):
        result = lint_tree(tmp_path, {
            "d.py": """\
                import threading

                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()
                    def inner(self):
                        with self._b:
                            return 1
                    def forward(self):
                        with self._a:
                            return self.inner()
                    def backward(self):
                        with self._b:
                            with self._a:
                                return 2
                """,
        })
        assert len(by_check(result, "RL102")) == 1

    def test_consistent_order_is_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "d.py": """\
                import threading

                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()
                    def one(self):
                        with self._a:
                            with self._b:
                                return 1
                    def two(self):
                        with self._a:
                            with self._b:
                                return 2
                """,
        })
        assert by_check(result, "RL102") == []


class TestRL103ThreadEscape:
    def test_shared_plan_in_loop_is_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "p.py": """\
                import threading

                class Plan:
                    def __init__(self):
                        self.n = 0
                    def bump(self):
                        self.n += 1

                def worker(plan: Plan):
                    plan.bump()

                def main(count):
                    plan = Plan()
                    for wid in range(count):
                        threading.Thread(target=worker,
                                         args=(wid, plan)).start()
                """,
        })
        found = by_check(result, "RL103")
        assert len(found) == 1
        assert "Plan" in found[0].message
        assert "deepcopy" in found[0].message

    def test_internally_locked_type_is_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "p.py": """\
                import threading

                class SafePlan:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.n = 0
                    def bump(self):
                        with self._lock:
                            self.n += 1

                def worker(plan: SafePlan):
                    plan.bump()

                def main(count):
                    plan = SafePlan()
                    for wid in range(count):
                        threading.Thread(target=worker,
                                         args=(plan,)).start()
                """,
        })
        assert by_check(result, "RL103") == []


class TestRL104PickleBoundary:
    def test_lock_field_on_request_path_is_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "serve/request.py": """\
                import threading
                from dataclasses import dataclass, field

                @dataclass
                class Response:
                    rid: int
                    done: threading.Event = None
                """,
        })
        found = by_check(result, "RL104")
        assert len(found) == 1
        assert "done" in found[0].message
        assert "Event" in found[0].message

    def test_lock_attr_in_closure_is_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "serve/request.py": """\
                from dataclasses import dataclass
                from serve.state import Tracker

                @dataclass
                class Request:
                    rid: int
                    tracker: "Tracker" = None
                """,
            "serve/state.py": """\
                import threading

                class Tracker:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.hits = 0
                """,
        })
        found = by_check(result, "RL104")
        assert len(found) == 1
        assert "Tracker" in found[0].message
        assert "lock" in found[0].message

    def test_scalar_payload_is_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "serve/request.py": """\
                from dataclasses import dataclass
                from typing import Optional, Tuple

                @dataclass
                class Request:
                    rid: int
                    workload: str
                    params: Tuple[Tuple[str, object], ...] = ()
                    deadline: Optional[float] = None
                """,
        })
        assert by_check(result, "RL104") == []

    def test_shipped_request_path_is_process_ready(self):
        """The static precondition for ROADMAP item 2: every type on
        the serve request path must already be picklable."""
        result = run_lint(LintConfig(root=default_scan_root(),
                                     select={"RL104"}))
        assert result.findings == []


class TestRL105BlockingUnderLock:
    def test_sleep_under_lock(self, tmp_path):
        result = lint_tree(tmp_path, {
            "b.py": """\
                import threading
                import time

                class Poller:
                    def __init__(self):
                        self._lock = threading.Lock()
                    def poll(self):
                        with self._lock:
                            time.sleep(0.1)
                """,
        })
        found = by_check(result, "RL105")
        assert len(found) == 1
        assert "time.sleep" in found[0].message

    def test_unbounded_queue_get_under_lock(self, tmp_path):
        result = lint_tree(tmp_path, {
            "b.py": """\
                import queue
                import threading

                class Pump:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._q = queue.Queue()
                    def take(self):
                        with self._lock:
                            return self._q.get()
                """,
        })
        found = by_check(result, "RL105")
        assert len(found) == 1
        assert "get" in found[0].message

    def test_timeout_get_is_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "b.py": """\
                import queue
                import threading

                class Pump:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._q = queue.Queue()
                    def take(self):
                        with self._lock:
                            return self._q.get(timeout=0.1)
                """,
        })
        assert by_check(result, "RL105") == []

    def test_workload_execution_under_lock(self, tmp_path):
        result = lint_tree(tmp_path, {
            "b.py": """\
                import threading

                def run_workload(name):
                    return name

                class Runner:
                    def __init__(self):
                        self._lock = threading.Lock()
                    def go(self, name):
                        with self._lock:
                            return run_workload(name)
                """,
        })
        found = by_check(result, "RL105")
        assert len(found) == 1
        assert "run_workload" in found[0].message


# -- the PR 6 mutants (shift-left proof) --------------------------------------

class TestSeededMutants:
    def test_pool_race_mutant_is_flagged_rl103(self):
        result = run_lint(LintConfig(root=MUTANTS, select=RL1XX))
        found = by_check(result, "RL103")
        assert [f.path for f in found] == ["pool_race.py"]
        assert "MiniFaultPlan" in found[0].message

    def test_queue_race_mutant_is_flagged_rl101(self):
        result = run_lint(LintConfig(root=MUTANTS, select=RL1XX))
        flagged = {(f.path, f.message.split(" is mutated")[0])
                   for f in by_check(result, "RL101")}
        assert ("queue_race.py", "BatchBoard.results") in flagged


# -- CLI polish ----------------------------------------------------------------

class TestCliPolish:
    def test_explain_prints_description_and_example(self, capsys):
        assert cli_main(["lint", "explain", "RL103"]) == 0
        out = capsys.readouterr().out
        assert "RL103" in out
        assert "severity: error" in out
        assert "example:" in out
        assert "deepcopy" in out

    def test_explain_unknown_check(self, capsys):
        assert cli_main(["lint", "explain", "RL999"]) == 3
        assert "unknown check" in capsys.readouterr().out

    def test_family_wildcard_select(self, tmp_path, capsys):
        (tmp_path / "empty.py").write_text("X = 1\n")
        assert cli_main(["lint", "--select", "RL1xx", "--format",
                         "json", str(tmp_path)]) == 0
        payload = capsys.readouterr().out
        assert '"RL101"' in payload
        assert '"RL001"' not in payload

    def test_family_wildcard_ignore(self, tmp_path, capsys):
        (tmp_path / "empty.py").write_text("X = 1\n")
        assert cli_main(["lint", "--ignore", "RL1xx", "--format",
                         "json", str(tmp_path)]) == 0
        payload = capsys.readouterr().out
        assert '"RL101"' not in payload
        assert '"RL001"' in payload

    # a fresh interpreter: the CLI must know every check before any
    # lint run has imported the check modules
    def test_explain_knows_every_check_that_runs(self, tmp_path):
        (tmp_path / "empty.py").write_text("X = 1\n")
        ids = run_lint(LintConfig(root=tmp_path)).checks_run
        done = fresh_python(
            "import sys\n"
            "from repro.cli import main\n"
            "sys.exit(max(main(['lint', 'explain', i])\n"
            "             for i in sys.argv[1:]))", *ids)
        assert done.returncode == 0, done.stdout
        for check_id in ids:
            assert f"{check_id} (" in done.stdout

    def test_family_ignore_runs_exactly_the_rest(self, tmp_path):
        (tmp_path / "empty.py").write_text("X = 1\n")
        done = fresh_python(
            "import sys\n"
            "from repro.cli import main\n"
            "sys.exit(main(['lint', '--ignore', 'RL1xx', '--format', "
            "'json', sys.argv[1]]))", str(tmp_path))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["summary"]["checks_run"] == [
            "RL001", "RL002", "RL003", "RL004", "RL005"]


# -- meta ----------------------------------------------------------------------

class TestShippedTree:
    def test_rl1xx_clean_on_shipped_tree(self):
        result = run_lint(LintConfig(root=default_scan_root(),
                                     select=RL1XX))
        assert result.findings == []

    def test_whole_tree_analysis_under_ten_seconds(self):
        start = time.monotonic()
        run_lint(LintConfig(root=default_scan_root(), select=RL1XX))
        assert time.monotonic() - start < 10.0
