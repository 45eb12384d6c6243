"""Tests for repro.lint: one seeded violation per check (asserting the
check id AND the line it fires on), check selection (nothing
suppresses a finding; an unknown check id is an error), CLI exit
codes, and the meta-test that the shipped tree is strict-clean."""

import json
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.lint import (LintConfig, UnknownCheckError, default_scan_root,
                        run_lint)


def lint_snippet(tmp_path, source, relpath="workloads/snippet.py",
                 select=None):
    """Write one module into a scratch tree and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return run_lint(LintConfig(root=tmp_path, select=select))


def by_check(result, check_id):
    return [f for f in result.findings if f.check_id == check_id]


class TestRL001RawNumpyBypass:
    def test_flags_fft_and_transcendental_in_zone(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            import numpy as np

            def encode(x):
                spectrum = np.fft.rfft(x)
                return np.exp(spectrum)
            """)
        found = by_check(result, "RL001")
        assert [f.line for f in found] == [4, 5]
        assert "np.fft.rfft" in found[0].message
        assert "np.exp" in found[1].message

    def test_resolves_import_aliases(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            from numpy.fft import irfft
            import numpy.linalg as la

            def solve(a, b):
                return la.solve(a, irfft(b))
            """)
        assert {f.line for f in by_check(result, "RL001")} == {5}
        assert len(by_check(result, "RL001")) == 2

    def test_ignores_outside_zones(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            import numpy as np

            def helper(x):
                return np.exp(x)
            """, relpath="benchmarks/helper.py")
        assert not by_check(result, "RL001")

    def test_cheap_helpers_not_flagged(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            import numpy as np

            def pick(scores):
                return int(np.argmax(np.sqrt(scores)))
            """)
        assert not by_check(result, "RL001")


class TestRL002TaxonomyCoverage:
    def test_unregistered_op_name(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            from repro.tensor.dispatch import run_op

            def mystery(t):
                return run_op("definitely_not_registered", None,
                              lambda a: a, [t])
            """, relpath="tensor/extra.py")
        found = by_check(result, "RL002")
        assert len(found) == 1
        assert found[0].line == 4
        assert "definitely_not_registered" in found[0].message

    def test_category_drift_against_registry(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            from repro.core.taxonomy import OpCategory
            from repro.tensor.dispatch import run_op

            def bad(t):
                return run_op("matmul", OpCategory.ELEMENTWISE,
                              lambda a: a, [t])
            """, relpath="tensor/extra.py")
        found = by_check(result, "RL002")
        assert len(found) == 1
        assert found[0].line == 5
        assert "OpCategory.ELEMENTWISE" in found[0].message
        assert "OpCategory.MATMUL" in found[0].message

    def test_forwarding_helper_resolved_one_hop(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            from repro.core.taxonomy import OpCategory
            from repro.tensor.dispatch import run_op

            _EW = OpCategory.ELEMENTWISE

            def _unary(name, fn, x):
                return run_op(name, _EW, fn, [x])

            def exp(x):
                return _unary("exp", None, x)

            def bogus(x):
                return _unary("not_an_op", None, x)
            """, relpath="tensor/extra.py")
        found = by_check(result, "RL002")
        assert [f.line for f in found] == [13]
        assert "not_an_op" in found[0].message

    def test_wildcard_and_suffix_names_match(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            from repro.tensor.dispatch import run_op

            def move(t, device):
                return run_op(f"to_{device}", None, lambda a: a, [t])

            def blend(t, kind):
                return run_op(f"fuzzy_and[{kind}]", None, lambda a: a, [t])
            """, relpath="tensor/extra.py")
        assert not by_check(result, "RL002")

    def test_category_table_unknown_key_flagged(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            CATEGORY_MIX = {
                "convolution": 1,
                "matmul": 1,
                "elementwise": 1,
                "transform": 1,
                "movement": 1,
                "other": 1,
                "tensorized": 1,
            }
            """, relpath="obs/extra.py")
        found = by_check(result, "RL002")
        assert len(found) == 1
        assert found[0].line == 8
        assert "'tensorized'" in found[0].message
        assert "not an OpCategory value" in found[0].message

    def test_category_table_missing_category_flagged(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            CATEGORY_MIX = {
                "convolution": 1,
                "matmul": 1,
                "elementwise": 1,
                "transform": 1,
                "movement": 1,
            }
            """, relpath="obs/extra.py")
        found = by_check(result, "RL002")
        assert len(found) == 1
        assert found[0].line == 1
        assert "'other'" in found[0].message
        assert "KeyError" in found[0].message

    def test_complete_category_table_is_clean(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            CATEGORY_MIX = {
                "convolution": 1,
                "matmul": 1,
                "elementwise": 1,
                "transform": 1,
                "movement": 1,
                "other": 1,
            }

            OTHER_TABLE = {"made_up_key": 1}  # not a category table
            """, relpath="obs/extra.py")
        assert not by_check(result, "RL002")


class TestRL003PhaseCoverage:
    WORKLOAD = """\
        from repro.tensor import phase, stage
        from repro.workloads.base import register


        @register("snippet")
        class SnippetWorkload:
            def run(self):
                with phase("symbolic"):
                    pass
        """

    def test_missing_neural_phase(self, tmp_path):
        result = lint_snippet(tmp_path, self.WORKLOAD)
        found = by_check(result, "RL003")
        assert len(found) == 1
        assert found[0].line == 7
        assert "'neural'" in found[0].message

    def test_one_hop_through_self_helper(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            from repro.tensor import phase
            from repro.workloads.base import register


            @register("snippet")
            class SnippetWorkload:
                def _evaluate(self):
                    with phase("neural"):
                        pass

                def run(self):
                    values = self._evaluate()
                    with phase("symbolic"):
                        return values
            """)
        assert not by_check(result, "RL003")

    def test_unregistered_class_ignored(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            class Helper:
                def run(self):
                    return None
            """)
        assert not by_check(result, "RL003")


class TestRL004Determinism:
    def test_legacy_rng_and_wall_clock(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            import time
            import numpy as np

            def sample(n):
                np.random.seed(0)
                start = time.time()
                return np.random.randn(n), start
            """, relpath="core/sampling.py")
        found = by_check(result, "RL004")
        assert [f.line for f in found] == [5, 6, 7]
        assert all(f.severity == "warning" for f in found)
        assert "default_rng" in found[0].message
        assert "perf_counter" in found[1].message

    def test_generator_and_perf_counter_clean(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            import time
            import numpy as np

            def sample(n, seed):
                rng = np.random.default_rng(seed)
                start = time.perf_counter()
                return rng.standard_normal(n), start
            """, relpath="core/sampling.py")
        assert not by_check(result, "RL004")

    def test_stdlib_random_module_functions(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            import random

            def pick(items):
                random.shuffle(items)
                return random.choice(items), random.random()
            """, relpath="core/sampling.py")
        found = by_check(result, "RL004")
        assert [f.line for f in found] == [4, 5, 5]
        assert "random.shuffle" in found[0].message
        assert "hidden global RNG" in found[0].message

    def test_seeded_random_instance_clean(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            import random

            def pick(items, seed):
                rng = random.Random(seed)
                return rng.choice(items)
            """, relpath="core/sampling.py")
        assert not by_check(result, "RL004")

    def test_wall_clock_under_every_import_spelling(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            import time
            import time as t
            from time import time as wall, time_ns

            def stamp():
                a = time.time(), time.time_ns()
                b = t.time(), t.time_ns()
                return a, b, wall(), time_ns()
            """, relpath="core/stamps.py")
        found = by_check(result, "RL004")
        assert [(f.line, f.message.split("(")[0]) for f in found] == [
            (6, "time.time"), (6, "time.time_ns"),
            (7, "time.time"), (7, "time.time_ns"),
            (8, "time.time"), (8, "time.time_ns")]
        assert all("use time.perf_counter_ns()" in f.message
                   for f in found if "time_ns" in f.message)

    def test_sleep_is_not_a_clock_read(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            import time
            from time import perf_counter_ns, sleep

            def nap():
                time.sleep(0.1)
                sleep(0.1)
                return time.perf_counter(), perf_counter_ns()
            """, relpath="core/sleeper.py")
        assert not by_check(result, "RL004")


class TestRL005ContextSafety:
    def test_private_stack_access(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            from repro.tensor.context import _ctx_stack

            def sneak():
                _ctx_stack().append(None)
            """, relpath="core/sneaky.py")
        found = by_check(result, "RL005")
        assert [f.line for f in found] == [1, 4]

    def test_unpaired_fault_hook(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            from repro.tensor.context import push_fault_hook

            def arm(hook):
                push_fault_hook(hook)
            """, relpath="core/sneaky.py")
        found = by_check(result, "RL005")
        assert [f.line for f in found] == [4]
        assert "push_fault_hook" in found[0].message

    def test_hooks_inside_enter_exit_allowed(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            from contextlib import contextmanager

            from repro.tensor.context import (pop_fault_hook,
                                              push_fault_hook,
                                              thread_local)

            class Plan:
                def __enter__(self):
                    push_fault_hook(self._hook)
                    thread_local.dispatch.push("session", self)
                    return self

                def __exit__(self, *exc):
                    thread_local.dispatch.pop("session", self)
                    pop_fault_hook()

            @contextmanager
            def armed(hook):
                state = thread_local.dispatch
                push_fault_hook(hook)
                state.push("observer", hook)
                try:
                    yield
                finally:
                    state.pop("observer", hook)
                    pop_fault_hook()
            """, relpath="core/faulty.py")
        assert not by_check(result, "RL005")

    def test_direct_phase_assignment(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            def hijack(state):
                state.current_phase = "neural"
            """, relpath="core/sneaky.py")
        found = by_check(result, "RL005")
        assert [f.line for f in found] == [2]

    def test_unpaired_span_stack_misuse(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            from repro.obs.spans import push_span

            def open_forever(name):
                return push_span(name)
            """, relpath="core/sneaky.py")
        found = by_check(result, "RL005")
        assert [f.line for f in found] == [4]
        assert "push_span" in found[0].message

    def test_private_span_stack_import(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            from repro.obs.spans import _span_stack

            def peek():
                return _span_stack()[-1]
            """, relpath="core/sneaky.py")
        found = by_check(result, "RL005")
        assert [f.line for f in found] == [1, 4]

    def test_private_observer_stack_import(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            from repro.tensor.context import _observer_stack

            def peek():
                return _observer_stack()[-1]
            """, relpath="core/sneaky.py")
        found = by_check(result, "RL005")
        assert [f.line for f in found] == [1, 4]

    def test_unpaired_op_observer_push(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            from repro.tensor.context import push_op_observer

            def record_forever(recorder):
                push_op_observer(recorder)
            """, relpath="core/sneaky.py")
        found = by_check(result, "RL005")
        assert [f.line for f in found] == [4]
        assert "push_op_observer" in found[0].message

    def test_unpaired_dispatch_state_push(self, tmp_path):
        # the dispatch state's stacks (context, fault hook, observer,
        # plan session) move only inside an enter/exit scope
        result = lint_snippet(tmp_path, """\
            from repro.tensor.context import thread_local

            def hijack(ctx):
                thread_local.dispatch.push("context", ctx)

            def leak(session):
                state = thread_local.dispatch
                state.pop("session", session)

            def unrelated(items):
                items.pop()
                items.pop(0)
            """, relpath="core/sneaky.py")
        found = by_check(result, "RL005")
        assert [f.line for f in found] == [4, 8]
        assert "DispatchState.push()" in found[0].message
        assert "DispatchState.pop()" in found[1].message

    def test_collector_inside_enter_exit_allowed(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            from repro.obs.spans import (install_collector,
                                         uninstall_collector)

            class Collector:
                def __enter__(self):
                    install_collector(self.spans)
                    return self

                def __exit__(self, *exc):
                    uninstall_collector(self.spans)
            """, relpath="core/collector.py")
        assert not by_check(result, "RL005")

    def test_public_span_api_clean(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            from repro.obs.spans import SpanCollector, span

            def traced():
                with SpanCollector() as collector:
                    with span("work", kind="test"):
                        pass
                return collector.spans
            """, relpath="core/traced.py")
        assert not by_check(result, "RL005")

    def test_stack_owner_modules_exempt(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            import threading

            _state = threading.local()

            def _span_stack():
                if not hasattr(_state, "spans"):
                    _state.spans = []
                return _state.spans
            """, relpath="obs/spans.py")
        assert not by_check(result, "RL005")


class TestServeZoneCoverage:
    """The serving layer is an instrumented zone (RL001)."""

    def test_raw_numpy_in_serve_zone_flagged(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            import numpy as np

            def score_batch(x):
                return np.matmul(x, x.T)
            """, relpath="serve/scoring.py")
        found = by_check(result, "RL001")
        assert [f.line for f in found] == [4]
        assert "np.matmul" in found[0].message

    def test_serve_batch_path_routes_through_instrumented_ops(self):
        """Shipped serve modules contain no raw-numpy bypass: batch
        execution reaches compute only via workload profiles, which
        RL001 already guards."""
        result = run_lint(LintConfig(root=default_scan_root()))
        assert not [f for f in by_check(result, "RL001")
                    if "/serve/" in str(f.path) or
                    str(f.path).startswith("serve")]
        # the zone is actually active, not silently skipped
        from repro.lint.engine import DEFAULT_ZONES
        assert "serve" in DEFAULT_ZONES


class TestSuppression:
    """Only check selection narrows a run: no comment or file waves a
    finding of a check that runs through."""

    def test_disable_comments_suppress_nothing(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            # repro-lint: disable-file=RL001 -- ported as-is
            import numpy as np

            def encode(x):
                y = np.exp(x)  # repro-lint: disable=RL001 -- calibration
                return np.tanh(y)
            """)
        assert [f.line for f in by_check(result, "RL001")] == [5, 6]

    def test_select_limits_checks(self, tmp_path):
        result = lint_snippet(tmp_path, """\
            import numpy as np

            def f(x):
                np.random.seed(0)
                return np.exp(x)
            """, select={"RL004"})
        assert result.checks_run == ("RL004",)
        assert not by_check(result, "RL001")
        assert len(by_check(result, "RL004")) == 1

    @pytest.mark.parametrize("field", ["select", "ignore"])
    @pytest.mark.parametrize("entry", ["RL999", "RL9xx", "RL107"])
    def test_unknown_check_id_raises(self, tmp_path, field, entry):
        (tmp_path / "empty.py").write_text("X = 1\n")
        config = LintConfig(root=tmp_path, **{field: {"RL001", entry}})
        with pytest.raises(UnknownCheckError) as exc:
            run_lint(config)
        assert repr(entry) in str(exc.value)
        assert "RL001, RL002" in str(exc.value)


class TestCli:
    BAD = """\
        import numpy as np

        def encode(x):
            return np.exp(x)
        """

    def _write(self, tmp_path):
        target = tmp_path / "workloads" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text(textwrap.dedent(self.BAD))

    def test_exit_codes(self, tmp_path, capsys):
        self._write(tmp_path)
        assert cli_main(["lint", str(tmp_path)]) == 2
        assert cli_main(["lint", str(tmp_path / "nowhere")]) == 3
        capsys.readouterr()

    def test_strict_escalates_warnings(self, tmp_path, capsys):
        target = tmp_path / "core" / "warn.py"
        target.parent.mkdir(parents=True)
        target.write_text("import numpy as np\nnp.random.seed(0)\n")
        assert cli_main(["lint", str(tmp_path)]) == 0
        assert cli_main(["lint", "--strict", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_json_report_schema(self, tmp_path, capsys):
        self._write(tmp_path)
        assert cli_main(["lint", "--format", "json", str(tmp_path)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert set(payload["summary"]) == {
            "files_scanned", "checks_run", "errors", "warnings"}
        assert payload["summary"]["errors"] == 1
        finding = payload["findings"][0]
        assert finding["check_id"] == "RL001"
        assert finding["path"] == "workloads/bad.py"
        assert finding["line"] == 4

    @pytest.mark.parametrize("flag", ["--select", "--ignore"])
    @pytest.mark.parametrize("entry", ["RL999", "RL9xx", "RL107,RL001"])
    def test_unknown_check_id_exits_3(self, tmp_path, capsys, flag,
                                      entry):
        # a mistyped id must not lint nothing and pass
        self._write(tmp_path)
        assert cli_main(["lint", flag, entry, str(tmp_path)]) == 3
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        assert "unknown check" in out[0]
        assert repr(entry.split(",")[0]) in out[0]
        assert "known: RL001, RL002" in out[0]


class TestShippedTreeIsClean:
    def test_strict_lint_clean_on_package(self):
        """python -m repro lint --strict must pass on the shipped tree
        with every check active (nothing can be suppressed)."""
        result = run_lint(LintConfig(root=default_scan_root()))
        assert result.checks_run == ("RL001", "RL002", "RL003",
                                     "RL004", "RL005", "RL101",
                                     "RL102", "RL103", "RL104",
                                     "RL105", "RL106")
        assert result.findings == []
