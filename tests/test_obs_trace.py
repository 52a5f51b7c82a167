"""Tracing tests: span propagation, export, and exactness under faults.

The load-bearing contracts:

* **Neutrality** — an activated tracer must not change results: centers,
  radius and ``dist_evals`` stay bit-identical on every backend.
* **Propagation** — task spans fold back through ``TaskOutput`` from
  wherever the executor ran them (in-process or worker process), so a
  traced solve shows the full ``solve -> round -> task`` tree.
* **Exactness under faults** — a retried / speculative task commits
  exactly one task span (the winning attempt's); losing attempts appear
  only as driver-side ``attempt`` spans annotated ``abandoned=True``,
  and metrics never double-count.
* **Consistency** — per round, the longest committed task span agrees
  with the round's simulated ``parallel_time`` (that statistic *is* the
  max task time).
"""

import json
import pickle
from functools import partial

import numpy as np
import pytest

import repro
from repro.mapreduce.cluster import TaskOutput
from repro.mapreduce.executor import (
    ProcessPoolExecutorBackend,
    SequentialExecutor,
    ThreadPoolExecutorBackend,
)
from repro.mapreduce.faults import Fault, FaultSchedule
from repro.mapreduce.resilient import FaultPolicy
from repro.obs import metrics, trace
from repro.solvers.registry import get_solver


@pytest.fixture(scope="module")
def rows():
    return np.random.default_rng(7).normal(size=(400, 3))


def make_backend(name):
    if name == "sequential":
        return SequentialExecutor()
    if name == "thread":
        return ThreadPoolExecutorBackend(max_workers=2)
    return ProcessPoolExecutorBackend(max_workers=2)


def by_cat(tracer, cat):
    return [s for s in tracer.spans if s.cat == cat]


# ---------------------------------------------------------------------- #
# tracer unit behaviour
# ---------------------------------------------------------------------- #
class TestTracerBasics:
    def test_span_records_name_cat_args_duration(self):
        tracer = trace.Tracer(run_id="t")
        with tracer.span("work", cat="round", tasks=3):
            pass
        (span,) = tracer.spans
        assert span.name == "work"
        assert span.cat == "round"
        assert span.args == {"tasks": 3}
        assert span.duration >= 0

    def test_span_records_even_on_error(self):
        tracer = trace.Tracer()
        with pytest.raises(ValueError):
            with tracer.span("broken"):
                raise ValueError("x")
        assert [s.name for s in tracer.spans] == ["broken"]

    def test_ambient_helpers_are_noop_without_tracer(self):
        assert trace.current_tracer() is None
        assert trace.span("x") is trace.NULL_SPAN
        assert trace.block_span("x") is trace.NULL_SPAN

    def test_activate_installs_and_restores(self):
        tracer = trace.Tracer()
        with trace.activate(tracer) as active:
            assert active is tracer
            assert trace.current_tracer() is tracer
            with trace.span("inner", cat="solve"):
                pass
        assert trace.current_tracer() is None
        assert [s.name for s in tracer.spans] == ["inner"]

    def test_block_span_requires_block_detail(self):
        coarse = trace.Tracer(detail=trace.DETAIL_TASK)
        with trace.activate(coarse):
            assert trace.block_span("k") is trace.NULL_SPAN
        fine = trace.Tracer(detail=trace.DETAIL_BLOCK)
        with trace.activate(fine):
            with trace.block_span("k"):
                pass
        assert [s.cat for s in fine.spans] == ["block"]

    def test_bad_detail_rejected(self):
        with pytest.raises(ValueError):
            trace.Tracer(detail="everything")

    def test_live_sink_sees_spans_and_survives_sink_errors(self):
        seen = []

        def sink(span):
            seen.append(span.name)
            raise RuntimeError("sinks are advisory")

        tracer = trace.Tracer(on_span=sink)
        with tracer.span("a"):
            pass
        assert seen == ["a"]
        assert len(tracer.spans) == 1

    def test_fold_notify_false_skips_sink(self):
        seen = []
        tracer = trace.Tracer(on_span=seen.append)
        other = trace.Tracer()
        with other.span("remote", cat="task"):
            pass
        tracer.fold(other.spans, notify=False)
        assert seen == []
        assert [s.name for s in tracer.spans] == ["remote"]


def _five() -> int:
    return 5


class TestTaskWrapping:
    CTX = trace.TaskTraceContext(run_id="r", name="round[0]", index=0)

    def test_run_traced_task_returns_taskoutput_with_spans(self):
        out = trace.run_traced_task(_five, self.CTX)
        assert isinstance(out, TaskOutput)
        assert out.value == 5
        assert [s.cat for s in out.spans] == ["task"]
        assert out.spans[0].args["task"] == 0

    def test_existing_taskoutput_keeps_value_and_evals(self):
        out = trace.run_traced_task(
            lambda: TaskOutput("v", 17), self.CTX
        )
        assert out.value == "v"
        assert out.dist_evals == 17
        assert len(out.spans) == 1

    def test_wrap_task_without_sink_pickles(self):
        wrapped = trace.wrap_task(partial(_five), self.CTX)
        clone = pickle.loads(pickle.dumps(wrapped))
        assert clone().value == 5

    def test_worker_tracer_does_not_leak_into_caller(self):
        trace.run_traced_task(_five, self.CTX)
        assert trace.current_tracer() is None


class TestChromeExport:
    def test_export_is_valid_trace_event_json(self, tmp_path):
        tracer = trace.Tracer(run_id="export-test")
        with trace.activate(tracer):
            with trace.span("outer", cat="solve"):
                with trace.span("inner", cat="round"):
                    pass
        path = tracer.export_chrome(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert payload["otherData"]["run_id"] == "export-test"
        assert {e["name"] for e in events} == {"outer", "inner"}
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0  # rebased to the earliest span
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
        # The nested span must sit inside its parent on the timeline.
        outer = next(e for e in events if e["name"] == "outer")
        inner = next(e for e in events if e["name"] == "inner")
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1


# ---------------------------------------------------------------------- #
# end-to-end propagation through real solves
# ---------------------------------------------------------------------- #
class TestSolvePropagation:
    @pytest.mark.parametrize("backend", ["sequential", "thread", "process"])
    def test_traced_solve_is_bit_identical_and_fully_spanned(
        self, rows, backend
    ):
        clean = repro.solve(rows, 5, "mrg", m=4, seed=1)
        tracer = trace.Tracer()
        with make_backend(backend) as executor, trace.activate(tracer):
            traced = repro.solve(rows, 5, "mrg", m=4, seed=1, executor=executor)

        # Neutrality: tracing must not perturb the computation.
        assert traced.radius == clean.radius
        np.testing.assert_array_equal(traced.centers, clean.centers)
        assert traced.stats.dist_evals == clean.stats.dist_evals

        solves = by_cat(tracer, "solve")
        rounds = by_cat(tracer, "round")
        tasks = by_cat(tracer, "task")
        assert len(solves) == 1 and solves[0].name == "solve"
        # One span per committed round, then the final evaluation pass —
        # a round-category span that is deliberately not a round of the
        # job's books.
        assert [r.name for r in rounds] == [
            r.label for r in traced.stats.rounds
        ] + ["final.radius"]
        # Every dispatched task folded exactly one span back, labelled
        # by its round.
        per_round = {r.name: r.args["tasks"] for r in rounds}
        for label, n_tasks in per_round.items():
            named = [t for t in tasks if t.name.startswith(f"{label}[")]
            assert len(named) == n_tasks
            assert sorted(t.args["task"] for t in named) == list(range(n_tasks))
        assert len(tasks) == sum(per_round.values())

    def test_task_spans_agree_with_round_parallel_time(self, rows):
        # RoundStats.parallel_time is the max per-task wall time the
        # executor measured; the committed task span times the same call
        # from inside, so per round: max span ~= parallel_time.
        tracer = trace.Tracer()
        with trace.activate(tracer):
            result = repro.solve(rows, 5, "mrg", m=4, seed=1)
        tasks = by_cat(tracer, "task")
        for round_stats in result.stats.rounds:
            durations = [
                t.duration for t in tasks
                if t.name.startswith(f"{round_stats.label}[")
            ]
            assert durations, f"no task spans for round {round_stats.label}"
            assert max(durations) <= round_stats.parallel_time + 0.02
            assert max(durations) >= round_stats.parallel_time - 0.02

    def test_block_detail_adds_kernel_spans(self, rows):
        tracer = trace.Tracer(detail=trace.DETAIL_BLOCK)
        with trace.activate(tracer):
            repro.solve(rows, 5, "mrg", m=4, seed=1)
        blocks = by_cat(tracer, "block")
        assert blocks, "block detail must record kernel-block spans"
        assert all(b.name == "kernels.sq_dists_block" for b in blocks)
        assert all(b.args["rows"] >= 1 for b in blocks)

    def test_task_detail_records_no_kernel_spans(self, rows):
        tracer = trace.Tracer()
        with trace.activate(tracer):
            repro.solve(rows, 5, "mrg", m=4, seed=1)
        assert by_cat(tracer, "block") == []

    def test_solve_many_traces_each_run(self, rows):
        tracer = trace.Tracer()
        with trace.activate(tracer):
            batch = repro.solve_many(rows, 4, ["gon", "mrg"], seeds=[0], m=4)
        assert len(by_cat(tracer, "solve")) == 1
        names = [t.name for t in by_cat(tracer, "task")]
        for key in batch:
            # One run-level span per batch entry; a MapReduce run also
            # folds back its own nested round/task spans.
            assert names.count(str(key)) == 1

    def test_untraced_solve_stays_untraced(self, rows):
        # The zero-cost default: no ambient tracer, no spans anywhere.
        result = repro.solve(rows, 5, "mrg", m=4, seed=1)
        assert result.radius > 0
        assert trace.current_tracer() is None


# ---------------------------------------------------------------------- #
# exactness under injected faults
# ---------------------------------------------------------------------- #
class TestFaultExactness:
    POLICY = FaultPolicy(max_retries=2, speculate_after=None)

    @pytest.mark.parametrize("backend", ["sequential", "thread", "process"])
    def test_retried_task_commits_exactly_one_span(self, rows, backend):
        clean = repro.solve(rows, 5, "mrg", m=4, seed=1)
        tracer = trace.Tracer()
        faults = FaultSchedule({(0, 0): Fault("crash")})
        with make_backend(backend) as executor, trace.activate(tracer):
            faulted = repro.solve(
                rows, 5, "mrg", m=4, seed=1, executor=executor,
                fault_policy=self.POLICY, fault_injector=faults,
            )
        assert faulted.radius == clean.radius
        assert faulted.stats.dist_evals == clean.stats.dist_evals

        # Exactly one committed span per task, crash or no crash.
        names = [t.name for t in by_cat(tracer, "task")]
        assert len(names) == len(set(names)), (
            f"duplicated committed task spans: {sorted(names)}"
        )
        # The losing attempt shows up only as an abandoned attempt span.
        attempts = by_cat(tracer, "attempt")
        assert len(attempts) == 1
        (attempt,) = attempts
        assert attempt.args["abandoned"] is True
        assert attempt.args["task"] == 0

    def test_duplicate_fault_annotates_speculative_attempt(self, rows):
        tracer = trace.Tracer()
        faults = FaultSchedule({(0, 1): Fault("duplicate")})
        with trace.activate(tracer):
            repro.solve(
                rows, 5, "mrg", m=4, seed=1,
                fault_policy=self.POLICY, fault_injector=faults,
            )
        names = [t.name for t in by_cat(tracer, "task")]
        assert len(names) == len(set(names))
        attempts = by_cat(tracer, "attempt")
        assert len(attempts) == 1
        assert attempts[0].args["abandoned"] is True
        assert attempts[0].args["speculative"] is True

    def test_metrics_never_double_count_under_retries(self, rows):
        algo = get_solver("mrg").name
        with metrics.capture() as registry:
            clean = repro.solve(rows, 5, "mrg", m=4, seed=1)
        evals = registry.counter(
            "repro_dist_evals_total", labelnames=("algorithm",)
        )
        clean_evals = evals.value(algorithm=algo)
        # The metric counts physical distance evaluations (evaluation
        # phase included), so it upper-bounds the task accounting.
        assert clean_evals >= clean.stats.dist_evals

        faults = FaultSchedule({(0, 0): Fault("crash"), (1, 0): Fault("crash")})
        with metrics.capture():  # reset=True zeroes the clean run
            repro.solve(
                rows, 5, "mrg", m=4, seed=1,
                fault_policy=self.POLICY, fault_injector=faults,
            )
        assert evals.value(algorithm=algo) == clean_evals
        retries = registry.counter("repro_task_retries_total")
        assert retries.value() == 2
        solves = registry.counter(
            "repro_solves_total", labelnames=("algorithm",)
        )
        assert solves.value(algorithm=algo) == 1

    def test_round_metrics_match_round_stats(self, rows):
        with metrics.capture() as registry:
            result = repro.solve(rows, 5, "mrg", m=4, seed=1)
        rounds = registry.counter("repro_rounds_total", labelnames=("round",))
        total = sum(
            rounds.value(round=label)
            for label in {
                r.label.partition("[")[0] for r in result.stats.rounds
            }
        )
        assert total == len(result.stats.rounds)
        parallel = registry.histogram(
            "repro_round_parallel_seconds", labelnames=("round",)
        )
        observed = sum(
            parallel.value(round=label)
            for label in {
                r.label.partition("[")[0] for r in result.stats.rounds
            }
        )
        expected = sum(r.parallel_time for r in result.stats.rounds)
        assert observed == pytest.approx(expected)
