"""Per-layer spans and counters, recorded around calls into ``src/repro``.

The benchmark wraps each layer's public entry points from here, in the
benchmark's own process, instead of instrumenting the program: a
:class:`Tracer` replaces a function or method with a timing wrapper for the
rest of the process, which runs one traced repetition and exits.  Every wrapped call is a span on one
stack, so a layer's *self time* is its spans' duration minus the time of the
child spans they contain, and its *inclusive time* counts only outermost
spans of the layer (recursion and same-layer nesting are not double
counted).

Spans recorded in one process do not see work done in pool workers; the
workloads account for that (see ``workloads.py``).
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable

_clock = time.perf_counter


class Tracer:
    """Span stack plus named counters for one traced repetition."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        #: Submit-to-done latency of every pool task, in seconds.
        self.task_latencies: list[float] = []
        self._stack: list[list[Any]] = []
        self._depth: Counter[str] = Counter()

    # -- wrapping -------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        after: Callable[[tuple, dict, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(args, kwargs, result)`` runs once the call returned, outside
        the span, to derive counters from the call's arguments and result.
        """
        original = getattr(owner, attr)
        stack, depth = self._stack, self._depth
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time

        def traced(*args, **kwargs):
            frame = [_clock(), 0.0]
            stack.append(frame)
            depth[layer] += 1
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = _clock() - frame[0]
                stack.pop()
                depth[layer] -= 1
                calls[layer] += 1
                self_time[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if not depth[layer]:
                    inclusive[layer] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def count(
        self, owner: Any, attr: str, on_call: Callable[[tuple, dict, Any], None]
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that only updates counters."""
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            on_call(args, kwargs, result)
            return result

        setattr(owner, attr, counted)

    def inside(self, layer: str) -> bool:
        """Is a span of ``layer`` open right now?"""
        return bool(self._depth[layer])

    # -- results --------------------------------------------------------------

    def task_max_over_mean(self) -> float:
        if not self.task_latencies:
            return 0.0
        return max(self.task_latencies) / statistics.fmean(self.task_latencies)


def share(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0


#: The seven passes of ``repro.compiler.passes``, by their pipeline names.
PASS_NAMES = ("const-fold", "const-prop", "copy-prop", "cse", "licm", "dce", "simplify-cfg")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every ``src/repro`` layer.

    Functions the program imports by name are patched where they are
    looked up (e.g. ``repro.compiler.driver.lower_module``); methods are
    patched on their classes.
    """
    import repro.compiler.driver as driver
    import repro.lang.codegen as lang_codegen
    import repro.lang.compile as lang_compile
    import repro.store.store as store
    import repro.testing.supervisor as supervisor
    import repro.triage.engine as triage_engine
    from repro.compiler.passes import FunctionPass
    from repro.compiler.vm import VirtualMachine
    from repro.core.holes import Skeleton
    from repro.core.spe import SkeletonEnumerator
    from repro.frontends.minic import MiniCFrontend
    from repro.frontends.whilelang import WhileFrontend
    from repro.minic.codegen import SkeletonRunner
    from repro.store.db import CampaignDatabase
    from repro.store.journal import JournalWriter
    from repro.testing.executor import ProcessPoolExecutor
    from repro.testing.harness import Campaign
    from repro.testing.oracle import DifferentialOracle
    from repro.triage.predicate import BugPredicate

    counters = tracer.counters

    def bump(name: str, amount: Callable[[tuple, Any], int] = lambda args, result: 1):
        def after(args, kwargs, result):
            counters[name] += amount(args, result)

        return after

    # testing.harness
    tracer.wrap(Campaign, "run_sources", "harness")
    tracer.wrap(
        Campaign,
        "plan",
        "harness.plan",
        bump("harness.units", lambda args, plan: sum(len(s.units) for s in plan.shards)),
    )
    # frontends, core
    for frontend in (MiniCFrontend, WhileFrontend):
        tracer.wrap(frontend, "extract_skeleton", "frontends.extract")
    tracer.wrap(SkeletonEnumerator, "unrank", "core.unrank")
    tracer.wrap(Skeleton, "bind", "core.bind")

    # Reference execution (minic.interp / minic.codegen / lang.codegen).
    # ``reference.variants`` counts variants entering the layer from outside;
    # scalar calls nested under a batch call are its per-variant fallback.
    def entering(args, kwargs, result):
        if not tracer.inside("reference"):
            counters["reference.variants"] += len(args[1])

    def scalar(args, kwargs, result):
        counters["reference.scalar_calls"] += 1
        if not tracer.inside("reference"):
            counters["reference.variants"] += 1

    for frontend in (MiniCFrontend, WhileFrontend):
        tracer.wrap(frontend, "run_reference_batch", "reference", entering)
        tracer.wrap(frontend, "run_reference_variant", "reference", scalar)
        tracer.wrap(frontend, "run_reference_source", "reference", scalar)
        tracer.wrap(
            frontend,
            "sanitize_variant",
            "sanitize",
            bump("sanitize.tainted", lambda args, findings: int(bool(findings))),
        )
    for runner in (SkeletonRunner, lang_codegen.WhileSkeletonRunner):
        tracer.count(runner, "run_batch", bump("reference.batched", lambda args, r: len(args[1])))

    # testing.oracle, compiler.*
    for method in ("observe", "observe_variant"):
        tracer.wrap(DifferentialOracle, method, "oracle")
    for method in ("compile_source", "compile_unit", "compile_variant"):
        tracer.wrap(driver.Compiler, method, "driver")
    tracer.wrap(driver, "lower_module", "lowering")
    tracer.wrap(driver, "first_violation", "verify")
    for cls in FunctionPass.__subclasses__():
        tracer.wrap(cls, "run", f"passes.{cls.name}")
    tracer.wrap(VirtualMachine, "run", "vm")

    # lang.compile / lang.codegen (the WHILE compiler under test)
    for method in ("compile_source", "compile_variant"):
        tracer.wrap(lang_compile.WhileCompiler, method, "while_compile")
    tracer.wrap(lang_compile.WhileCompiler, "run", "while_run")
    tracer.wrap(lang_compile, "compile_program_runner", "while_runner")
    tracer.wrap(lang_codegen, "compile_skeleton_runner", "while_runner")

    # testing.executor, testing.supervisor
    def submitted(args, kwargs, future):
        started = _clock()
        future.add_done_callback(
            lambda _: tracer.task_latencies.append(_clock() - started)
        )

    tracer.wrap(ProcessPoolExecutor, "submit", "executor.submit", submitted)
    tracer.wrap(supervisor, "wait", "executor.wait")
    tracer.wrap(supervisor.CampaignSupervisor, "run", "supervisor")
    tracer.count(supervisor.CampaignSupervisor, "_charge", bump("supervisor.charges"))
    tracer.count(
        supervisor.CampaignSupervisor, "_resolve_poison", bump("supervisor.quarantined")
    )

    # store.journal, store.db
    for method in ("append_unit", "append_triage", "append_quarantine", "append_checkpoint"):
        tracer.wrap(JournalWriter, method, "journal.append")
    for function in ("load_unit_records", "load_quarantine_records", "load_triage_records"):
        tracer.wrap(store, function, "journal.replay")
    tracer.wrap(CampaignDatabase, "attach_journal", "db.attach")
    tracer.wrap(CampaignDatabase, "refresh_views", "db.refresh")
    tracer.wrap(CampaignDatabase, "query_bugs", "db.query")

    # triage
    def triaged(args, kwargs, outcomes):
        counters["triage.cache_hits"] += sum(outcome.cache_hits for outcome in outcomes)

    tracer.wrap(triage_engine.TriageEngine, "triage_database", "triage", triaged)
    tracer.wrap(triage_engine, "ddmin_reduce", "triage.reduce")
    tracer.wrap(triage_engine, "bisect_report", "triage.bisect")
    tracer.wrap(
        BugPredicate,
        "__call__",
        "triage.predicate",
        bump("triage.accepted", lambda args, verdict: int(bool(verdict))),
    )


#: Counts that depend only on the code and the inputs, never on the machine
#: or the schedule: two traced repetitions of one seed must agree on them.
EXACT_COUNTS = (
    "vm.runs",
    *(f"passes.{name}.runs" for name in PASS_NAMES),
    "pipeline_cache.hits",
    "reference.scalar_calls",
    "triage.predicate_evals",
    "journal.appends",
)


def layer_metrics(
    tracer: Tracer, cache_stats: dict[str, int], journal_bytes: int
) -> dict[str, float]:
    """Every per-layer metric of one traced repetition (0 where a layer idled)."""
    calls, inclusive, self_time, counters = (
        tracer.calls,
        tracer.inclusive,
        tracer.self_time,
        tracer.counters,
    )

    def rate(prefix: str) -> float:
        hits = cache_stats.get(f"{prefix}_hits", 0)
        return share(hits, hits + cache_stats.get(f"{prefix}_misses", 0))

    metrics: dict[str, float] = {
        "vm.runs": calls["vm"],
        "vm.s": inclusive["vm"],
        "module_cache.hit_rate": rate("module"),
        "reference.variants": counters["reference.variants"],
        "reference.scalar_calls": counters["reference.scalar_calls"],
        "reference.batch_share": share(
            counters["reference.batched"], counters["reference.variants"]
        ),
        "reference.s": inclusive["reference"],
        "reference.self_s": self_time["reference"],
        "lowering.calls": calls["lowering"],
        "lowering.s": inclusive["lowering"],
    }
    for name in PASS_NAMES:
        metrics[f"passes.{name}.runs"] = calls[f"passes.{name}"]
        metrics[f"passes.{name}.s"] = inclusive[f"passes.{name}"]
    evaluations = calls["triage.predicate"]
    metrics.update(
        {
            "pipeline_cache.hits": cache_stats.get("pipeline_hits", 0),
            "pipeline_cache.hit_rate": rate("pipeline"),
            "driver.calls": calls["driver"],
            "driver.self_s": self_time["driver"],
            "verify.calls": calls["verify"],
            "verify.s": inclusive["verify"],
            "sanitize.calls": calls["sanitize"],
            "sanitize.s": inclusive["sanitize"],
            "sanitize.tainted_share": share(counters["sanitize.tainted"], calls["sanitize"]),
            "while_compile.calls": calls["while_compile"],
            "while_compile.s": inclusive["while_compile"],
            "while_run.s": inclusive["while_run"],
            "while_run.self_s": self_time["while_run"],
            "while_runner.compiles": calls["while_runner"],
            "while_runner.s": inclusive["while_runner"],
            "core.unrank_calls": calls["core.unrank"],
            "core.unrank_s": inclusive["core.unrank"],
            "core.bind_calls": calls["core.bind"],
            "core.bind_s": inclusive["core.bind"],
            "frontends.extract_s": inclusive["frontends.extract"],
            "oracle.observations": calls["oracle"],
            "oracle.self_s": self_time["oracle"],
            "harness.plan_s": inclusive["harness.plan"],
            "harness.units": counters["harness.units"],
            "harness.self_s": self_time["harness"],
            "executor.tasks": calls["executor.submit"],
            "executor.spawn_s": inclusive["executor.submit"],
            "executor.wait_s": inclusive["executor.wait"],
            "executor.task_max_over_mean": tracer.task_max_over_mean(),
            "supervisor.retries": counters["supervisor.charges"]
            - counters["supervisor.quarantined"],
            "supervisor.quarantined": counters["supervisor.quarantined"],
            "supervisor.self_s": self_time["supervisor"],
            "journal.appends": calls["journal.append"],
            "journal.bytes": journal_bytes,
            "journal.append_s": inclusive["journal.append"],
            "journal.replay_s": inclusive["journal.replay"],
            "db.attach_s": inclusive["db.attach"],
            "db.refresh_s": inclusive["db.refresh"],
            "db.query_s": inclusive["db.query"],
            "triage.predicate_evals": evaluations,
            "triage.cache_hit_rate": share(
                counters["triage.cache_hits"], counters["triage.cache_hits"] + evaluations
            ),
            "triage.accepted_share": share(counters["triage.accepted"], evaluations),
            "triage.reduce_s": inclusive["triage.reduce"],
            "triage.bisect_s": inclusive["triage.bisect"],
            "triage.self_s": self_time["triage"],
        }
    )
    return metrics
