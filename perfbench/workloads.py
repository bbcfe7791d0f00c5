"""The benchmark's two SPE campaign workloads.

Every input is a pure function of the benchmark seed: the seed picks the
generated files of the corpus (``CorpusGenerator`` / ``build_while_corpus``)
and, for the sampled WHILE campaign, the per-file variant sample
(``CampaignConfig.sample_seed``).  The program only ever sees the generated
inputs.  Why each workload exists, and which layer should move which
end-to-end metric on it, is written down in ``README.md``.

``run_repetition`` is one repetition of a workload in the current process;
``rep.py`` calls it in a fresh interpreter for every repetition.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any

WORKLOADS = ("minic-triage", "while-pooled")

#: The minic corpus: the hand-written seeds plus this many generated files,
#: the campaign testing the first variants of every file.
MINIC = dict(generated=60, max_variants_per_file=12)
#: The WHILE corpus (hand-written seeds included) and its per-file sample.
#: 32 is the variant count of ``fig5_loop``, the hand-written seed whose
#: wrong-code bug costs over half of the triage time: sampling all of its
#: variants keeps that bug's representative program the same for every
#: seed.  With fewer, the seed decides which variant represents it, and
#: triage time doubles or halves with it.
WHILE_POOLED = dict(files=150, sample_per_file=32)

#: Timed triage passes per repetition.
TRIAGE_PASSES = 3
#: Store rounds per repetition: each times one resume, one compaction and
#: ``QUERY_ROUNDS`` query rounds (one ``query_bugs`` call per ``BugKind``).
STORE_ROUNDS = 5
QUERY_ROUNDS = 400

#: Phases timed several times per repetition (see ``_store_phases``).
SAMPLED = ("triage_s", "resume_s", "compact_s", "query_ms")

#: Generous per-unit deadline: it engages the supervisor without ever
#: firing on a loaded machine (a unit takes tens of milliseconds).
UNIT_TIMEOUT_S = 120.0


def pool_jobs() -> int:
    """``nproc``: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def build_inputs(workload: str, seed: int) -> dict[str, Any]:
    """The workload's complete input: corpus plus campaign settings."""
    if workload == "while-pooled":
        from repro.corpus.while_seeds import build_while_corpus

        corpus = build_while_corpus(files=WHILE_POOLED["files"], seed=seed)
        settings = {"frontend": "while", "sample_per_file": WHILE_POOLED["sample_per_file"]}
        settings["sample_seed"] = seed
    else:
        from repro.corpus.generator import CorpusGenerator, GeneratorConfig
        from repro.corpus.seeds import paper_seed_programs

        # The generator's tiny-file mode: ``build_corpus`` makes half of its
        # files large, and counting the variants of a large skeleton (to
        # skip it past the enumeration budget) has a heavy-tailed cost, so
        # the seed alone would move planning and resume time by a quarter.
        generator = CorpusGenerator(GeneratorConfig(seed=seed, small_file_probability=1.0))
        corpus = paper_seed_programs()
        corpus.update(generator.generate(MINIC["generated"]))
        settings = {
            "max_variants_per_file": MINIC["max_variants_per_file"],
            "verify_ir": "bugs",
            "sanitize": True,
        }
    return {"corpus": corpus, "settings": settings}


def inputs_digest(inputs: dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def generated_files(corpus: dict[str, str]) -> dict[str, str]:
    """The seed-generated part of a corpus (hand-written seeds excluded)."""
    return {name: text for name, text in corpus.items() if name.startswith("gen_")}


def seed_selftest(seed: int) -> dict[str, bool]:
    """Seed plumbing: same seed, same bytes; another seed, other files.

    Covers both languages (``minic-*`` and ``while-pooled``), and that every
    corpus carries seed-generated files at all.
    """
    checks = {}
    for workload in WORKLOADS:
        first = json.dumps(build_inputs(workload, seed), sort_keys=True)
        again = json.dumps(build_inputs(workload, seed), sort_keys=True)
        other = build_inputs(workload, seed + 1)
        mine = generated_files(json.loads(first)["corpus"])
        checks[f"{workload}.same_seed_identical"] = first == again
        checks[f"{workload}.has_generated_files"] = bool(mine)
        checks[f"{workload}.other_seed_differs"] = mine != generated_files(other["corpus"])
    return checks


def campaign_config(workload: str, inputs: dict[str, Any], role: str, state_dir: str | None):
    """The campaign under measurement, or the reference run it must match.

    ``role`` is ``"reference"`` (outside the timed runs, never journaled),
    ``"timed"``, or ``"serial"`` -- the ``jobs=1`` traced pass of
    ``while-pooled`` that sees the layers its pool workers run.
    """
    from repro.testing.harness import CampaignConfig

    settings = dict(inputs["settings"])
    if role == "reference":
        # For while-pooled this is the serial, unsupervised campaign.
        return CampaignConfig(**settings)
    if workload == "while-pooled":
        settings.update(
            jobs=1 if role == "serial" else pool_jobs(),
            unit_timeout=UNIT_TIMEOUT_S,
            on_fault="quarantine",
        )
    return CampaignConfig(**settings, state_dir=state_dir)


def _summary(result) -> dict[str, Any]:
    return {
        "variants": result.variants_tested,
        "observations": dict(sorted(result.observations.items())),
        "bug_ids": sorted(report.id for report in result.bugs.reports),
        "quarantined": len(result.quarantined),
    }


def _refiles(report, reduced: str, config) -> bool:
    """Does ``reduced`` file its bug under the same ``bug_id`` again?"""
    from repro.testing.bugs import BugDatabase
    from repro.testing.oracle import DifferentialOracle

    oracle = DifferentialOracle(
        version=report.compiler,
        opt_level=report.opt_level,
        frontend=config.frontend,
        verify_ir=config.verify_ir,
    )
    filed = BugDatabase().record(oracle.observe(reduced, name=report.source_name))
    return filed is not None and filed.id == report.id


def _store_phases(config, corpus, original, state_dir: str, out: dict[str, Any]) -> None:
    """What follows every campaign: triage, resume, compact, query.

    Each phase is timed several times per repetition; ``run.py`` reduces
    the samples per repetition and then over the repetitions.
    """
    from repro.store import CampaignStore
    from repro.store.db import CampaignDatabase
    from repro.testing.bugs import BugKind
    from repro.testing.harness import Campaign
    from repro.triage import TriageEngine

    samples, checks = out["samples"], out["checks"]

    # After-the-fact triage of every journaled bug (the `repro triage` path).
    # Each pass starts from the unit records alone, so every pass does the
    # same work; a pass journals its outcomes like the CLI does.
    triaged = []
    for _ in range(TRIAGE_PASSES):
        started = time.perf_counter()
        store = CampaignStore(state_dir)
        journaled = store.merged_result()
        engine = TriageEngine(config.frontend, reduce_policy="all", bisect=True)
        outcomes = engine.triage_database(journaled.bugs)
        store.append_triage_outcomes(outcomes)
        store.close()
        samples["triage_s"].append(time.perf_counter() - started)
        triaged.append(outcomes)

    # Rounds of resume, compaction and queries, interleaved so that each
    # phase's samples spread over the whole store window of the repetition.
    # The query kinds return different numbers of bugs, so a single call's
    # latency depends on its kind; a sample is one round over all kinds.
    kinds = [kind.value for kind in BugKind]
    answers: dict[str, list[str]] = {}
    store = CampaignStore(state_dir)
    for _ in range(STORE_ROUNDS):
        # Resume the finished campaign: everything replays, nothing re-runs.
        started = time.perf_counter()
        resumed = Campaign(config).run_sources(corpus, resume=True)
        samples["resume_s"].append(time.perf_counter() - started)

        # Compact the journal into the indexed view, from scratch.
        store.db_path.unlink(missing_ok=True)
        started = time.perf_counter()
        store.compact()
        samples["compact_s"].append(time.perf_counter() - started)

        # Collect the garbage of the phases above first, so the queries'
        # own allocations, not leftovers, decide when the collector runs.
        gc.collect()
        db = CampaignDatabase.open(store.db_path)
        try:
            for _ in range(QUERY_ROUNDS):
                started = time.perf_counter()
                for kind in kinds:
                    answers[kind] = [report.id for _, report in db.query_bugs(kind=kind)]
                samples["query_ms"].append((time.perf_counter() - started) * 1e3)
        finally:
            db.close()

    # Output checks, outside every timed phase.
    def untimed(result):
        return dataclasses.replace(result, wall_seconds=0.0)

    checks["resume_equals_original"] = untimed(resumed) == untimed(original)
    checks["triage_repeatable"] = all(passes == triaged[0] for passes in triaged)
    outcomes = triaged[0]
    reports = {report.id: report for report in journaled.bugs.reports}
    reduced = [outcome for outcome in outcomes if outcome.reduced_program is not None]
    checks["reduced_not_larger"] = all(
        len(outcome.reduced_program) <= outcome.original_bytes for outcome in reduced
    )
    checks["reduced_refiles_same_bug"] = all(
        _refiles(reports[outcome.bug_id], outcome.reduced_program, config)
        for outcome in reduced
    )
    replay = CampaignStore(state_dir).merged_result(backing="journal")
    replay.bugs.sort()
    checks["query_equals_replay"] = all(
        answers[kind] == [r.id for r in replay.bugs.reports if r.kind.value == kind]
        for kind in kinds
    )


def run_repetition(spec: dict[str, Any]) -> dict[str, Any]:
    """One repetition in this (fresh) process; returns its measurements.

    ``spec`` holds ``workload``, ``seed``, ``role`` (see
    :func:`campaign_config`), ``trace`` (wrap the layers) and ``scratch``
    (a directory inside the checkout for campaign state).
    """
    from repro.testing.harness import Campaign

    workload, role = spec["workload"], spec["role"]
    inputs = build_inputs(workload, spec["seed"])
    out: dict[str, Any] = {
        "inputs_sha256": inputs_digest(inputs),
        "samples": {name: [] for name in SAMPLED},
        "checks": {},
    }
    if role == "reference":
        out["checks"].update(seed_selftest(spec["seed"]))
    state_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=spec["scratch"])
    try:
        config = campaign_config(workload, inputs, role, state_dir)
        campaign = Campaign(config)
        if spec["trace"]:
            from spans import Tracer, install, layer_metrics

            tracer = Tracer()
            install(tracer)
        corpus = inputs["corpus"]
        out["call_time"] = time.time()
        started = time.perf_counter()
        result = campaign.run_sources(corpus)
        out["campaign_s"] = time.perf_counter() - started
        out.update(_summary(result))
        # The store phases run after the campaign, as in a later process:
        # the campaign's in-memory caches are dropped first.
        del campaign
        if role != "reference":
            _store_phases(config, corpus, result, state_dir, out)
        if spec["trace"]:
            journal = Path(state_dir) / "journal.jsonl"
            journal_bytes = journal.stat().st_size if journal.exists() else 0
            out["layers"] = layer_metrics(tracer, result.cache_stats, journal_bytes)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    # Planning again costs a fraction of the campaign and happens after it,
    # outside every timing, so each repetition reports the units it attempted.
    out["units"] = sum(len(shard.units) for shard in Campaign(config).plan(corpus).shards)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = (self_rss + workers_rss) / 1024.0
    return out
