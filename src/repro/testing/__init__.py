"""The compiler-testing harness: differential testing of enumerated programs.

The whole package is language-agnostic: parsing, reference interpretation,
the executor pair and reduction are reached through the frontend plug-in
protocol (:mod:`repro.frontends`), selected by ``CampaignConfig.frontend``.

* :mod:`repro.testing.oracle` -- test one program against one compiler
  configuration: crash detection, UB filtering via the reference interpreter,
  wrong-code detection by comparing observable behaviour;
* :mod:`repro.testing.bugs` -- bug records, deduplication by signature, and
  the classification summaries Tables 3/4 and Figure 10 report;
* :mod:`repro.testing.harness` -- the campaign driver: plan index-range work
  shards over many skeletons (SPE or naive, prefix or uniform sample), test
  each variant against a matrix of compiler configurations, and merge the
  shard results;
* :mod:`repro.testing.supervisor` -- the one campaign scheduler: retry,
  deadlines, bisection and quarantine of failing units;
* :mod:`repro.testing.executor` -- pluggable shard execution backends
  (serial, process pool);
* :mod:`repro.testing.coverage` -- pass-event coverage measurement
  (the Figure 9 metric);
* :mod:`repro.testing.mutation` -- the Orion-style statement-deletion
  baseline (PM-X in Figure 9);
* :mod:`repro.testing.reducer` -- delta-debugging reduction of bug-triggering
  programs before "reporting" them.
"""

from repro.testing.bugs import BugDatabase, BugKind, BugReport
from repro.testing.executor import ProcessPoolExecutor, SerialExecutor, default_executor
from repro.testing.harness import (
    Campaign,
    CampaignConfig,
    CampaignInterrupted,
    CampaignPlan,
    CampaignResult,
    CampaignShard,
    ChaosError,
    ChaosSpec,
    ShardUnit,
    UnitExecutionError,
    test_program,
)
from repro.testing.oracle import DifferentialOracle, Observation, ObservationKind
from repro.testing.reducer import reduce_program

__all__ = [
    "BugDatabase",
    "BugKind",
    "BugReport",
    "Campaign",
    "CampaignConfig",
    "CampaignInterrupted",
    "CampaignPlan",
    "CampaignResult",
    "CampaignShard",
    "ChaosError",
    "ChaosSpec",
    "DifferentialOracle",
    "Observation",
    "ObservationKind",
    "ProcessPoolExecutor",
    "SerialExecutor",
    "ShardUnit",
    "UnitExecutionError",
    "default_executor",
    "reduce_program",
    "test_program",
]
