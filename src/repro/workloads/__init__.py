"""Workload generators: YCSB mixes (uniform and Zipfian skew) plus the
open-loop fleet driver with its admission-control stack."""

from repro.workloads.openloop import (
    CohortBacklog,
    DEFAULT_SCENARIO,
    OpenLoopDriver,
    ScenarioError,
    SessionTable,
    TokenBucket,
    attach_open_loop,
    poisson_draw,
    slo_report,
    validate_scenario,
)
from repro.workloads.ycsb import (
    Distribution,
    WorkloadSpec,
    YCSB_A,
    YCSB_A_ZIPFIAN,
    YCSB_B,
    YCSB_C,
    ycsb,
)
from repro.workloads.zipfian import ZipfianGenerator

__all__ = [
    "CohortBacklog",
    "DEFAULT_SCENARIO",
    "Distribution",
    "OpenLoopDriver",
    "ScenarioError",
    "SessionTable",
    "TokenBucket",
    "WorkloadSpec",
    "attach_open_loop",
    "poisson_draw",
    "slo_report",
    "validate_scenario",
    "YCSB_A",
    "YCSB_A_ZIPFIAN",
    "YCSB_B",
    "YCSB_C",
    "ZipfianGenerator",
    "ycsb",
]
