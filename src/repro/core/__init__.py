"""The compiler core: programs, the controller session, and snapshots."""

from repro.core.controller import SnapController
from repro.core.options import CompilerOptions
from repro.core.program import Program
from repro.core.report import compilation_report
from repro.core.result import (
    EVENT_SCENARIOS,
    SCENARIO_PHASES,
    Snapshot,
)

__all__ = [
    "EVENT_SCENARIOS",
    "SCENARIO_PHASES",
    "CompilerOptions",
    "Program",
    "Snapshot",
    "SnapController",
    "compilation_report",
]
