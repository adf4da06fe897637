"""xFDD apply-cache micro-benchmark (Table 3 applications).

For every Table 3 application (composed with assign-egress, as deployed),
measures xFDD composition time with the operation cache on vs. off and
reports the hit rate and intern-table size.  Writes a machine-readable
``BENCH_xfdd.json`` next to this file so future PRs can track the
trajectory of the composition engine.
"""

import time

import pytest

from repro.analysis.dependency import analyze_dependencies
from repro.apps import ALL_APPS, assign_egress, default_subnets, port_assumption
from repro.core.program import Program
from repro.lang import ast
from repro.xfdd.build import to_xfdd
from repro.xfdd.compose import Composer
from repro.xfdd.diagram import DiagramFactory, size
from repro.xfdd.order import TestOrder

from conftest import merge_bench_results
from workloads import print_table

_RESULTS = []
_ROUNDS = 3


def _deployed_program(app) -> Program:
    subnets = default_subnets(6)
    return Program(
        ast.Seq(app.policy, assign_egress(subnets)),
        assumption=port_assumption(subnets),
        state_defaults=app.state_defaults,
        registry=app.registry,
        name=app.name,
    )


def _compose_time(policy, registry, state_rank, use_cache: bool):
    """Best-of-N wall time of a full fresh-session composition."""
    best, composer = float("inf"), None
    for _ in range(_ROUNDS):
        order = TestOrder(registry, state_rank)
        composer = Composer(order, factory=DiagramFactory(), use_cache=use_cache)
        t0 = time.perf_counter()
        xfdd = to_xfdd(policy, composer)
        best = min(best, time.perf_counter() - t0)
    return best, composer, xfdd


@pytest.mark.parametrize("app_name", list(ALL_APPS))
def test_compose_cache(benchmark, app_name):
    app = ALL_APPS[app_name]()
    program = _deployed_program(app)
    policy = program.full_policy()
    state_rank = analyze_dependencies(policy).state_rank

    def run():
        return _compose_time(policy, program.registry, state_rank, True)

    cached_s, composer, xfdd = benchmark.pedantic(run, iterations=1, rounds=1)
    uncached_s, _, _ = _compose_time(policy, program.registry, state_rank, False)
    stats = composer.cache_stats()
    speedup = uncached_s / cached_s if cached_s else float("inf")
    _RESULTS.append({
        "app": app_name,
        "xfdd_size": size(xfdd),
        "cached_ms": round(cached_s * 1000, 3),
        "uncached_ms": round(uncached_s * 1000, 3),
        "speedup": round(speedup, 2),
        "hit_rate": round(stats["cache_hit_rate"], 4),
        "bypassed": stats["cache_bypassed"],
        "cache_entries": stats["cache_entries"],
        "intern_size": stats["intern_size"],
    })


def test_zz_report(benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    assert len(_RESULTS) == len(ALL_APPS)
    print_table(
        "xFDD composition: apply-cache on vs off (Table 3 apps + egress)",
        ("application", "xFDD size", "cached", "uncached", "speedup",
         "hit rate", "bypass", "intern"),
        [
            (
                row["app"],
                row["xfdd_size"],
                f"{row['cached_ms']:.1f}ms",
                f"{row['uncached_ms']:.1f}ms",
                f"{row['speedup']:.2f}x",
                f"{row['hit_rate'] * 100:.0f}%",
                "yes" if row["bypassed"] else "-",
                row["intern_size"],
            )
            for row in _RESULTS
        ],
    )
    # Merge: other benches (e.g. bench_controller_events) own other keys.
    merge_bench_results("apps", _RESULTS)
    # The engine must be caching *something* on every app.
    assert all(row["hit_rate"] > 0 for row in _RESULTS)
    # The adaptive bypass must keep every app near parity with the
    # uncached reference.  Before it, the TCP state machine composed at
    # 0.62x (the cache paid key construction on ~9k lookups whose
    # windowed hit rate had collapsed to ~1%); with it, the bypassed
    # apps measure 0.73-1.01x run to run — the pre-trip prefix still
    # pays cache overhead, and these are millisecond-scale best-of-3
    # wall-clock measurements on a shared host (healthy apps themselves
    # jitter in the 0.85-1.1x band).  The floor separates that noise
    # from the old pathology.
    assert all(row["speedup"] >= 0.7 for row in _RESULTS), [
        (row["app"], row["speedup"]) for row in _RESULTS
    ]
