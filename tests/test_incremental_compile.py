"""Incremental delta compilation: equivalence, invalidation, provenance.

The tentpole claim is that ``update_policy`` with the persistent
:class:`~repro.xfdd.incremental.CompileSession` (and the content-keyed
solve memo) produces snapshots *semantically identical* to the forced
from-scratch path — same placement, same routing, byte-identical data-
plane behaviour — while reusing unchanged sub-policies' artifacts.
"""

import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.dependency import (
    DependencySlicer,
    analyze_dependencies,
    st_dep,
)
from repro.analysis.packet_state import (
    packet_state_mapping,
    packet_state_mapping_paths,
)
from repro.core.controller import SnapController
from repro.core.program import Program
from repro.lang import ast, make_packet
from repro.lang.ast import state_variables
from repro.lang.fingerprint import fingerprint, fingerprint_hex
from repro.topology.campus import campus_topology
from repro.xfdd.build import build_xfdd
from repro.xfdd.incremental import CompileSession

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
from workloads import composed_program, dns_tunnel_program  # noqa: E402

NUM_APPS = 4
NUM_PORTS = 6


# -- helpers ------------------------------------------------------------------


def flatten_parallel(policy):
    if isinstance(policy, ast.Parallel):
        return flatten_parallel(policy.left) + flatten_parallel(policy.right)
    return [policy]


def edit_arm(program: Program, k: int, salt: int) -> Program:
    """A single-app edit: wrap arm ``k`` in a guard that drops packets
    with ``srcport = 40000 + salt`` — a behavioural change that leaves
    every state variable's reads/writes (hence S_uv and the dependency
    graph) untouched."""
    par, egress = program.policy.left, program.policy.right
    arms = flatten_parallel(par)
    arms[k % len(arms)] = ast.Seq(
        ast.Not(ast.Test("srcport", 40000 + salt)), arms[k % len(arms)]
    )
    return Program(
        ast.Seq(ast.par_all(arms), egress),
        assumption=program.assumption,
        state_defaults=dict(program.state_defaults),
        name=program.name,
    )


def record_view(records):
    return [(r.egress, r.hops, r.packet) for r in records]


def replay_trace(snapshot):
    """Deterministic packet workload injected into a fresh data plane."""
    network = snapshot.build_network()
    packets = [
        (
            make_packet(
                srcip=f"10.0.{src}.2",
                dstip=f"10.0.{dst}.1",
                srcport=40000 + src,
                dstport=53,
            ),
            src,
        )
        for src in range(1, NUM_PORTS + 1)
        for dst in range(1, NUM_PORTS + 1)
        if src != dst
    ]
    return [record_view(r) for r in network.inject_many(packets)]


# -- fingerprints -------------------------------------------------------------


class TestFingerprint:
    def test_identity_insensitive(self):
        a = composed_program(NUM_APPS, NUM_PORTS).full_policy()
        b = composed_program(NUM_APPS, NUM_PORTS).full_policy()
        assert a is not b
        assert fingerprint(a) == fingerprint(b)

    def test_distinguishes_edits(self):
        base = composed_program(NUM_APPS, NUM_PORTS)
        seen = {fingerprint(base.full_policy())}
        for k in range(NUM_APPS):
            fp = fingerprint(edit_arm(base, k, 0).full_policy())
            assert fp not in seen
            seen.add(fp)

    def test_pinned_vectors(self):
        # The encoding is a persistent cache key: these break ONLY if the
        # canonical encoding changes, which invalidates cross-session
        # artifact comparison and must be deliberate.
        assert fingerprint_hex(ast.Id()) == "6bcaff488d3449ff36d5b9025380bd13"
        assert fingerprint_hex(ast.Drop()) == "799072067350cd4c11039e51206730a3"
        assert (
            fingerprint_hex(ast.Test("srcport", 53))
            == "fd459ea1bc136aafe7cf9514c55708c9"
        )

    def test_pickle_roundtrip_recomputes(self):
        policy = dns_tunnel_program(NUM_PORTS).full_policy()
        fp = fingerprint(policy)
        clone = pickle.loads(pickle.dumps(policy))
        # The cached digest is not serialized; recomputation agrees.
        assert getattr(clone, "_fingerprint", None) is None
        assert fingerprint(clone) == fp


# -- analysis delta paths -----------------------------------------------------


class TestAnalysisEquivalence:
    @pytest.mark.parametrize("make", [
        lambda: dns_tunnel_program(NUM_PORTS),
        lambda: composed_program(NUM_APPS, NUM_PORTS),
    ])
    def test_slicer_matches_st_dep(self, make):
        policy = make().full_policy()
        plain = analyze_dependencies(policy)
        sliced = analyze_dependencies(policy, slicer=DependencySlicer())
        assert set(plain.graph.edges) == set(sliced.graph.edges)
        assert plain.state_rank == sliced.state_rank
        assert plain.tied == sliced.tied and plain.dep == sliced.dep

    @pytest.mark.parametrize("make", [
        lambda: dns_tunnel_program(NUM_PORTS),
        lambda: composed_program(NUM_APPS, NUM_PORTS),
    ])
    def test_mapping_matches_path_enumeration(self, make):
        program = make()
        xfdd = build_xfdd(program.full_policy(), program.registry)
        ports = list(range(1, NUM_PORTS + 1))
        fast = packet_state_mapping(xfdd, ports, ports, memo={})
        slow = packet_state_mapping_paths(xfdd, ports, ports)
        assert dict(fast.items()) == dict(slow.items())


# -- the session --------------------------------------------------------------


class TestCompileSession:
    def test_splice_reuses_unchanged_arms(self):
        base = composed_program(NUM_APPS, NUM_PORTS)
        session = CompileSession()
        deps = analyze_dependencies(base.full_policy())
        session.begin_compile(base.registry, deps.state_rank)
        session.build(base.full_policy())

        edited = edit_arm(base, 0, 7)
        deps2 = analyze_dependencies(edited.full_policy())
        session.begin_compile(edited.registry, deps2.state_rank)
        session.build(edited.full_policy())
        arms = flatten_parallel(edited.policy.left)
        assert not session.was_reused(arms[0])  # the dirty arm
        assert all(session.was_reused(arm) for arm in arms[1:])

    def test_rank_change_invalidates_subtree(self):
        session = CompileSession()
        program = dns_tunnel_program(NUM_PORTS)
        policy = program.full_policy()
        deps = analyze_dependencies(policy)
        session.begin_compile(program.registry, deps.state_rank)
        session.build(policy)
        # Shift every rank: no entry *containing state* may be served
        # (state-free subtrees are order-insensitive and may survive).
        shifted = {v: r + 1 for v, r in deps.state_rank.items()}
        session.begin_compile(program.registry, shifted)
        session.build(policy)
        assert not session.was_reused(policy)
        for sub in (policy.left, policy.right):
            if state_variables(sub):
                assert not session.was_reused(sub)


# -- controller equivalence (the property) ------------------------------------


@pytest.fixture(scope="module")
def warm_controller():
    controller = SnapController(
        campus_topology(), composed_program(NUM_APPS, NUM_PORTS)
    )
    controller.submit()
    return controller


class TestIncrementalEquivalence:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(k=st.integers(min_value=0, max_value=NUM_APPS - 1),
           salt=st.integers(min_value=0, max_value=999))
    def test_single_app_edit_matches_forced_cold(self, warm_controller, k, salt):
        """Random single-app edits: the incremental snapshot is
        semantically equivalent to the forced from-scratch compile, and
        its data plane replays byte-identically."""
        edited = edit_arm(
            composed_program(NUM_APPS, NUM_PORTS), k, salt
        )
        warm = warm_controller.update_policy(edited)
        cold = warm_controller.update_policy(edited, incremental=False)
        assert dict(warm.placement) == dict(cold.placement)
        assert dict(warm.mapping.items()) == dict(cold.mapping.items())
        assert warm.routing.paths == cold.routing.paths
        assert replay_trace(warm) == replay_trace(cold)

    def test_solve_reused_when_mapping_unchanged(self, warm_controller):
        edited = edit_arm(composed_program(NUM_APPS, NUM_PORTS), 1, 123)
        before = warm_controller.backend.calls["st_solves"]
        snap = warm_controller.update_policy(edited)
        assert snap.model_stats["solve_reused"] is True
        assert warm_controller.backend.calls["st_solves"] == before

    def test_forced_cold_always_solves(self, warm_controller):
        edited = edit_arm(composed_program(NUM_APPS, NUM_PORTS), 2, 321)
        before = warm_controller.backend.calls["st_solves"]
        snap = warm_controller.update_policy(edited, incremental=False)
        assert snap.model_stats["incremental"] is False
        assert snap.model_stats["solve_reused"] is False
        assert warm_controller.backend.calls["st_solves"] == before + 1

    def test_artifact_provenance_counts(self, warm_controller):
        base = composed_program(NUM_APPS, NUM_PORTS)
        warm_controller.update_policy(base)
        snap = warm_controller.update_policy(edit_arm(base, 0, 55))
        stats = snap.model_stats
        assert stats["incremental"] is True
        # Units: NUM_APPS parallel arms + the egress segment + the
        # assumption segment; exactly one arm was dirtied.
        assert stats["incremental_reused"] + stats["incremental_recompiled"] == len(
            snap.artifacts
        )
        assert stats["incremental_recompiled"] == 1
        recompiled = [a for a in snap.artifacts.values() if not a.reused]
        assert len(recompiled) == 1
        assert recompiled[0].label.startswith("seq1.arm")

    def test_artifacts_record_unit_slices(self, warm_controller):
        snap = warm_controller.update_policy(
            composed_program(NUM_APPS, NUM_PORTS)
        )
        for artifact in snap.artifacts.values():
            assert artifact.fingerprint == fingerprint_hex(artifact.policy)
            assert artifact.dep_edges == st_dep(artifact.policy)
            assert artifact.state_vars == frozenset(
                state_variables(artifact.policy)
            )


class TestInterleavedEvents:
    def test_fail_link_between_policy_updates(self):
        controller = SnapController(
            campus_topology(), composed_program(NUM_APPS, NUM_PORTS)
        )
        base = composed_program(NUM_APPS, NUM_PORTS)
        controller.submit()
        controller.fail_link("C1", "C5")
        # update_policy under failure solves against the degraded graph:
        # the solve key differs from the cold-start one, so no stale
        # reuse — and the routing avoids the dead link.
        snap = controller.update_policy(edit_arm(base, 0, 1))
        assert snap.model_stats["solve_reused"] is False
        path = snap.routing.path(1, 6)
        assert ("C1", "C5") not in set(zip(path, path[1:]))
        controller.restore_link("C1", "C5")
        # Same edit again, now on the restored graph: key matches the
        # earlier full-graph solve for this mapping -> reused.
        snap2 = controller.update_policy(edit_arm(base, 0, 2))
        assert snap2.model_stats["solve_reused"] is True
        assert snap2.routing.path(1, 6) == snap2.routing.path(1, 6)

    def test_topology_change_invalidates_solve_reuse(self):
        controller = SnapController(
            campus_topology(), composed_program(NUM_APPS, NUM_PORTS)
        )
        controller.submit()
        bigger = campus_topology()
        bigger.add_link("C1", "C4", 10.0)
        controller.replace_topology(bigger)
        snap = controller.update_policy(
            composed_program(NUM_APPS, NUM_PORTS)
        )
        # New graph -> new solve key -> genuine re-solve.
        assert snap.model_stats["solve_reused"] is False

    def test_resubmit_resets_session(self):
        controller = SnapController(
            campus_topology(), composed_program(NUM_APPS, NUM_PORTS)
        )
        controller.submit()
        snap = controller.submit()
        assert snap.model_stats["incremental_reused"] == 0
        assert snap.model_stats["solve_reused"] is False


class TestShimSetters:
    """The setter contracts of the removed ``Compiler`` shim, held by the
    controller's own session mutator."""

    def test_topology_setter_resets_failures(self):
        controller = SnapController(
            campus_topology(), dns_tunnel_program(NUM_PORTS)
        )
        controller.submit()
        controller.fail_link("C1", "C5")
        assert controller._te_model is not None
        controller.replace_topology(campus_topology())
        assert controller.failed_links == frozenset()
        assert controller._te_model is None
