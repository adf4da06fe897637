"""Tests for the unified telemetry layer (:mod:`repro.obs`).

The load-bearing properties:

* the metrics registry is exact under concurrent hammering and its
  Prometheus exposition passes the grammar validator;
* spans nest parent/child on one thread and stitch across the cluster
  wire (worker spans adopt the coordinator's trace id);
* postcard sampling is **behaviour-preserving**: a sampled replay is
  field-for-field identical to an unsampled one — records, stores,
  link counters — on every engine, because the traced walk executes
  the same lowered opcodes;
* telemetry off means the fast paths stay fast: the sequential engine
  takes its batch path, record methods are branch-only, and a replay
  stays within a loose factor of the disabled run (the precise ≤2 %
  guard lives in ``benchmarks/bench_telemetry.py``).
"""

import json
import threading

import pytest

from repro import obs, workloads
from repro.apps import dns_tunnel_detect
from repro.cluster import ClusterEngine
from repro.dataplane.engine import (
    ProcessPoolEngine,
    SequentialEngine,
    ShardedEngine,
    get_engine,
)
from repro.obs import postcards
from repro.obs.metrics import MetricsRegistry, validate_prometheus_text
from repro.obs.runstats import RunStats
from repro.obs.tracing import NOOP_SPAN, TRACER, Tracer
from repro.obs import __main__ as obs_cli
from repro.workloads import replay

from tests.test_engine import SUBNETS, compiled, record_view, sharded_monitor


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with default telemetry, empty rings."""
    obs.configure(obs.TelemetryConfig())
    TRACER.reset()
    postcards.reset()
    yield
    obs.configure(obs.TelemetryConfig())
    TRACER.reset()
    postcards.reset()


# -- metrics registry ---------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "help").labels(kind="a").inc()
        registry.counter("t_total").labels(kind="a").inc(4)
        registry.gauge("t_gauge").set(7)
        registry.gauge("t_gauge").labels().dec(2)
        hist = registry.histogram("t_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(50.0)  # beyond the last bound: +Inf only

        snap = registry.snapshot()
        assert snap["t_total"]["series"][0]["value"] == 5
        assert snap["t_total"]["series"][0]["labels"] == {"kind": "a"}
        assert snap["t_gauge"]["series"][0]["value"] == 5
        series = snap["t_seconds"]["series"][0]["value"]
        assert series["count"] == 3
        assert series["buckets"] == {"0.1": 1, "1.0": 2}

    def test_registration_is_idempotent_but_kind_conflicts_raise(self):
        registry = MetricsRegistry()
        first = registry.counter("t_total")
        assert registry.counter("t_total") is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("t_total")
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("0bad")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("t_ok").labels(**{"bad-label": "x"})

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        child = registry.counter("t_total").labels(kind="a")
        child.inc(100)
        registry.histogram("t_seconds").observe(1.0)
        assert child.value == 0
        # Handles registered while disabled record once enabled.
        registry.enabled = True
        child.inc()
        assert child.value == 1

    def test_exact_under_eight_thread_hammering(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total")
        gauge = registry.gauge("t_gauge")
        hist = registry.histogram("t_seconds")
        rounds = 2000

        def hammer(thread_index):
            mine = counter.labels(thread=str(thread_index % 2))
            for _ in range(rounds):
                mine.inc()
                gauge.inc()
                hist.observe(0.001)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Two label sets, four threads each: not one increment lost.
        assert sum(c.value for c in counter.children()) == 8 * rounds
        assert gauge.labels().value == 8 * rounds
        assert hist.labels().count == 8 * rounds

    def test_prometheus_output_is_grammar_valid(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "with help").labels(
            path='quo"ted\\slash', kind="a b"
        ).inc(2)
        registry.histogram("t_seconds", "timings").observe(0.3)
        text = registry.render_prometheus()
        assert validate_prometheus_text(text) == []
        assert "t_seconds_bucket" in text and "t_seconds_count" in text

    def test_validator_rejects_malformed_text(self):
        bad = "bad metric line\n# TYPE t_seconds histogram\n"
        problems = validate_prometheus_text(bad)
        assert any("malformed sample" in p for p in problems)
        assert any("missing its _bucket" in p for p in problems)


# -- trace spans --------------------------------------------------------------


class TestSpans:
    def test_nesting_records_parent_child(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        inner_rec, outer_rec = tracer.spans()
        assert inner_rec["name"] == "inner"
        assert inner_rec["parent_id"] == outer_rec["span_id"]
        assert outer_rec["parent_id"] is None
        assert inner_rec["duration"] is not None

    def test_explicit_dict_parent_stitches_the_trace(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            context = outer.context()
        with tracer.span("remote", parent=context) as remote:
            assert remote.trace_id == context["trace_id"]
            assert remote.parent_id == context["span_id"]

    def test_disabled_tracer_yields_shared_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.span("anything") as span:
            assert span is NOOP_SPAN
            span.set_attr("k", "v")  # all no-ops
        assert tracer.spans() == []

    def test_ring_is_bounded(self):
        tracer = Tracer(ring_size=8)
        for index in range(20):
            with tracer.span("s", index=index):
                pass
        spans = tracer.spans()
        assert len(spans) == 8
        assert spans[0]["attrs"]["index"] == 12

    def test_capture_slices_out_one_jobs_spans(self):
        tracer = Tracer()
        with tracer.span("before"):
            pass
        with tracer.capture() as captured:
            with tracer.span("job"):
                pass
        assert [s["name"] for s in captured] == ["job"]
        tracer.adopt(captured)
        assert [s["name"] for s in tracer.spans()].count("job") == 2


# -- postcards: behaviour-preserving sampling --------------------------------


def _monitor_nets():
    snapshot, _ = sharded_monitor()
    return snapshot


def assert_sampled_run_identical(make_engine, every=3, count=60):
    """Engine run with sampling on ≡ the same run with sampling off."""
    snapshot = _monitor_nets()
    trace = list(workloads.background_traffic(SUBNETS, count=count, seed=9))

    net_plain = snapshot.build_network()
    plain = make_engine().run(net_plain, trace)

    net_sampled = snapshot.build_network()
    with postcards.sampling(every):
        sampled = make_engine().run(net_sampled, trace)

    for per_plain, per_sampled in zip(plain, sampled):
        assert record_view(per_plain) == record_view(per_sampled)
    assert net_plain.global_store() == net_sampled.global_store()
    assert net_plain.link_packets == net_sampled.link_packets
    assert record_view(net_plain.deliveries) == record_view(
        net_sampled.deliveries
    )

    cards = postcards.postcards()
    assert {card["index"] for card in cards} == set(range(0, count, every))
    return cards


class TestPostcards:
    def test_sampler_is_deterministic_on_index(self):
        sampler = postcards.PostcardSampler(4)
        assert [i for i in range(10) if sampler.should(i)] == [0, 4, 8]
        with pytest.raises(ValueError):
            postcards.PostcardSampler(0)

    def test_sequential_sampled_run_identical_and_postcards_full(self):
        cards = assert_sampled_run_identical(SequentialEngine)
        card = cards[0]
        kinds = [event["ev"] for event in card["events"]]
        assert "process" in kinds  # visited at least one switch
        assert "hop" in kinds or any(
            k in ("emit", "drop", "pause") for k in kinds
        )
        # The monitor app increments count[inport] on every packet.
        assert any(k in ("state_delta", "state_write") for k in kinds)
        assert any(k in ("emit", "drop") for k in kinds)
        assert all(
            delivery["egress"] is not None or delivery["hops"] >= 0
            for delivery in card["deliveries"]
        )

    def test_sharded_sampled_run_identical(self):
        assert_sampled_run_identical(ShardedEngine)

    def test_process_pool_sampled_run_identical(self):
        assert_sampled_run_identical(lambda: get_engine("process"), count=30)

    @pytest.mark.parametrize("make_engine", [SequentialEngine, ShardedEngine])
    def test_every_crossed_link_is_a_hop_event(self, make_engine):
        cards = assert_sampled_run_identical(make_engine, every=1)
        network = _monitor_nets().build_network()
        make_engine().run(network, list(
            workloads.background_traffic(SUBNETS, count=60, seed=9)
        ))
        hops = sum(
            event["ev"] == "hop" for card in cards for event in card["events"]
        )
        assert hops == sum(network.link_packets.values()) > 0

    def test_postcards_count_metric_tracks_ring(self):
        before = obs.REGISTRY.counter("snap_postcards_total").labels().value
        assert_sampled_run_identical(SequentialEngine, every=10, count=20)
        after = obs.REGISTRY.counter("snap_postcards_total").labels().value
        assert after - before == 2


# -- engine spans and run stats -----------------------------------------------


class TestEngineTelemetry:
    def test_sharded_run_emits_engine_and_lane_spans(self):
        snapshot, _ = sharded_monitor()
        trace = list(workloads.background_traffic(SUBNETS, count=30, seed=3))
        ShardedEngine().run(snapshot.build_network(), trace)
        runs = TRACER.spans("engine.run")
        assert runs and runs[-1]["attrs"]["engine"] == "sharded"
        lanes = [
            s for s in TRACER.spans("engine.lane")
            if s["trace_id"] == runs[-1]["trace_id"]
        ]
        assert len(lanes) == runs[-1]["attrs"]["lanes"]
        assert all(s["parent_id"] == runs[-1]["span_id"] for s in lanes)

    def test_process_engine_inline_run_is_attributed_to_process(self):
        snapshot, _ = sharded_monitor()
        trace = list(workloads.background_traffic(SUBNETS, count=30, seed=3))
        runs = obs.REGISTRY.counter("snap_engine_runs_total")
        packets = obs.REGISTRY.counter("snap_engine_packets_total")
        before = {
            engine: (
                runs.labels(engine=engine).value,
                packets.labels(engine=engine).value,
            )
            for engine in ("process", "sharded")
        }
        engine = ProcessPoolEngine(max_workers=1)
        try:
            engine.run(snapshot.build_network(), trace)
        finally:
            engine.close()
        spans = TRACER.spans("engine.run")
        assert [s["attrs"]["engine"] for s in spans] == ["process"]
        assert runs.labels(engine="process").value == before["process"][0] + 1
        assert packets.labels(engine="process").value == (
            before["process"][1] + len(trace)
        )
        assert (
            runs.labels(engine="sharded").value,
            packets.labels(engine="sharded").value,
        ) == before["sharded"]
        assert engine.last_run_stats["lanes"] == spans[0]["attrs"]["lanes"]

    def test_cluster_engine_inline_run_is_attributed_to_cluster(self):
        """All state global: one lane, so the cluster engine runs inline
        — and that run is still the cluster engine's, in one span."""
        snapshot, _ = compiled(app=dns_tunnel_detect())
        trace = list(workloads.background_traffic(SUBNETS, count=30, seed=3))
        runs = obs.REGISTRY.counter("snap_engine_runs_total")
        packets = obs.REGISTRY.counter("snap_engine_packets_total")
        before = {
            engine: (
                runs.labels(engine=engine).value,
                packets.labels(engine=engine).value,
            )
            for engine in ("cluster", "sharded")
        }
        engine = ClusterEngine(workers=2)
        try:
            engine.run(snapshot.build_network(), trace)
            assert engine.coordinator is None  # inline: no daemons
        finally:
            engine.close()
        spans = TRACER.spans("engine.run")
        assert [s["attrs"]["engine"] for s in spans] == ["cluster"]
        assert spans[0]["attrs"]["lanes"] == 1
        assert runs.labels(engine="cluster").value == before["cluster"][0] + 1
        assert packets.labels(engine="cluster").value == (
            before["cluster"][1] + len(trace)
        )
        assert (
            runs.labels(engine="sharded").value,
            packets.labels(engine="sharded").value,
        ) == before["sharded"]
        assert engine.last_run_stats["lanes"] == 1

    def test_run_stats_reads_like_the_old_dict(self):
        stats = RunStats(lanes=4, parallelism=2, collapse_reasons={})
        assert dict(stats) == {
            "lanes": 4, "parallelism": 2, "collapse_reasons": {},
        }
        assert stats["lanes"] == 4
        assert "workers" not in stats
        with pytest.raises(KeyError):
            stats["workers"]
        assert stats.get("workers", 0) == 0
        assert bool(RunStats()) is False

    def test_run_stats_publish_feeds_the_registry(self):
        runs = obs.REGISTRY.counter("snap_engine_runs_total")
        packets = obs.REGISTRY.counter("snap_engine_packets_total")
        before = runs.labels(engine="t-pub").value
        RunStats(lanes=3, payload_bytes=100).publish("t-pub", packets=17)
        assert runs.labels(engine="t-pub").value == before + 1
        assert packets.labels(engine="t-pub").value >= 17
        lanes = obs.REGISTRY.gauge("snap_engine_lanes")
        assert lanes.labels(engine="t-pub").value == 3

    def test_disabled_telemetry_keeps_the_sequential_fast_path(self):
        obs.configure(False)
        snapshot, _ = compiled(policy=workloads_noop_policy())
        network = snapshot.build_network()
        calls = []
        original = network.inject_many
        network.inject_many = lambda arrivals: (
            calls.append(len(list(arrivals))) or original(arrivals)
        )
        trace = list(workloads.background_traffic(SUBNETS, count=12, seed=1))
        SequentialEngine().run(network, trace)
        assert calls == [12]  # one batch call, no per-packet branching
        assert TRACER.spans() == []
        assert postcards.postcards() == []


def workloads_noop_policy():
    from repro.apps import assign_egress

    return assign_egress(SUBNETS)


# -- cluster round trip -------------------------------------------------------


class TestClusterTelemetry:
    def test_worker_spans_and_postcards_cross_the_wire(self):
        snapshot, _ = sharded_monitor()
        trace = list(workloads.background_traffic(SUBNETS, count=40, seed=5))

        net_seq = snapshot.build_network()
        seq = SequentialEngine().run(net_seq, trace)

        engine = ClusterEngine(workers=2)
        try:
            net_clu = snapshot.build_network()
            with postcards.sampling(5):
                clu = engine.run(net_clu, trace)
        finally:
            engine.close()

        # Sampling over the wire is still behaviour-preserving.
        for per_seq, per_clu in zip(seq, clu):
            assert record_view(per_seq) == record_view(per_clu)
        assert net_seq.global_store() == net_clu.global_store()
        assert net_seq.link_packets == net_clu.link_packets

        runs = [
            s for s in TRACER.spans("engine.run")
            if s["attrs"].get("engine") == "cluster"
        ]
        assert runs
        run = runs[-1]
        workers = [
            s for s in TRACER.spans("worker.run_shard")
            if s["trace_id"] == run["trace_id"]
        ]
        # Every shard's worker span stitched into the coordinator trace,
        # parented directly under engine.run, from a different process.
        assert len(workers) == run["attrs"]["lanes"]
        parent_pid = run["span_id"].split("-")[0]
        for span in workers:
            assert span["parent_id"] == run["span_id"]
            assert span["span_id"].split("-")[0] != parent_pid

        # The workers' sampled postcards came back in the RESULT frames.
        cards = postcards.postcards()
        assert {c["index"] for c in cards} == set(range(0, 40, 5))
        assert engine.last_run_stats["workers"] == 2


# -- configuration and snapshot ----------------------------------------------


class TestConfiguration:
    def test_resolve_config_accepts_bool_str_and_config(self):
        assert obs.resolve_config(True).metrics is True
        assert obs.resolve_config("off").tracing is False
        config = obs.TelemetryConfig(postcard_every=7)
        assert obs.resolve_config(config) is config
        with pytest.raises(ValueError):
            obs.resolve_config("sometimes")
        with pytest.raises(ValueError):
            obs.TelemetryConfig(postcard_every=-1)

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("SNAP_TELEMETRY", "off")
        monkeypatch.setenv("SNAP_TELEMETRY_POSTCARDS", "9")
        config = obs.resolve_config(None)
        assert config.metrics is False and config.tracing is False
        assert config.postcard_every == 9

    def test_compiler_options_resolve_telemetry(self):
        from repro.core.options import CompilerOptions

        options = CompilerOptions(telemetry="on")
        assert isinstance(options.telemetry, obs.TelemetryConfig)
        assert CompilerOptions().telemetry is None

    def test_configure_flips_the_shared_switches(self):
        obs.configure(obs.TelemetryConfig(
            metrics=False, tracing=False, postcard_every=4
        ))
        assert obs.REGISTRY.enabled is False
        assert TRACER.enabled is False
        assert postcards.active_sampler().every == 4

    def test_write_snapshot_roundtrips(self, tmp_path):
        with TRACER.span("t.snapshot"):
            pass
        path = obs.write_snapshot(str(tmp_path / "snap.json"))
        data = json.loads(open(path).read())
        assert data["meta"]["telemetry"]["metrics"] is True
        assert any(s["name"] == "t.snapshot" for s in data["spans"])
        assert validate_prometheus_text(data["prometheus"]) == []
        assert obs.write_snapshot(None) is None  # no path configured


# -- CLI + acceptance flow ----------------------------------------------------


class TestCli:
    def test_check_prom_passes(self, capsys):
        assert obs_cli.main(["check-prom"]) == 0
        assert "prometheus exporter ok" in capsys.readouterr().out

    def test_dump_renders_compile_spans_metrics_and_postcards(
        self, tmp_path, capsys
    ):
        # The acceptance flow: compile, replay with sampling, snapshot,
        # then `python -m repro.obs dump` must show compile-phase spans,
        # per-lane engine metrics, and at least one sampled postcard.
        snapshot, _ = sharded_monitor()
        network = snapshot.build_network()
        trace = workloads.background_traffic(SUBNETS, count=24, seed=4)
        with postcards.sampling(6):
            stats = replay(trace, network, engine=ShardedEngine())
        assert stats.sent == 24
        path = obs.write_snapshot(str(tmp_path / "telemetry.json"))

        assert obs_cli.main(["dump", path]) == 0
        out = capsys.readouterr().out
        assert "compile.phase" in out
        assert "engine.lane" in out and "engine.run" in out
        assert "snap_engine_packets_total" in out
        assert "pkt#0" in out  # index 0 is always sampled

    def test_dump_prometheus_is_valid(self, tmp_path, capsys):
        path = obs.write_snapshot(str(tmp_path / "t.json"))
        assert obs_cli.main(["dump", path, "--prometheus"]) == 0
        assert validate_prometheus_text(capsys.readouterr().out) == []
