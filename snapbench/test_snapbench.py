"""Self-tests of the benchmark: the oracle counts what it must, the layer
wrappers come out cleanly, and a checkout without sources is refused."""

import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import repro.core.controller as controller_module  # noqa: E402
from repro.core.controller import SnapController  # noqa: E402
from repro.dataplane.network import DeliveryRecord  # noqa: E402
from repro.lang.state import Store  # noqa: E402
from repro.topology.campus import campus_topology  # noqa: E402
from repro.workloads import replay  # noqa: E402

from layers import LayerTracer  # noqa: E402
from oracle import Oracle, Recorder, mismatches  # noqa: E402
from scenarios import dns_program, dns_trace  # noqa: E402


def _checked_replay():
    program = dns_program()
    snapshot = SnapController(campus_topology(), program).submit()
    trace = dns_trace(60, random.Random(3))
    oracle = Oracle()
    store, expected = oracle.expect(
        trace, program.full_policy(), Store(program.state_defaults)
    )
    network = snapshot.build_network()
    recorder = Recorder("sequential")
    replay(trace, network, engine=recorder)
    return recorder.records, expected, network, store, oracle


def test_oracle_counts_a_corrupted_record():
    records, expected, network, store, oracle = _checked_replay()
    assert oracle.packets == len(expected) == len(records)
    assert mismatches(records, expected, network.global_store(), store) == 0

    index = next(i for i, recs in enumerate(records) if recs and recs[0].egress)
    original = records[index][0]
    records[index] = [DeliveryRecord(original.packet, None, original.hops)]
    assert mismatches(records, expected, network.global_store(), store) == 1

    records[index] = [DeliveryRecord(
        original.packet.modify("dstport", 1), original.egress, original.hops
    )]
    assert mismatches(records, expected) == 1


def test_oracle_counts_a_corrupted_store_and_a_lost_packet():
    records, expected, network, store, _ = _checked_replay()
    tampered = network.global_store()
    tampered.write("susp-client", (12345,), 99)
    assert mismatches(records, expected, tampered, store) == 1
    assert mismatches(records[:-1], expected) == 1


def test_layer_wrappers_attribute_self_time_and_uninstall():
    original = controller_module.analyze_dependencies
    tracer = LayerTracer()
    tracer.install()
    try:
        assert controller_module.analyze_dependencies is not original
        with tracer.operation("compile"):
            SnapController(campus_topology(), dns_program()).submit()
    finally:
        tracer.uninstall()
    assert controller_module.analyze_dependencies is original
    for layer in ("analysis.dependencies", "xfdd.build", "milp.st_solve", "core.rules"):
        assert tracer.calls[layer] >= 1 and tracer.self_s[layer] > 0
    (op,) = [s for s in tracer.spans if s[1] is None]
    assert all(s[2] == op[0] for s in tracer.spans)
    # Self times of nested layers never exceed the operation's wall time.
    assert sum(tracer.self_s.values()) <= op[5] - op[4]


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "snapbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench / path.name)
    done = subprocess.run(
        [sys.executable, "snapbench/run.py", "--workload", "compile-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
