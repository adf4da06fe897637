"""repro — a reproduction of SNAP (SIGCOMM 2016).

SNAP: Stateful Network-Wide Abstractions for Packet Processing.
Arashloo, Koral, Greenberg, Rexford, Walker.

Public API highlights::

    from repro import SnapController, Program, campus_topology
    from repro.apps import dns_tunnel_detect, assign_egress

    program = Program.from_source(source, assumption=...)
    controller = SnapController(campus_topology(), program)

    snap = controller.submit()           # cold start: placement+routing+rules
    network = controller.network()       # live simulated data plane

    snap = controller.update_policy(p2)  # recompile; network() hot-swapped,
                                         # state-store contents carried over
    snap = controller.fail_link("C1", "C5")   # standing TE model re-solved
    snap = controller.restore_link("C1", "C5")
    snap = controller.set_demands(matrix)

Each event returns an immutable, generation-numbered ``Snapshot``.
``SnapController`` is the one compile entry point; ``docs/api.md``
describes the lifecycle and maps the names removed in 2.0.0 (the
``Compiler`` class, ``CompilationResult``) onto it.
"""

__version__ = "2.0.0"

from repro.core import (  # noqa: F401
    CompilerOptions,
    Program,
    Snapshot,
    SnapController,
)
from repro.lang import (  # noqa: F401
    Packet,
    Store,
    make_packet,
    parse,
    parse_predicate,
    pretty,
    run,
    run_sequence,
)
from repro.topology import (  # noqa: F401
    Topology,
    campus_topology,
    gravity_traffic_matrix,
    igen_topology,
    table5_topology,
)
