"""The k-machine model simulator (Klauck, Nanongkai, Pandurangan, Robinson).

This package is the substrate the paper's algorithms run on: ``k``
machines on a complete network of bandwidth-``B`` links, computing in
synchronous rounds, with rounds and messages as the cost measures.

Public surface
--------------
* :class:`Simulator` / :func:`run_program` — execute a program.
* :class:`Program` / :class:`FunctionProgram` — protocol base classes.
* :class:`MachineContext` — per-machine rank/RNG/messaging API.
* :mod:`repro.kmachine.collectives` — star broadcast/gather, tree reduce.
* :class:`Network` — bandwidth-constrained clique (rarely used directly).
* :class:`Metrics` — rounds/messages/bits accounting.
* :class:`CostModel` — α–β model for simulated wall-clock.
* :class:`FaultPlan` / :class:`FaultInjector` — deterministic fault
  injection (drops, duplication, corruption, reordering, outages,
  crash-stop failures).
* :class:`ReliabilityConfig` / :class:`ReliableMachineContext` and the
  ``reliable_*`` helpers — ACK/retransmit hardening on faulty links.
"""

from .collectives import broadcast, gather, tree_reduce
from .errors import (
    AddressError,
    BandwidthExceededError,
    DeadlockError,
    FaultError,
    KMachineError,
    PeerCrashedError,
    ProtocolError,
    RetriesExhaustedError,
)
from .faults import (
    CorruptedPayload,
    Crash,
    FaultInjector,
    FaultPlan,
    LinkFaults,
    Outage,
)
from .machine import NULL_OBS, FunctionProgram, MachineContext, NullObs, Program
from .message import Message
from .metrics import Metrics, RoundRecord
from .network import LinkStats, Network
from .reliable import (
    RELIABLE_ACK_TAG,
    Envelope,
    ReliabilityConfig,
    ReliableMachineContext,
    payload_checksum,
    reliable_broadcast,
    reliable_gather,
    reliable_recv,
    reliable_send,
)
from .rng import spawn_named_stream, spawn_streams
from .simulator import OBSERVE_LEVELS, SimulationResult, Simulator, run_program
from .sizing import DEFAULT_POLICY, SizingPolicy, payload_bits
from .timing import DEFAULT_COST_MODEL, ZERO_COST_MODEL, CostModel
from .tracing import NullTracer, TraceEvent, Tracer

__all__ = [
    "AddressError",
    "BandwidthExceededError",
    "CorruptedPayload",
    "CostModel",
    "Crash",
    "DEFAULT_COST_MODEL",
    "DEFAULT_POLICY",
    "DeadlockError",
    "Envelope",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FunctionProgram",
    "KMachineError",
    "LinkFaults",
    "LinkStats",
    "MachineContext",
    "Message",
    "Metrics",
    "NULL_OBS",
    "Network",
    "NullObs",
    "NullTracer",
    "OBSERVE_LEVELS",
    "Outage",
    "PeerCrashedError",
    "Program",
    "ProtocolError",
    "RELIABLE_ACK_TAG",
    "ReliabilityConfig",
    "ReliableMachineContext",
    "RetriesExhaustedError",
    "RoundRecord",
    "SimulationResult",
    "Simulator",
    "SizingPolicy",
    "TraceEvent",
    "Tracer",
    "ZERO_COST_MODEL",
    "broadcast",
    "gather",
    "payload_bits",
    "payload_checksum",
    "reliable_broadcast",
    "reliable_gather",
    "reliable_recv",
    "reliable_send",
    "run_program",
    "spawn_named_stream",
    "spawn_streams",
    "tree_reduce",
]
