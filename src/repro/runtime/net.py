"""Cross-host asyncio-TCP execution backend.

The third executor for k-machine :class:`~repro.kmachine.machine.Program`
objects, after the in-process simulator (exact rounds/bits, modelled
time) and the pipe-based multiprocess backend (real processes, but all
traffic funnelled through coordinator pipes on one box).  Here the k
machines are separate OS processes — on one host or many — wired as
the model prescribes:

* **a clique of persistent TCP links**: peers exchange their round
  outboxes *directly*, pairwise, speaking the length-prefixed binary
  codec (:mod:`repro.runtime.codec`) with zero-copy NumPy buffers and
  no pickle on any per-round path (per-round frames are encoded and
  decoded in strict mode, so a hot-path pickle is a hard
  :class:`~repro.runtime.codec.CodecError`, not a silent slowdown);
* **a coordinator enforcing round synchrony**: each peer reports a
  payload-free :class:`~repro.runtime.transport.RoundUp` (per-link
  message/bit counts, measured compute seconds) over its control link
  and blocks until the coordinator's
  :class:`~repro.runtime.transport.RoundDown` releases the next round
  with a delivery manifest (which peers' data frames to collect) —
  the barrier carries O(k) words per round while the data plane
  carries the protocol's real communication;
* **crash detection**: connect/read timeouts and EOFs on control links
  map dead peers onto the same
  :class:`~repro.kmachine.errors.PeerCrashedError` /
  :class:`~repro.runtime.multiprocess.WorkerCrashedError` machinery
  the other backends use, so the supervised drivers' re-shard /
  re-elect recovery runs unchanged; crash-only
  :class:`~repro.kmachine.faults.FaultPlan` schedules are injected by
  hard-killing the scheduled peer process at its round.

Because the coordinator aggregates each round's per-link traffic from
the RoundUp reports, it maintains a real
:class:`~repro.kmachine.metrics.Metrics` — per-tag and per-link
breakdowns, a ``timeline`` of
:class:`~repro.kmachine.metrics.RoundRecord` rows whose
``comm_seconds`` use the same
:meth:`~repro.kmachine.timing.CostModel.round_cost` arithmetic as the
simulator — so :class:`repro.obs.profile.CostProfile` consumes a TCP
run without modification, while ``compute_seconds`` are *measured* per
peer rather than modelled.

Fidelity notes (DESIGN.md §13): this backend measures what pipes
cannot — real per-link latency (α), streamed socket throughput (β)
and per-message overhead (γ) between genuinely separate processes or
hosts — at the price of the simulator's exact bandwidth enforcement:
``B`` is not throttled here, so use the simulator for the paper's
round metric and this backend for wall-clock and calibration
(:mod:`repro.runtime.calibrate`).
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading
import time
import traceback as traceback_module
from typing import Any, Callable, Sequence

from ..kmachine.errors import DeadlockError, PeerCrashedError
from ..kmachine.faults import FaultPlan
from ..kmachine.machine import Program
from ..kmachine.metrics import Metrics, RoundRecord
from ..kmachine.rng import spawn_streams
from ..kmachine.simulator import SimulationResult, _draw_unique_ids, observe_level
from ..kmachine.timing import CostModel, ZERO_COST_MODEL
from ..kmachine.tracing import NullTracer
from . import codec
from .multiprocess import WorkerCrashedError
from .transport import RoundDown, RoundUp, RoundWorker, WorkerDone, WorkerFailed

__all__ = ["NetSimulator", "NetOptions", "peer_main", "DEFAULT_PORT"]

#: Default coordinator port for the CLI cross-host quickstart.
DEFAULT_PORT = 48800

_DEFAULT_ROUND_TIMEOUT = 60.0
_DEFAULT_SETUP_TIMEOUT = 120.0
_DEFAULT_CONNECT_TIMEOUT = 10.0
#: Reconnect schedule: bounded exponential backoff, no jitter (the
#: backend must stay clock/RNG deterministic for the KM002 rule).
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0
_BACKOFF_ATTEMPTS = 12


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
async def _read_frame(reader: asyncio.StreamReader, *, strict: bool = False) -> Any:
    """Read one length-prefixed codec frame from ``reader``."""
    header = await reader.readexactly(codec.FRAME_HEADER.size)
    (length,) = codec.FRAME_HEADER.unpack(header)
    payload = await reader.readexactly(length)
    return codec.decode(payload, strict=strict)


async def _write_frame(
    writer: asyncio.StreamWriter, obj: Any, *, strict: bool = False
) -> None:
    """Write ``obj`` as one frame (vectored, zero-copy arrays) and drain."""
    writer.writelines(codec.encode_frame(obj, strict=strict))
    await writer.drain()


async def _connect_with_backoff(
    host: str, port: int, timeout: float
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Dial ``host:port``, retrying with bounded exponential backoff.

    Covers the startup race (a peer dialing the mesh before another
    peer's data server is reachable) and transient refusals; gives up
    after the backoff schedule is exhausted.
    """
    delay = _BACKOFF_BASE
    last_error: Exception | None = None
    for _ in range(_BACKOFF_ATTEMPTS):
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout
            )
        except (ConnectionError, OSError, asyncio.TimeoutError, TimeoutError) as exc:
            last_error = exc
            await asyncio.sleep(delay)
            delay = min(delay * 2, _BACKOFF_CAP)
    raise ConnectionError(
        f"could not reach {host}:{port} after {_BACKOFF_ATTEMPTS} attempts: "
        f"{last_error}"
    )


# ----------------------------------------------------------------------
# peer (machine process) side
# ----------------------------------------------------------------------
class _DataPlane:
    """One peer's data-plane endpoint: mesh server plus frame buffer.

    Incoming connections are accepted from every other peer; each
    carries strict-codec frames ``("d", episode, round, src, [(tag,
    payload), ...])`` that are buffered until the round barrier's
    delivery manifest asks for them.  A peer that has already halted
    keeps draining its connections so senders never block on TCP
    backpressure.
    """

    def __init__(self) -> None:
        self.buffer: dict[tuple[int, int, int], list[tuple[str, Any]]] = {}
        self.cond = asyncio.Condition()
        self.server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    async def start(self) -> None:
        """Bind on all IPv4 interfaces with an OS-assigned port.

        A single family, deliberately: binding every family with port 0
        gives each family socket a *different* ephemeral port, and the
        advertised one may not be the one a v4 dialer reaches.
        """
        self.server = await asyncio.start_server(self._serve, "0.0.0.0", 0)
        self.port = self.server.sockets[0].getsockname()[1]

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await _read_frame(reader, strict=True)  # ("peer", src) intro
            while True:
                frame = await _read_frame(reader, strict=True)
                key = (int(frame[1]), int(frame[2]), int(frame[3]))
                async with self.cond:
                    self.buffer[key] = frame[4]
                    self.cond.notify_all()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels live handlers; exit quietly instead
            # of letting the stream machinery log the cancellation.
            pass
        finally:
            writer.close()

    async def collect(
        self, episode: int, rnd: int, expect: Sequence[int], timeout: float | None
    ) -> list[tuple[int, str, Any]]:
        """Inbox triples for ``(episode, rnd)``, ordered by source rank."""
        need = sorted(set(expect))
        triples: list[tuple[int, str, Any]] = []
        async with self.cond:
            predicate = lambda: all(
                (episode, rnd, src) in self.buffer for src in need
            )
            if timeout is None:
                await self.cond.wait_for(predicate)
            else:
                await asyncio.wait_for(self.cond.wait_for(predicate), timeout)
            for src in need:
                for tag, payload in self.buffer.pop((episode, rnd, src)):
                    triples.append((src, tag, payload))
        return triples

    def drop_stale(self, episode: int) -> None:
        """Discard frames from earlier episodes (sent to a halted self)."""
        self.buffer = {k: v for k, v in self.buffer.items() if k[0] >= episode}

    def drop_from(self, ranks: set[int]) -> None:
        """Discard undelivered frames from peers now known crashed."""
        self.buffer = {k: v for k, v in self.buffer.items() if k[2] not in ranks}

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


async def _peer_async(
    host: str, port: int, *, verbose: bool = False
) -> int:
    """One machine process: join ``host:port`` and serve episodes."""

    def say(text: str) -> None:
        if verbose:
            print(f"[peer] {text}", file=sys.stderr, flush=True)

    data = _DataPlane()
    await data.start()
    reader, writer = await _connect_with_backoff(
        host, port, _DEFAULT_CONNECT_TIMEOUT
    )
    await _write_frame(writer, ("hello", data.port))
    setup = await asyncio.wait_for(_read_frame(reader), _DEFAULT_SETUP_TIMEOUT)
    cfg = setup[1]
    rank = int(cfg["rank"])
    k = int(cfg["k"])
    seed = cfg["seed"]
    machine_id = int(cfg["machine_id"])
    spans = bool(cfg["spans"])
    round_timeout = cfg["round_timeout"]
    crash_round = cfg["crash_round"]
    directory = cfg["directory"]
    say(f"rank {rank}/{k}, data port {data.port}")

    senders: dict[int, asyncio.StreamWriter] = {}
    for dst in sorted(directory):
        if dst == rank:
            continue
        dhost, dport = directory[dst]
        _, w2 = await _connect_with_backoff(dhost, dport, _DEFAULT_CONNECT_TIMEOUT)
        await _write_frame(w2, ("peer", rank), strict=True)
        senders[dst] = w2
    await _write_frame(writer, ("ready", rank))

    worker: RoundWorker | None = None
    gone: set[int] = set()
    try:
        while True:
            frame = await _read_frame(reader)
            if not isinstance(frame, tuple) or frame[0] == "stop":
                await _write_frame(writer, WorkerDone(rank=rank), strict=True)
                return 0
            _, episode, start_round, program, local = frame
            data.drop_stale(episode)
            if worker is None:
                worker = RoundWorker(
                    rank, k, seed, machine_id, local=local,
                    spans=spans, account=True,
                )
            worker.start(program)
            # Loaded: the coordinator starts its round-phase clock once
            # every peer has decoded its program and shard.
            await _write_frame(writer, ("loaded", rank, episode))
            say(f"episode {episode} from round {start_round}")
            rnd = start_round
            while True:
                if crash_round is not None and rnd >= crash_round:
                    os._exit(23)  # injected crash-stop: die without goodbyes
                up = worker.step(rnd)
                outgoing: dict[int, list[tuple[str, Any]]] = {}
                for dst, tag, payload in up.messages:
                    outgoing.setdefault(dst, []).append((tag, payload))
                for dst in sorted(outgoing):
                    sender = senders.get(dst)
                    if dst in gone or sender is None:
                        continue
                    try:
                        await _write_frame(
                            sender,
                            ("d", episode, rnd, rank, outgoing[dst]),
                            strict=True,
                        )
                    except (ConnectionError, OSError):
                        gone.add(dst)
                await _write_frame(
                    writer,
                    RoundUp(
                        rank=rank, messages=[], halted=up.halted, result=None,
                        spans=None, links=up.links, tags=up.tags,
                        compute_seconds=up.compute_seconds,
                    ),
                    strict=True,
                )
                if up.halted:
                    # Results and spans ride the setup plane (one frame
                    # per episode): arbitrary program return values may
                    # legitimately pickle there.
                    await _write_frame(
                        writer, ("result", rank, episode, up.result, up.spans)
                    )
                    break
                down = await _read_frame(reader, strict=True)
                if not isinstance(down, RoundDown) or down.stop:
                    await _write_frame(writer, WorkerDone(rank=rank), strict=True)
                    return 0
                if down.crashed:
                    gone.update(down.crashed)
                    data.drop_from(set(down.crashed))
                triples = await data.collect(
                    episode, rnd, down.expect or [], round_timeout
                )
                worker.deliver(triples, rnd, crashed=down.crashed)
                rnd += 1
    except Exception as exc:
        say(f"failed: {type(exc).__name__}: {exc}")
        # The coordinator rebuilds a PeerCrashedError around its detail,
        # so ship the detail alone, not the already-wrapped message.
        text = exc.detail if isinstance(exc, PeerCrashedError) else exc
        try:
            await _write_frame(
                writer,
                WorkerFailed(
                    rank=rank,
                    error=f"{type(exc).__name__}: {text}",
                    traceback=traceback_module.format_exc(),
                ),
                strict=True,
            )
        except (ConnectionError, OSError):
            pass
        return 1
    finally:
        data.close()
        for sender in senders.values():
            sender.close()
        writer.close()


def peer_main(host: str, port: int, *, verbose: bool = False) -> int:
    """Blocking entry point for ``python -m repro.runtime join``."""
    return asyncio.run(_peer_async(host, port, verbose=verbose))


def _spawn_local_peer(host: str, port: int) -> subprocess.Popen:
    """Launch one local peer process joining the coordinator.

    Local peers run the *same* ``join`` code path as a cross-host
    terminal, so localhost tests exercise exactly what two machines
    would.  ``sys.path`` is forwarded so the child resolves this tree
    regardless of how the parent was launched.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.runtime", "join",
            "--connect", f"{host}:{port}", "--quiet",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
    )


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
class _PeerLink:
    """Coordinator-side handle to one connected peer."""

    __slots__ = ("rank", "reader", "writer", "host", "data_port")

    def __init__(self, rank, reader, writer, host, data_port) -> None:
        self.rank = rank
        self.reader = reader
        self.writer = writer
        self.host = host
        self.data_port = data_port


class NetOptions:
    """Transport knobs for :class:`NetSimulator` (all optional).

    ``host``/``port`` place the coordinator endpoint (port 0 = OS
    assigned); ``external_peers`` reserves that many ranks for
    cross-host ``join`` commands instead of locally spawned processes;
    ``round_timeout`` bounds how long the barrier waits for one peer's
    round report before declaring it dead; ``setup_timeout`` bounds
    cluster formation; ``connect_timeout`` bounds each dial attempt.
    """

    __slots__ = (
        "host", "port", "external_peers",
        "round_timeout", "setup_timeout", "connect_timeout",
    )

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        external_peers: int = 0,
        round_timeout: float | None = _DEFAULT_ROUND_TIMEOUT,
        setup_timeout: float = _DEFAULT_SETUP_TIMEOUT,
        connect_timeout: float = _DEFAULT_CONNECT_TIMEOUT,
    ) -> None:
        if round_timeout is not None and round_timeout <= 0:
            raise ValueError("round_timeout must be positive (or None)")
        if external_peers < 0:
            raise ValueError("external_peers must be >= 0")
        self.host = host
        self.port = port
        self.external_peers = external_peers
        self.round_timeout = round_timeout
        self.setup_timeout = setup_timeout
        self.connect_timeout = connect_timeout

    @classmethod
    def coerce(cls, value: "NetOptions | dict | None") -> "NetOptions":
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        return cls(**value)


class _Cluster:
    """The coordinator: owns the server, peer links and round barrier.

    Runs entirely on the :class:`NetSimulator`'s private event loop;
    every coroutine here is invoked through
    ``run_coroutine_threadsafe`` from the caller's thread.
    """

    def __init__(
        self,
        k: int,
        seed: int | None,
        options: NetOptions,
        metrics: Metrics,
        cost_model: CostModel,
        *,
        profile: bool,
        crash_schedule: dict[int, int],
        span_recorder=None,
    ) -> None:
        self.k = k
        self.seed = seed
        self.options = options
        self.metrics = metrics
        self.cost_model = cost_model
        self.profile = profile
        self.crash_schedule = crash_schedule
        self.span_recorder = span_recorder
        self.links: dict[int, _PeerLink] = {}
        self.crashed: set[int] = set()
        self.round_clock = 0
        #: wall seconds spent in round barriers, excluding each episode's
        #: program and shard shipping (what the cost model prices)
        self.round_seconds = 0.0
        self.episode = 0
        self.port: int | None = None
        #: pickle fallbacks charged to the setup plane (JOB/RESULT
        #: frames); per-round frames are strict, so the difference
        #: between the codec's global counter delta and this number is
        #: the hot-path pickle count — structurally zero.
        self.offplane_fallbacks = 0
        self._server: asyncio.AbstractServer | None = None
        self._hellos: asyncio.Queue = asyncio.Queue()
        self._procs: list[subprocess.Popen] = []

    # -- formation -----------------------------------------------------
    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            frame = await asyncio.wait_for(
                _read_frame(reader), self.options.connect_timeout
            )
        except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                TimeoutError, ConnectionError, OSError, codec.CodecError):
            writer.close()
            return
        if not (isinstance(frame, tuple) and frame and frame[0] == "hello"):
            writer.close()
            return
        peername = writer.get_extra_info("peername")
        host = peername[0] if peername else "127.0.0.1"
        await self._hellos.put((reader, writer, host, int(frame[1])))

    async def start(self) -> None:
        """Form the cluster: listen, spawn/await peers, handshake."""
        self._server = await asyncio.start_server(
            self._accept, self.options.host, self.options.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        local = self.k - self.options.external_peers
        for _ in range(max(local, 0)):
            self._procs.append(_spawn_local_peer(self.options.host, self.port))
        for rank in range(self.k):
            try:
                reader, writer, host, data_port = await asyncio.wait_for(
                    self._hellos.get(), self.options.setup_timeout
                )
            except (asyncio.TimeoutError, TimeoutError):
                raise ConnectionError(
                    f"cluster formation timed out: {rank}/{self.k} peers "
                    f"joined within {self.options.setup_timeout}s"
                ) from None
            self.links[rank] = _PeerLink(rank, reader, writer, host, data_port)
        sim_rng = spawn_streams(self.seed, self.k + 1)[-1]
        ids = _draw_unique_ids(sim_rng, self.k)
        directory = {
            rank: (link.host, link.data_port)
            for rank, link in self.links.items()
        }
        for rank, link in self.links.items():
            await _write_frame(
                link.writer,
                (
                    "setup",
                    {
                        "rank": rank,
                        "k": self.k,
                        "seed": self.seed,
                        "machine_id": int(ids[rank]),
                        "spans": self.span_recorder is not None,
                        "round_timeout": self.options.round_timeout,
                        "crash_round": self.crash_schedule.get(rank),
                        "directory": directory,
                    },
                ),
            )
        for rank, link in self.links.items():
            frame = await asyncio.wait_for(
                _read_frame(link.reader), self.options.setup_timeout
            )
            if not (isinstance(frame, tuple) and frame[0] == "ready"):
                raise ConnectionError(f"peer {rank} failed setup: {frame!r}")

    async def _read_loaded(self, rank: int) -> WorkerFailed | None:
        """Consume one peer's job-loaded ack; a failed load comes back as
        its :class:`WorkerFailed` report, and a dead peer surfaces as a
        crash at the first round barrier."""
        try:
            frame = await asyncio.wait_for(
                _read_frame(self.links[rank].reader), self.options.round_timeout
            )
        except (asyncio.IncompleteReadError, asyncio.TimeoutError, TimeoutError,
                ConnectionError, OSError):
            return None
        return frame if isinstance(frame, WorkerFailed) else None

    # -- round barrier -------------------------------------------------
    async def _read_report(self, rank: int):
        """One peer's round report; ``None`` means the peer is dead."""
        link = self.links[rank]
        try:
            frame = await asyncio.wait_for(
                _read_frame(link.reader, strict=True), self.options.round_timeout
            )
            if isinstance(frame, WorkerFailed):
                return frame
            if not isinstance(frame, RoundUp):
                raise codec.CodecError(f"unexpected control frame {frame!r}")
            result_frame = None
            if frame.halted:
                before = codec.pickle_fallbacks()
                result_frame = await asyncio.wait_for(
                    _read_frame(link.reader), self.options.round_timeout
                )
                self.offplane_fallbacks += codec.pickle_fallbacks() - before
            return (frame, result_frame)
        except (asyncio.IncompleteReadError, asyncio.TimeoutError, TimeoutError,
                ConnectionError, OSError):
            return None

    def _account_round(
        self,
        ups: dict[int, RoundUp],
        delivering: set[int],
    ) -> None:
        """Fold one round's RoundUp aggregates into the metrics.

        ``delivering`` is the set of ranks still participating after
        this round's halts and crashes — traffic addressed to anyone
        else is dropped exactly as the simulator drops sends to halted
        or crashed machines.
        """
        m = self.metrics
        sent_msgs = sent_bits = delivered = 0
        link_bits: dict[tuple[int, int], int] = {}
        dst_msgs: dict[int, int] = {}
        compute = 0.0
        for src, up in ups.items():
            compute = max(compute, up.compute_seconds)
            if up.tags:
                for tag, (count, bits) in up.tags.items():
                    m.per_tag_messages[tag] = m.per_tag_messages.get(tag, 0) + count
                    m.per_tag_bits[tag] = m.per_tag_bits.get(tag, 0) + bits
            if not up.links:
                continue
            for dst, (count, bits) in up.links.items():
                sent_msgs += count
                sent_bits += bits
                link_bits[(src, dst)] = bits
                if dst in delivering:
                    delivered += count
                    dst_msgs[dst] = dst_msgs.get(dst, 0) + count
                if self.profile:
                    link = (src, dst)
                    m.per_link_messages[link] = (
                        m.per_link_messages.get(link, 0) + count
                    )
                    m.per_link_bits[link] = m.per_link_bits.get(link, 0) + bits
        max_link_bits = max(link_bits.values(), default=0)
        max_dst = max(dst_msgs.values(), default=0)
        comm = self.cost_model.round_cost(max_link_bits, sent_msgs > 0, max_dst)
        m.rounds += 1
        m.messages += sent_msgs
        m.bits += sent_bits
        m.compute_seconds += compute
        m.comm_seconds += comm
        m.dropped_messages += sent_msgs - delivered
        if self.profile:
            top_link = top_ingress = None
            if link_bits:
                top_link = max(link_bits, key=lambda lk: (link_bits[lk], -lk[0], -lk[1]))
            if dst_msgs:
                top_ingress = min(dst_msgs, key=lambda r: (-dst_msgs[r], r))
            m.timeline.append(
                RoundRecord(
                    round=self.round_clock,
                    messages_sent=sent_msgs,
                    bits_sent=sent_bits,
                    messages_delivered=delivered,
                    max_link_bits=max_link_bits,
                    compute_seconds=compute,
                    comm_seconds=comm,
                    active_machines=len(ups),
                    max_dst_messages=max_dst,
                    top_link=top_link,
                    top_ingress=top_ingress,
                )
            )

    def _map_failure(self, failure: WorkerFailed) -> Exception:
        """Translate a worker failure report to the backend's exception."""
        name, _, detail = failure.error.partition(": ")
        if name == "PeerCrashedError":
            return PeerCrashedError(failure.rank, set(self.crashed), detail=detail)
        return WorkerCrashedError(failure.rank, failure.error, failure.traceback)

    async def run_episode(
        self,
        program: Program,
        inputs: Sequence[Any] | Callable[[int], Any] | None,
        max_rounds: int,
    ) -> tuple[list[Any], list[dict]]:
        """Drive one program to completion over the live cluster."""
        episode = self.episode
        self.episode += 1
        active = sorted(set(range(self.k)) - self.crashed)
        outputs: list[Any] = [None] * self.k
        span_dicts: list[dict] = []
        for rank in active:
            local = None
            if inputs is not None:
                local = inputs(rank) if callable(inputs) else inputs[rank]
            before = codec.pickle_fallbacks()
            await _write_frame(
                self.links[rank].writer,
                ("job", episode, self.round_clock, program, local),
            )
            self.offplane_fallbacks += codec.pickle_fallbacks() - before
        loaded = await asyncio.gather(*(self._read_loaded(rank) for rank in active))
        for frame in loaded:
            if isinstance(frame, WorkerFailed):
                raise self._map_failure(frame)
        round_started = time.perf_counter()
        running = set(active)
        episode_start = self.round_clock
        while running:
            if self.round_clock - episode_start > max_rounds:
                raise DeadlockError(
                    f"net episode {episode} exceeded max_rounds={max_rounds}"
                )
            ordered = sorted(running)
            reports = await asyncio.gather(
                *(self._read_report(rank) for rank in ordered)
            )
            ups: dict[int, RoundUp] = {}
            newly_crashed: list[int] = []
            failure: WorkerFailed | None = None
            for rank, outcome in zip(ordered, reports):
                if outcome is None:
                    newly_crashed.append(rank)
                elif isinstance(outcome, WorkerFailed):
                    if failure is None:
                        failure = outcome
                else:
                    up, result_frame = outcome
                    ups[rank] = up
                    if up.halted:
                        outputs[rank] = result_frame[3]
                        if result_frame[4]:
                            span_dicts.extend(result_frame[4])
            for rank in newly_crashed:
                self.crashed.add(rank)
                self.metrics.crashed.append((rank, self.round_clock))
                running.discard(rank)
            if failure is not None:
                raise self._map_failure(failure)
            for rank, up in ups.items():
                if up.halted:
                    running.discard(rank)
            self._account_round(ups, running)
            expect: dict[int, list[int]] = {dst: [] for dst in running}
            for src, up in ups.items():
                if not up.links:
                    continue
                for dst, (count, _) in up.links.items():
                    if count > 0 and dst in expect:
                        expect[dst].append(src)
            for dst in sorted(running):
                await _write_frame(
                    self.links[dst].writer,
                    RoundDown(
                        messages=[],
                        crashed=newly_crashed or None,
                        expect=sorted(expect[dst]),
                    ),
                    strict=True,
                )
            self.round_clock += 1
            if self.span_recorder is not None:
                self.span_recorder.round = self.round_clock
        self.round_seconds += time.perf_counter() - round_started
        return outputs, span_dicts

    # -- teardown ------------------------------------------------------
    async def shutdown(self) -> None:
        """Stop peers (best effort), close links, reap processes."""
        for rank, link in self.links.items():
            if rank in self.crashed:
                continue
            try:
                await _write_frame(link.writer, ("stop",))
            except (ConnectionError, OSError):
                continue
        for rank, link in self.links.items():
            if rank in self.crashed:
                continue
            try:
                # Drain until the WorkerDone ack (late round reports of
                # an aborted episode may precede it).
                for _ in range(8):
                    frame = await asyncio.wait_for(_read_frame(link.reader), 2.0)
                    if isinstance(frame, WorkerDone):
                        break
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    TimeoutError, ConnectionError, OSError, codec.CodecError):
                pass
            link.writer.close()
        if self._server is not None:
            self._server.close()
        for proc in self._procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover - kill safety
                proc.kill()
                proc.wait(timeout=5)


# ----------------------------------------------------------------------
# the backend facade
# ----------------------------------------------------------------------
class NetSimulator:
    """Simulator-shaped facade over a TCP cluster of machine processes.

    Mirrors the :class:`~repro.kmachine.simulator.Simulator` surface
    the drivers and :class:`~repro.serve.session.ClusterSession`
    depend on — ``run()``, ``run_episode()``, ``metrics``,
    ``crashed_ranks``, ``tracer``, ``span_recorder`` — so
    ``backend="net"`` is a drop-in switch.  Not supported here (all
    raise ``ValueError`` up front rather than silently diverging):
    Byzantine plans, the unreliable-channel layer and
    ``observe="trace"`` — each needs payload visibility or in-process
    hooks the coordinator deliberately does not have; the other observe
    levels record what they record on the simulator.  Fault plans are
    accepted when crash-only.  ``bandwidth_bits`` is accepted but not
    enforced: TCP is not throttled to ``B`` bits/round (use the
    simulator for the paper's round metric).

    With ``persistent=True`` the cluster outlives :meth:`run` so
    :meth:`run_episode` can amortise formation across a session; call
    :meth:`close` (sessions do) to tear it down.  Any error closes the
    cluster regardless — a half-dead mesh is not reusable.
    """

    #: the ``observe`` levels this executor can record: payloads bypass
    #: the coordinator, so there is no event log
    OBSERVE_LEVELS = ("off", "spans", "profile")

    def __init__(
        self,
        k: int,
        program: Program,
        inputs: Sequence[Any] | Callable[[int], Any] | None = None,
        seed: int | None = None,
        bandwidth_bits: int | None = None,
        cost_model: CostModel | None = None,
        measure_compute: bool = False,
        max_rounds: int = 1_000_000,
        faults: FaultPlan | None = None,
        byzantine: Any = None,
        reliable: Any = None,
        observe: str = "off",
        persistent: bool = False,
        options: NetOptions | dict | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if inputs is not None and not callable(inputs) and len(inputs) != k:
            raise ValueError(f"inputs has length {len(inputs)}, expected k={k}")
        if byzantine is not None:
            raise ValueError(
                "net backend does not support Byzantine simulation "
                "(quorum auditing needs in-process network hooks)"
            )
        if reliable:
            raise ValueError(
                "net backend does not support the unreliable-channel layer "
                "(TCP is already reliable; fault injection needs the simulator)"
            )
        level = observe_level(observe, self.OBSERVE_LEVELS, "net")
        crash_schedule: dict[int, int] = {}
        if faults is not None:
            if (
                faults.drop or faults.duplicate or faults.corrupt
                or faults.reorder or faults.links or faults.outages
            ):
                raise ValueError(
                    "net backend supports crash-stop faults only "
                    "(probabilistic link faults need the simulator)"
                )
            if not faults.notify_crashes:
                raise ValueError(
                    "net backend requires notify_crashes=True (its failure "
                    "detector is the coordinator's crash broadcast)"
                )
            crash_schedule = {
                crash.rank: crash.round
                for crash in faults.crashes
                if crash.rank < k
            }
        self.k = k
        self.program = program
        self.inputs = inputs
        self.seed = seed
        self.bandwidth_bits = bandwidth_bits  # recorded, not enforced
        self.cost_model = cost_model or ZERO_COST_MODEL
        self.measure_compute = measure_compute  # compute is always measured
        self.max_rounds = max_rounds
        #: the timeline plus per-link detail (``observe="profile"``)
        self.profile = level >= 2
        self.persistent = persistent
        self.options = NetOptions.coerce(options)
        self._crash_schedule = crash_schedule
        self.metrics = Metrics()
        self.crashed_ranks: set[int] = set()
        self.contexts: tuple = ()
        self.tracer = NullTracer()
        self.span_recorder = None
        if level >= 1:
            from ..obs.spans import SpanRecorder

            self.span_recorder = SpanRecorder(self.metrics)
        #: wall seconds of whole episodes: program and shard shipping,
        #: round barriers and output collection
        self.wall_seconds = 0.0
        #: wall seconds of the round barriers alone — the part the α–β–γ
        #: model prices (see :func:`repro.runtime.calibrate.predicted_wall_seconds`)
        self.round_seconds = 0.0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._cluster: _Cluster | None = None

    # -- plumbing ------------------------------------------------------
    def _call(self, coro):
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _ensure_cluster(self) -> None:
        if self._cluster is not None:
            return
        loop = asyncio.new_event_loop()
        thread = threading.Thread(
            target=loop.run_forever, name="net-coordinator", daemon=True
        )
        thread.start()
        self._loop = loop
        self._thread = thread
        self._cluster = _Cluster(
            self.k,
            self.seed,
            self.options,
            self.metrics,
            self.cost_model,
            profile=self.profile,
            crash_schedule=self._crash_schedule,
            span_recorder=self.span_recorder,
        )
        try:
            self._call(self._cluster.start())
        except BaseException:
            self.close()
            raise

    @property
    def port(self) -> int | None:
        """The coordinator's bound port (after cluster formation)."""
        return None if self._cluster is None else self._cluster.port

    def hot_path_pickle_calls(self) -> int:
        """Pickle fallbacks on per-round paths this process observed.

        Strict-mode framing turns a hot-path pickle into a hard error,
        so any completed run reports zero here; the method exists so
        tests and benches assert the invariant instead of trusting it.
        """
        if self._cluster is None:
            return 0
        return max(
            0, codec.pickle_fallbacks() - self._cluster.offplane_fallbacks
        )

    # -- execution -----------------------------------------------------
    def _finish_episode(self, outputs, span_dicts) -> SimulationResult:
        episode_spans: list[Any] = []
        if span_dicts:
            from ..obs.spans import Span

            episode_spans = [Span.from_dict(d) for d in span_dicts]
            episode_spans.sort(key=lambda s: (s.machine, s.index))
            if self.span_recorder is not None:
                self.span_recorder.spans.extend(episode_spans)
        self.crashed_ranks = set(self._cluster.crashed)
        return SimulationResult(
            outputs=outputs,
            metrics=self.metrics,
            contexts=[],
            tracer=self.tracer,
            spans=episode_spans,
        )

    def run(self) -> SimulationResult:
        """Form the cluster (if needed) and run the construction program."""
        self._ensure_cluster()
        started = time.perf_counter()
        try:
            outputs, span_dicts = self._call(
                self._cluster.run_episode(self.program, self.inputs, self.max_rounds)
            )
        except BaseException:
            if self._cluster is not None:
                self.crashed_ranks = set(self._cluster.crashed)
            self.close()
            raise
        self.wall_seconds += time.perf_counter() - started
        self.round_seconds = self._cluster.round_seconds
        result = self._finish_episode(outputs, span_dicts)
        if not self.persistent:
            self.close()
        return result

    def run_episode(self, program: Program) -> SimulationResult:
        """Run ``program`` over the retained cluster (sessions only)."""
        if self._cluster is None:
            raise RuntimeError(
                "run_episode needs a live cluster: construct with "
                "persistent=True and call run() first"
            )
        started = time.perf_counter()
        try:
            outputs, span_dicts = self._call(
                self._cluster.run_episode(program, None, self.max_rounds)
            )
        except BaseException:
            self.crashed_ranks = set(self._cluster.crashed)
            self.close()
            raise
        self.wall_seconds += time.perf_counter() - started
        self.round_seconds = self._cluster.round_seconds
        return self._finish_episode(outputs, span_dicts)

    def close(self) -> None:
        """Tear down peers, the coordinator loop and its thread."""
        loop, thread, cluster = self._loop, self._thread, self._cluster
        self._loop = self._thread = self._cluster = None
        if loop is None:
            return
        if cluster is not None:
            try:
                asyncio.run_coroutine_threadsafe(
                    cluster.shutdown(), loop
                ).result(timeout=30)
            except Exception:  # pragma: no cover - best-effort teardown
                pass
        loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=10)
        loop.close()
