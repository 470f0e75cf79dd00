"""Real-parallelism backend: one OS process per machine.

The in-process :class:`~repro.kmachine.simulator.Simulator` measures
rounds and messages exactly, but its "parallel" compute time is a
model (max of measured per-machine times).  This backend runs the
*same* :class:`~repro.kmachine.machine.Program` objects with genuine
parallelism — one process per machine, pipes for links, a coordinator
enforcing round synchrony — so laptop-scale runs can validate the
model's wall-clock shape with real IPC and real concurrent NumPy.

Fidelity notes (also in DESIGN.md):

* No bandwidth throttling: OS pipes are far faster than the model's
  ``B`` bits/round, so this backend reports *wall seconds* and
  *rounds*, not bandwidth-limited rounds.  Use the simulator for the
  paper's round metric.
* Determinism: machine RNG streams are spawned exactly as in the
  simulator, so a protocol's random choices (pivots, samples) match
  the simulator run with the same seed; only timing differs.
* Scale: sensible up to roughly the physical core count; the Figure 2
  cross-check uses k ≤ 16 by default.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..kmachine.errors import DeadlockError, ProtocolError
from ..kmachine.machine import Program
from ..kmachine.rng import spawn_streams
from ..kmachine.simulator import _draw_unique_ids, observe_level
from .transport import RoundDown, RoundUp, RoundWorker, WorkerDone, WorkerFailed

__all__ = ["MultiprocessResult", "MultiprocessSimulator", "WorkerCrashedError"]

_DEFAULT_MAX_ROUNDS = 100_000


class WorkerCrashedError(ProtocolError):
    """A machine process failed (raised, or died without reporting).

    Subclasses :class:`~repro.kmachine.errors.ProtocolError` so
    existing callers that catch protocol failures keep working, while
    exposing *which* worker failed and (when the worker managed to
    report before dying) the worker-side traceback text.

    Attributes
    ----------
    rank:
        The failing machine's rank.
    error:
        ``TypeName: message`` of the worker's exception, or a
        description of how the process died (e.g. its exit code).
    traceback:
        Worker-side formatted traceback (empty when the process died
        without reporting, e.g. was OOM-killed).
    """

    def __init__(self, rank: int, error: str, traceback: str = "") -> None:
        self.rank = rank
        self.error = error
        self.traceback = traceback
        detail = f"\nworker traceback:\n{traceback}" if traceback else ""
        super().__init__(f"machine {rank} failed: {error}{detail}")


@dataclass
class MultiprocessResult:
    """Outcome of a multiprocess run.

    ``outputs`` are the per-machine program return values;
    ``rounds`` the number of synchronous rounds executed;
    ``messages`` the total inter-machine messages routed;
    ``wall_seconds`` end-to-end wall-clock on the coordinator,
    measured from first round to last (process startup excluded,
    since a long-lived deployment would amortise it);
    ``spans`` the per-machine phase spans gathered from the workers
    when the simulator was constructed with ``observe="spans"`` (a list
    of :class:`repro.obs.spans.Span`, all machines concatenated).
    """

    outputs: list[Any]
    rounds: int
    messages: int
    wall_seconds: float
    spans: list[Any] = field(default_factory=list)


def _worker_main(
    rank: int,
    k: int,
    program: Program,
    local: Any,
    seed: int | None,
    machine_id: int,
    conn,
    spans: bool = False,
) -> None:
    """Entry point of one machine process."""
    try:
        worker = RoundWorker(rank, k, seed, machine_id, local=local, spans=spans)
        worker.start(program)
        round_idx = 0
        while True:
            up = worker.step(round_idx)
            conn.send(up)
            if up.halted:
                return
            down: RoundDown = conn.recv()
            if down.stop:
                conn.send(WorkerDone(rank=rank))
                return
            worker.deliver(down.messages, round_idx, crashed=down.crashed)
            round_idx += 1
    except Exception as exc:  # pragma: no cover - forwarded to coordinator
        try:
            conn.send(
                WorkerFailed(
                    rank=rank,
                    error=f"{type(exc).__name__}: {exc}",
                    traceback=traceback_module.format_exc(),
                )
            )
        finally:
            return
    finally:
        conn.close()


class MultiprocessSimulator:
    """Round-synchronous executor with one OS process per machine.

    Same constructor spirit as the in-process simulator (program,
    inputs, seed); no bandwidth parameters because pipes are not
    throttled.  Use :meth:`run` once per instance.
    """

    #: the ``observe`` levels this executor can record: workers gather
    #: their spans on halt, and nothing finer crosses the pipes
    OBSERVE_LEVELS = ("off", "spans")

    def __init__(
        self,
        k: int,
        program: Program,
        inputs: Sequence[Any] | Callable[[int], Any] | None = None,
        seed: int | None = None,
        max_rounds: int = _DEFAULT_MAX_ROUNDS,
        round_timeout: float | None = 60.0,
        observe: str = "off",
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if round_timeout is not None and round_timeout <= 0:
            raise ValueError("round_timeout must be positive (or None to disable)")
        self.k = k
        self.program = program
        self.inputs = inputs
        self.seed = seed
        self.max_rounds = max_rounds
        #: record phase spans in every worker and gather them on halt
        self.spans = observe_level(observe, self.OBSERVE_LEVELS, "multiprocess") >= 1
        #: seconds the coordinator waits for one worker's round report
        #: before declaring it dead; a worker killed by the OS (OOM,
        #: signal) then raises :class:`WorkerCrashedError` instead of
        #: hanging the round barrier forever.  ``None`` disables.
        self.round_timeout = round_timeout

    def _input_for(self, rank: int) -> Any:
        if self.inputs is None:
            return None
        if callable(self.inputs):
            return self.inputs(rank)
        return self.inputs[rank]

    def _recv_from(self, rank: int, conn, proc) -> Any:
        """One worker's round report, guarded against dead processes.

        Polls the pipe in short slices so a worker that died without
        reporting (killed by the OS) is detected instead of blocking
        the round barrier forever; gives up after ``round_timeout``
        seconds even if the process is nominally alive (livelock).
        """
        if self.round_timeout is None:
            try:
                return conn.recv()
            except EOFError:
                raise WorkerCrashedError(
                    rank, f"process exited without reporting (exitcode={proc.exitcode})"
                ) from None
        deadline = time.perf_counter() + self.round_timeout
        while True:
            if conn.poll(0.05):
                try:
                    return conn.recv()
                except EOFError:
                    raise WorkerCrashedError(
                        rank,
                        f"process exited without reporting (exitcode={proc.exitcode})",
                    ) from None
            if not proc.is_alive():
                # One last poll: the message may have landed between
                # the poll above and the liveness check.
                if conn.poll(0):
                    continue
                raise WorkerCrashedError(
                    rank, f"process died without reporting (exitcode={proc.exitcode})"
                )
            if time.perf_counter() > deadline:
                raise WorkerCrashedError(
                    rank,
                    f"no round report within round_timeout={self.round_timeout}s "
                    f"(process still alive; likely hung)",
                )

    def run(self) -> MultiprocessResult:
        """Execute to completion; raises on worker errors or deadlock."""
        ctx_mp = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
        # Machine IDs drawn exactly as the simulator draws them, so a
        # given seed produces identical protocol randomness.
        sim_rng = spawn_streams(self.seed, self.k + 1)[-1]
        ids = _draw_unique_ids(sim_rng, self.k)

        pipes = [ctx_mp.Pipe() for _ in range(self.k)]
        procs = []
        for rank in range(self.k):
            parent_conn, child_conn = pipes[rank]
            proc = ctx_mp.Process(
                target=_worker_main,
                args=(
                    rank,
                    self.k,
                    self.program,
                    self._input_for(rank),
                    self.seed,
                    ids[rank],
                    child_conn,
                    self.spans,
                ),
                daemon=True,
            )
            procs.append(proc)
        for proc in procs:
            proc.start()
        for _, child_conn in pipes:
            child_conn.close()

        conns = [parent for parent, _ in pipes]
        outputs: list[Any] = [None] * self.k
        alive = set(range(self.k))
        total_messages = 0
        rounds = 0
        gathered_spans: list[Any] = []
        started = time.perf_counter()
        try:
            pending: dict[int, list[tuple[int, str, Any]]] = {r: [] for r in range(self.k)}
            while alive:
                if rounds > self.max_rounds:
                    raise DeadlockError(
                        f"multiprocess run exceeded max_rounds={self.max_rounds}"
                    )
                ups: dict[int, RoundUp] = {}
                for rank in sorted(alive):
                    msg = self._recv_from(rank, conns[rank], procs[rank])
                    if isinstance(msg, WorkerFailed):
                        raise WorkerCrashedError(msg.rank, msg.error, msg.traceback)
                    ups[rank] = msg
                for rank, up in ups.items():
                    for dst, tag, payload in up.messages:
                        pending.setdefault(dst, []).append((rank, tag, payload))
                        total_messages += 1
                for rank, up in ups.items():
                    if up.halted:
                        outputs[rank] = up.result
                        alive.discard(rank)
                        if up.spans:
                            from ..obs.spans import Span

                            gathered_spans.extend(
                                Span.from_dict(d) for d in up.spans
                            )
                for rank in sorted(alive):
                    inbox = pending.get(rank, [])
                    pending[rank] = []
                    conns[rank].send(RoundDown(messages=inbox))
                rounds += 1
            wall = time.perf_counter() - started
        finally:
            stopped = []
            for rank in alive:
                try:
                    conns[rank].send(RoundDown(messages=[], stop=True))
                    stopped.append(rank)
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass
            # Workers acknowledge the stop with WorkerDone before
            # exiting; draining the ack separates orderly shutdown from
            # a worker that died mid-stop (which would otherwise only
            # show up as a slow join below).
            for rank in stopped:
                try:
                    while conns[rank].poll(1.0):
                        if isinstance(conns[rank].recv(), WorkerDone):
                            break  # anything earlier is a late round report
                except (EOFError, OSError):  # pragma: no cover
                    pass
            for proc in procs:
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - hard kill safety
                    proc.terminate()
            for conn in conns:
                conn.close()
        gathered_spans.sort(key=lambda s: (s.machine, s.index))
        return MultiprocessResult(
            outputs=outputs,
            rounds=rounds,
            messages=total_messages,
            wall_seconds=wall,
            spans=gathered_spans,
        )
