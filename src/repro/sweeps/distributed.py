"""Distributed sweep execution: shard a grid across worker hosts.

:class:`DistributedExecutor` is the scale-out implementation of the
:class:`~repro.sweeps.runner.SweepExecutor` interface.  Topology: the
operator starts one ``coserve-sweep-worker`` process per host (see
:mod:`repro.sweeps.worker`), each listening on a TCP port; the
coordinator — this module, running inside the ordinary
``SweepRunner.run_iter`` call — connects out to every address given
(the CLI's ``--hosts HOST:PORT,...``), ships the evaluation settings
once, and then *leases* (device, task)-batched cell groups to the
workers, streaming each ``(cell, result)`` pair back as it completes.

Transport is :mod:`multiprocessing.connection` (stdlib): length-framed
pickles over TCP with an HMAC challenge-response handshake keyed by a
shared secret (``COSERVE_SWEEP_AUTHKEY``; a well-known default keeps
localhost walkthroughs zero-config).  The protocol is seven message
kinds, coordinator-to-worker ``hello`` / ``lease`` / ``bye`` and
worker-to-coordinator ``ready`` / ``lease_results`` / ``lease_done`` /
``error`` — see :mod:`repro.sweeps.worker` for the worker's side.
Results come back batched, one ``lease_results`` message per lease.
A worker sending any other message is dropped like a dead one: its
open lease is re-leased to the survivors.

Fault model: a lease is acknowledged only by its ``lease_done``
message.  If a worker's connection drops first — a process crash closes
the socket immediately; a silently lost host or network partition is
detected by the TCP keepalive probes the coordinator arms on every
connection (~2 minutes on Linux) — the cells of the open lease that
have not produced results are re-leased to the surviving workers; cells whose
results were already in flight may consequently be executed twice, and
the runner deduplicates by cell key — execution is deterministic, so a
duplicate carries the byte-identical result and idempotence is safe.
A worker *reporting* a cell-execution error (as opposed to dying) fails
the sweep immediately with that error — execution is deterministic, so
re-leasing the cell would repeat the exception on every survivor.
Otherwise the run fails loudly only when *every* worker has died with
cells outstanding.

The on-disk :class:`~repro.sweeps.cache.SweepCache` doubles as the
shared result store: the coordinator forwards its cache directory and
settings fingerprint in ``hello``, workers load already-cached cells
instead of re-executing them and persist every newly computed cell
(atomic writes, last writer wins), and the coordinator — like any later
run — verifies entries on load.  With localhost workers or a shared
filesystem, a re-run after a coordinator crash picks up every cell the
workers managed to finish.

Rows stay byte-identical to serial execution: cells are executed by the
same :func:`~repro.sweeps.runner.execute_cell` primitive on
deterministic simulations, and results land in the same keyed
:class:`~repro.sweeps.results.SweepResults` store.
``tests/test_sweeps.py`` enforces this for every registered experiment
grid; ``tests/test_distributed_sweeps.py`` covers the failure modes.
"""

from __future__ import annotations

import ipaddress
import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Client, Connection
from queue import Queue
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.simulation.results import SimulationResult
from repro.sweeps.cache import SweepCache
from repro.sweeps.runner import SweepExecutor, _experiments_base, batch_cells
from repro.sweeps.spec import CellKey, SweepCell

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.base import EvaluationSettings

#: Default shared secret of the coordinator/worker HMAC handshake.  Not
#: a security boundary — it keeps stray processes from accidentally
#: speaking the protocol; deployments spanning real hosts should set
#: ``COSERVE_SWEEP_AUTHKEY`` to a private value on every participant.
DEFAULT_AUTHKEY = b"coserve-sweep"

#: Addresses accepted wherever worker hosts are passed around: a
#: ``"HOST:PORT,..."`` string (the CLI form) or a sequence of
#: ``"HOST:PORT"`` strings / ``(host, port)`` pairs.
HostsLike = Union[str, Sequence[Union[str, Tuple[str, int]]]]


def sweep_authkey() -> bytes:
    """The handshake secret: ``COSERVE_SWEEP_AUTHKEY`` or the default."""
    key = os.environ.get("COSERVE_SWEEP_AUTHKEY")
    return key.encode("utf-8") if key else DEFAULT_AUTHKEY


def arm_tcp_keepalive(connection: Connection) -> None:
    """Turn on TCP keepalive (tightened where the platform allows).

    A peer *process* crash closes the socket and unblocks the local
    ``recv`` immediately, but a silently lost host or a network
    partition leaves the connection idle-open forever.  Keepalive
    probes (60 s idle, then 4 probes 15 s apart on Linux) turn that
    into an ``OSError`` within ~2 minutes, feeding the normal
    peer-death path: the coordinator re-leases the open lease to the
    survivors, and a worker drops the dead coordinator and returns to
    accepting.  Both endpoints arm this on every connection.  No false
    positives for long-running cells — probes test the peer's TCP
    stack, not application progress.
    """
    try:
        sock = socket.socket(fileno=os.dup(connection.fileno()))
    except OSError:  # pragma: no cover - non-socket transport
        return
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        for option, value in (
            ("TCP_KEEPIDLE", 60),
            ("TCP_KEEPINTVL", 15),
            ("TCP_KEEPCNT", 4),
        ):
            if hasattr(socket, option):
                sock.setsockopt(socket.IPPROTO_TCP, getattr(socket, option), value)
    except OSError:  # pragma: no cover - platform without the knobs
        pass
    finally:
        sock.close()  # closes the dup only; the connection lives on


def is_loopback_host(host: str) -> bool:
    """Whether an address stays on this machine.

    Both endpoints use this to gate the default authkey: a worker
    refuses to *bind* beyond loopback with it, and a coordinator
    refuses to *connect* beyond loopback with it — the transport
    deserialises pickles from whoever passes the HMAC handshake, and a
    public key authenticates nobody.  Only ``localhost`` and *numeric*
    loopback IPs qualify: a DNS name like ``127.evil.example`` resolves
    wherever its owner pleases, so string-prefix matching would be a
    guard bypass.
    """
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:  # a hostname, not a numeric address
        return False


def parse_hosts(hosts: HostsLike) -> Tuple[Tuple[str, int], ...]:
    """Normalise a ``--hosts``-style value into ``(host, port)`` pairs.

    Accepts the CLI's comma-separated string, a sequence of
    ``"HOST:PORT"`` strings, or pre-split ``(host, port)`` tuples;
    rejects empty input and malformed entries loudly (a mistyped host
    list should never silently shrink the worker fleet).
    """
    if isinstance(hosts, str):
        entries: List[Union[str, Tuple[str, int]]] = [
            part for part in hosts.split(",") if part.strip()
        ]
    else:
        entries = list(hosts)
    parsed: List[Tuple[str, int]] = []
    for entry in entries:
        if isinstance(entry, tuple):
            host, port = entry
        else:
            host, separator, port = str(entry).strip().rpartition(":")
            if not separator or not host:
                raise ValueError(f"worker address {entry!r} is not of the form HOST:PORT")
        try:
            host, port = str(host), int(port)
        except (TypeError, ValueError):
            raise ValueError(f"worker address {entry!r} has a non-integer port") from None
        try:
            version = ipaddress.ip_address(host).version
        except ValueError:
            version = None  # a hostname; resolved at connect time
        if version == 6:
            # The multiprocessing.connection transport derives AF_INET
            # from (host, port) tuples; an IPv6 literal would retry for
            # the whole connect timeout and then read as a dead worker.
            raise ValueError(
                f"worker address {entry!r} is IPv6, which the AF_INET sweep "
                "transport does not support; use an IPv4 address or hostname"
            )
        parsed.append((host, port))
    if not parsed:
        raise ValueError("no worker hosts given")
    return tuple(parsed)


class _SweepCellError(RuntimeError):
    """A worker reported a deterministic cell-execution failure.

    Distinguished from connection loss so the coordinator fails the
    sweep immediately with the original error — re-leasing the cell
    would just repeat the same exception on every surviving worker and
    end in a misleading "all workers died" report.
    """


@dataclass
class _Lease:
    """One batch of cells handed to a worker, unacknowledged until done."""

    lease_id: int
    cells: List[SweepCell]


@dataclass
class _SweepState:
    """Coordinator-side shared state between host threads and the consumer.

    ``cond`` guards every field; ``queue`` is the host-threads →
    consumer channel (results and worker exits).  ``delivered`` tracks
    *unique* cell keys so duplicate deliveries after a re-lease neither
    double-count progress nor double-yield.
    """

    total: int
    pending: "deque[_Lease]"
    next_lease_id: int
    cond: threading.Condition = field(default_factory=threading.Condition)
    queue: "Queue[Tuple[object, ...]]" = field(default_factory=Queue)
    delivered: Set[CellKey] = field(default_factory=set)
    failures: List[str] = field(default_factory=list)
    closing: bool = False
    connections: List[Connection] = field(default_factory=list)

    @property
    def done(self) -> bool:
        """Whether every unique cell has produced a result."""
        return len(self.delivered) >= self.total

    def take_lease(self) -> Optional[_Lease]:
        """Next pending lease, or None once the sweep is done / closing.

        Blocks while other workers hold leases that might yet be
        re-queued (their holder could die), which is why idle workers
        wait on the condition instead of exiting.
        """
        with self.cond:
            while True:
                if self.closing or self.done:
                    return None
                if self.pending:
                    return self.pending.popleft()
                self.cond.wait()

    def requeue(self, cells: Sequence[SweepCell]) -> None:
        """Re-lease the undelivered cells of a dead worker's open lease."""
        with self.cond:
            undelivered = [cell for cell in cells if cell.key not in self.delivered]
            if undelivered:
                self.pending.append(_Lease(self.next_lease_id, undelivered))
                self.next_lease_id += 1
            self.cond.notify_all()

    def mark_delivered(self, cell: SweepCell) -> bool:
        """Record one delivered cell; False when it was a duplicate."""
        with self.cond:
            if cell.key in self.delivered:
                return False
            self.delivered.add(cell.key)
            if self.done:
                self.cond.notify_all()
            return True

    def shutdown(self) -> None:
        """Ask idle workers to say goodbye (consumer finished or bailed)."""
        with self.cond:
            self.closing = True
            self.cond.notify_all()

    def force_close_connections(self) -> None:
        """Shut down every worker connection, unblocking threads in recv.

        ``Connection.close()`` alone would not do it: a thread blocked
        in ``read()`` holds the open file description, so closing the fd
        from another thread neither interrupts the syscall nor sends a
        FIN.  ``shutdown(SHUT_RDWR)`` acts on the socket itself — the
        blocked read returns EOF immediately (and the worker sees the
        FIN, drops the dead coordinator, and returns to accepting).
        The unblocked host thread then closes its own connection in its
        normal failure path; closing it here too would race the owner
        over a possibly recycled fd.
        """
        with self.cond:
            connections = list(self.connections)
        for connection in connections:
            try:
                sock = socket.socket(fileno=os.dup(connection.fileno()))
            except OSError:  # pragma: no cover - already closed
                continue
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - peer already gone
                pass
            finally:
                sock.close()  # the dup only; the reader's fd stays valid


class DistributedExecutor(SweepExecutor):
    """Execute sweep cells across remote ``coserve-sweep-worker`` hosts.

    Parameters
    ----------
    hosts:
        Worker addresses (see :func:`parse_hosts`).  Each address gets
        one coordinator thread and one TCP connection; a host that
        cannot be reached within ``connect_timeout_s`` counts as a dead
        worker (the sweep proceeds on the others).
    settings:
        Evaluation settings shipped to every worker in ``hello``; the
        worker builds (and caches, across sweeps) one
        ``EvaluationContext`` per settings fingerprint.
    cache:
        Optional shared :class:`~repro.sweeps.cache.SweepCache`.  Its
        directory and fingerprint are forwarded to workers, which read
        and write it *on their own filesystem* — sharing requires
        localhost workers or a network filesystem, and is safe either
        way (writes are atomic; unreadable entries degrade to misses).
    authkey:
        Handshake secret; defaults to :func:`sweep_authkey`.
    connect_timeout_s:
        How long to retry connecting to each worker before declaring it
        dead (workers are often still importing when the sweep starts).
    ready_timeout_s:
        How long to wait for a connected worker's ``ready`` reply (it
        builds its evaluation context first).  Bounds the one wait that
        TCP keepalive cannot: a worker that is alive at the TCP layer
        but wedged before serving (its kernel keeps ACKing probes).
        Lease execution itself is deliberately unbounded — cells take
        arbitrarily long and keepalive covers dead hosts.
    """

    def __init__(
        self,
        hosts: HostsLike,
        settings: Optional[EvaluationSettings] = None,
        cache: Optional[SweepCache] = None,
        authkey: Optional[bytes] = None,
        connect_timeout_s: float = 20.0,
        ready_timeout_s: float = 60.0,
    ) -> None:
        self.addresses = parse_hosts(hosts)
        self.settings = settings if settings is not None else _experiments_base()[1]()
        self.cache = cache
        self.authkey = authkey if authkey is not None else sweep_authkey()
        if self.authkey == DEFAULT_AUTHKEY:
            remote = [host for host, _ in self.addresses if not is_loopback_host(host)]
            if remote:
                # Mirror of the worker's bind-side guard: a crafted
                # pickle from anything that answers on those addresses
                # would execute on *this* process.
                raise ValueError(
                    f"refusing to connect to non-loopback worker(s) {remote} with "
                    "the default authkey: set COSERVE_SWEEP_AUTHKEY on every "
                    "participant (or pass authkey=) before crossing hosts"
                )
        self.connect_timeout_s = float(connect_timeout_s)
        self.ready_timeout_s = float(ready_timeout_s)

    # ------------------------------------------------------------------
    def run_iter(
        self, cells: Sequence[SweepCell]
    ) -> Iterator[Tuple[SweepCell, SimulationResult]]:
        """Shard ``cells`` across the workers, yielding in completion order.

        Raises ``RuntimeError`` when a worker reports a deterministic
        cell-execution error (immediately, with the original error) or
        when all workers died with cells outstanding (listing every
        per-worker failure); anything short of that self-heals through
        re-leasing.  Closing the iterator early drains cleanly: idle
        workers get a ``bye``, busy connections are closed, and the
        worker processes survive for the next sweep.
        """
        cells = list(cells)
        if not cells:
            return
        batches = batch_cells(cells, len(self.addresses))
        state = _SweepState(
            total=len({cell.key for cell in cells}),
            pending=deque(_Lease(index, list(batch)) for index, batch in enumerate(batches)),
            next_lease_id=len(batches),
        )
        threads = [
            threading.Thread(
                target=self._serve_host,
                args=(address, state),
                name=f"sweep-worker-{address[0]}:{address[1]}",
                daemon=True,
            )
            for address in self.addresses
        ]
        remaining_workers = len(threads)
        for thread in threads:
            thread.start()
        try:
            while not state.done:
                message = state.queue.get()
                kind = message[0]
                if kind == "result":
                    _, cell, result = message
                    if state.mark_delivered(cell):
                        yield cell, result
                elif kind == "cell_error":
                    _, worker_name, detail = message
                    raise RuntimeError(
                        f"sweep cell execution failed on worker {worker_name}: {detail}"
                    )
                elif kind == "worker_exit":
                    remaining_workers -= 1
                    if remaining_workers == 0 and not state.done:
                        failures = "; ".join(state.failures) or "no failure recorded"
                        raise RuntimeError(
                            f"all {len(self.addresses)} sweep worker(s) died with "
                            f"{state.total - len(state.delivered)} cell(s) outstanding: "
                            f"{failures}"
                        )
                else:  # pragma: no cover - defensive
                    raise RuntimeError(f"unknown coordinator message {kind!r}")
        finally:
            state.shutdown()
            for thread in threads:
                thread.join(timeout=2.0)
            if any(thread.is_alive() for thread in threads):
                # The consumer bailed mid-lease: force the sockets shut
                # so threads blocked in recv() unwind through their
                # failure path (the worker processes themselves notice
                # the dead connection and return to accepting sweeps).
                state.force_close_connections()
                for thread in threads:
                    thread.join(timeout=10.0)

    # ------------------------------------------------------------------
    def _attempt_connection(self, address: Tuple[str, int], timeout: float) -> Connection:
        """One ``Client()`` attempt, abandoned if it exceeds ``timeout``.

        ``Client`` has no timeout of its own: a TCP connect that lands
        in a busy worker's listen backlog leaves it blocked in the HMAC
        handshake ``recv`` indefinitely — the exact state a worker
        grinding through an abandoned coordinator's last lease is in.
        Running the attempt in a daemon thread keeps the deadline
        enforceable without reimplementing the stdlib's (Python-version
        -specific) challenge protocol; a connection that completes after
        abandonment is closed immediately.
        """
        outcome: dict = {"abandoned": False}
        lock = threading.Lock()
        done = threading.Event()

        def attempt() -> None:
            try:
                connection = Client(address, authkey=self.authkey)
            except Exception as exc:  # noqa: BLE001 - re-raised in the caller
                with lock:
                    outcome["error"] = exc
                done.set()
                return
            with lock:
                late = outcome["abandoned"]
                if not late:
                    outcome["connection"] = connection
            if late:
                try:
                    connection.close()
                except OSError:  # pragma: no cover
                    pass
            done.set()

        thread = threading.Thread(
            target=attempt, daemon=True, name=f"sweep-connect-{address[0]}:{address[1]}"
        )
        thread.start()
        if not done.wait(timeout):
            with lock:
                outcome["abandoned"] = True
                # The attempt may have completed between the wait
                # expiring and the flag being set; claim any stored
                # connection under the same lock and close it, or the
                # worker would sit waiting on a hello that never comes.
                connection = outcome.pop("connection", None)
            if connection is not None:
                try:
                    connection.close()
                except OSError:  # pragma: no cover
                    pass
            raise TimeoutError(
                f"connection handshake with {address[0]}:{address[1]} "
                f"did not complete within {timeout:.1f}s"
            )
        if "error" in outcome:
            raise outcome["error"]
        return outcome["connection"]

    def _connect(self, address: Tuple[str, int]) -> Connection:
        """Connect to one worker, retrying until ``connect_timeout_s``."""
        deadline = time.monotonic() + self.connect_timeout_s
        while True:
            remaining = deadline - time.monotonic()
            try:
                connection = self._attempt_connection(address, max(remaining, 0.05))
                arm_tcp_keepalive(connection)
                return connection
            except (OSError, EOFError, TimeoutError) as exc:
                if time.monotonic() >= deadline:
                    raise RuntimeError(
                        f"could not connect to sweep worker at "
                        f"{address[0]}:{address[1]} within "
                        f"{self.connect_timeout_s:.0f}s: {exc}"
                    ) from exc
                time.sleep(0.1)

    def _serve_host(self, address: Tuple[str, int], state: _SweepState) -> None:
        """Thread body: feed one worker leases until the sweep finishes.

        Every exit path accounts for itself: an open lease is re-queued
        (minus cells whose results already streamed back), the failure
        is recorded, and a ``worker_exit`` message wakes the consumer.
        """
        name = f"{address[0]}:{address[1]}"
        connection: Optional[Connection] = None
        lease: Optional[_Lease] = None
        error: Optional[str] = None
        try:
            connection = self._connect(address)
            with state.cond:
                state.connections.append(connection)
            connection.send(
                (
                    "hello",
                    self.settings,
                    # Absolute, so localhost workers launched from any
                    # cwd share the coordinator's store rather than
                    # silently resolving a relative path elsewhere.
                    os.path.abspath(self.cache.directory) if self.cache is not None else None,
                    self.cache.fingerprint if self.cache is not None else None,
                )
            )
            if not connection.poll(self.ready_timeout_s):
                raise RuntimeError(
                    f"worker {name} did not reply ready within "
                    f"{self.ready_timeout_s:.0f}s of the hello"
                )
            reply = connection.recv()
            if not (isinstance(reply, tuple) and reply and reply[0] == "ready"):
                raise RuntimeError(f"worker {name} failed to initialise: {reply!r}")
            while True:
                lease = state.take_lease()
                if lease is None:
                    break
                connection.send(("lease", lease.lease_id, tuple(lease.cells)))
                while True:
                    message = connection.recv()
                    kind = message[0]
                    if kind == "lease_results":
                        _, _, pairs = message
                        for cell, result in pairs:
                            state.queue.put(("result", cell, result))
                    elif kind == "lease_done":
                        lease = None
                        break
                    elif kind == "error":
                        # Deterministic execution failure: don't re-lease
                        # the poisoned cells; tell the consumer directly
                        # so the sweep fails with the real error now.
                        lease = None
                        state.queue.put(("cell_error", name, message[2]))
                        raise _SweepCellError(f"worker {name} reported: {message[2]}")
                    else:
                        raise RuntimeError(f"worker {name} sent unknown message {kind!r}")
            try:
                connection.send(("bye",))
            except OSError:  # pragma: no cover - worker already gone
                pass
        except Exception as exc:  # noqa: BLE001 - any thread failure is a worker failure
            error = f"{name}: {type(exc).__name__}: {exc}"
        finally:
            if connection is not None:
                try:
                    connection.close()
                except OSError:  # pragma: no cover
                    pass
            if lease is not None:
                state.requeue(lease.cells)
            with state.cond:
                if connection is not None and connection in state.connections:
                    state.connections.remove(connection)
                if error is not None:
                    state.failures.append(error)
                state.cond.notify_all()
            state.queue.put(("worker_exit", name, error))
