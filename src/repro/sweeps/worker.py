"""The ``coserve-sweep-worker`` process: serve cells to a coordinator.

One worker runs per host of a distributed sweep.  It listens on a TCP
port, accepts one coordinator connection at a time, and executes the
cell leases it is sent with the exact
:func:`~repro.sweeps.runner.execute_cell` primitive serial runs use —
which is what keeps distributed rows byte-identical.  Start it with the
console script (or ``python -m repro.sweeps.worker``)::

    coserve-sweep-worker --port 7071

then point any sweep at it, e.g. ``coserve-experiments --all --hosts
hostA:7071,hostB:7071``.  A worker outlives individual sweeps: after a
coordinator disconnects (cleanly or not) it returns to accepting, and
it caches one ``EvaluationContext`` per settings fingerprint so
repeated sweeps under the same settings skip the expensive board /
model / profiling rebuilds.

Protocol (length-framed pickles via :mod:`multiprocessing.connection`,
HMAC-authenticated with the shared ``COSERVE_SWEEP_AUTHKEY``):

=================  ==================================================
coordinator sends  ``("hello", settings, cache_dir, fingerprint)``
                   once, then any number of
                   ``("lease", lease_id, cells)``, then ``("bye",)``.
worker sends       ``("ready", worker_name)`` after building its
                   context, one ``("lease_results", lease_id,
                   ((cell, result), ...))`` per lease,
                   ``("lease_done", lease_id)`` after each completed
                   lease, and ``("error", lease_id, message)`` if a
                   cell raises.
=================  ==================================================

Results are batched per lease: executing a lease's cells produces one
``lease_results`` message instead of a framed pickle per cell, which
collapses the coordinator round-trips of large grids (the simulator
output dominates the payload either way).  A crashing worker still
flushes the partial batch it has computed *before* vanishing, so the
crash fault model is unchanged: delivered results are never lost, only
unacknowledged ones are re-executed.

``lease_done`` is the acknowledgement the coordinator's fault handling
keys on: results may stream back and still be followed by a dead
connection, in which case the coordinator re-leases whatever was not
delivered.  When the coordinator shares a cache directory, the worker
loads already-cached cells instead of re-executing them and persists
every newly computed cell — the cache is the shared result store of the
distributed backend.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from multiprocessing import AuthenticationError
from multiprocessing.connection import Connection, Listener
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.sweeps.cache import SweepCache, settings_fingerprint
from repro.sweeps.distributed import arm_tcp_keepalive, is_loopback_host, sweep_authkey
from repro.sweeps.runner import execute_cell
from repro.sweeps.spec import SweepCell

if TYPE_CHECKING:
    from repro.experiments.base import EvaluationContext, EvaluationSettings


class SweepWorker:
    """A single sweep worker: one listener, one coordinator at a time.

    Parameters
    ----------
    host, port:
        Bind address.  Port ``0`` picks a free ephemeral port (the
        resolved address is in :attr:`address` and announced on stdout
        by :meth:`announce` — how tests and scripts discover it).
    authkey:
        Handshake secret; defaults to
        :func:`~repro.sweeps.distributed.sweep_authkey`.
    max_cells:
        Crash injection for fault-tolerance tests: exit the process —
        *without* acknowledging the open lease — after sending this
        many results.  ``None`` (the default) never crashes.
    """

    #: Contexts retained across coordinator connections.  Each one pins
    #: boards, CoE models and performance matrices, so a long-lived
    #: worker serving many differently-configured sweeps must not grow
    #: without bound; least-recently-used settings are evicted.
    MAX_CACHED_CONTEXTS = 4

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        authkey: Optional[bytes] = None,
        max_cells: Optional[int] = None,
    ) -> None:
        if not is_loopback_host(host) and authkey is None and not os.environ.get(
            "COSERVE_SWEEP_AUTHKEY"
        ):
            # The transport deserialises pickles from anyone who passes
            # the HMAC handshake; on a non-loopback interface the
            # well-known default key would make that *anyone on the
            # network*.  Refuse to start rather than expose it.
            raise ValueError(
                f"refusing to bind {host} with the default authkey: exporting a "
                "worker beyond loopback requires a private secret (set "
                "COSERVE_SWEEP_AUTHKEY on every participant, or pass --authkey)"
            )
        self.listener = Listener((host, int(port)), authkey=authkey or sweep_authkey())
        self.address: Tuple[str, int] = self.listener.address
        self.max_cells = max_cells
        self.cells_sent = 0
        self._contexts: Dict[str, EvaluationContext] = {}

    @property
    def name(self) -> str:
        """``host:port`` form of the bound address (used in messages)."""
        return f"{self.address[0]}:{self.address[1]}"

    def announce(self) -> None:
        """Print the resolved listen address (how ephemeral ports surface)."""
        print(f"coserve-sweep-worker listening on {self.name}", flush=True)

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept coordinator connections until the process is killed."""
        while True:
            self.handle_one_connection()

    def handle_one_connection(self) -> None:
        """Accept and fully serve one coordinator connection.

        A misbehaving coordinator — vanished connection, failed
        handshake, malformed or unpicklable messages — is routine: the
        worker notes it on stderr and returns to accepting, so one bad
        coordinator can never take down the fleet.  Only
        :class:`SystemExit` (crash injection) escapes.
        """
        try:
            connection = self.listener.accept()
        except (OSError, EOFError, AuthenticationError):  # failed handshake / probe
            # Pause before re-accepting so a persistently failing
            # listener (e.g. fd exhaustion) cannot hot-spin a core.
            time.sleep(0.05)
            return
        try:
            # Same treatment the coordinator gives its side: a silently
            # lost coordinator host must error the blocked recv instead
            # of wedging this single-connection worker forever.
            arm_tcp_keepalive(connection)
            self._serve_connection(connection)
        except (OSError, EOFError):
            pass
        except Exception as exc:  # noqa: BLE001 - survive any coordinator
            print(
                f"coserve-sweep-worker: dropping coordinator after "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
                flush=True,
            )
        finally:
            try:
                connection.close()
            except OSError:  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    def _context_for(self, settings: "EvaluationSettings") -> "EvaluationContext":
        """The cached evaluation context for a settings fingerprint (LRU)."""
        # Deferred import: sweeps sits below experiments in the layer
        # map (RL001), and a listening worker only needs the harness
        # machinery once a coordinator actually sends settings.
        from repro.experiments.base import EvaluationContext

        key = settings_fingerprint(settings)
        context = self._contexts.pop(key, None)
        if context is None:
            context = EvaluationContext(settings)
            while len(self._contexts) >= self.MAX_CACHED_CONTEXTS:
                self._contexts.pop(next(iter(self._contexts)))
        self._contexts[key] = context  # (re)insert at the recent end
        return context

    def _serve_connection(self, connection: Connection) -> None:
        """Run the hello / lease / bye protocol over one connection."""
        message = connection.recv()
        if not (isinstance(message, tuple) and message and message[0] == "hello"):
            connection.send(("error", None, f"expected hello, got {message!r}"))
            return
        _, settings, cache_dir, fingerprint = message
        context = self._context_for(settings)
        cache = (
            SweepCache(cache_dir, fingerprint=fingerprint) if cache_dir is not None else None
        )
        connection.send(("ready", self.name))
        while True:
            message = connection.recv()
            kind = message[0]
            if kind == "bye":
                return
            if kind != "lease":
                connection.send(("error", None, f"expected lease or bye, got {kind!r}"))
                return
            _, lease_id, cells = message
            try:
                self._execute_lease(connection, lease_id, cells, context, cache)
            except (OSError, EOFError):
                raise  # dead coordinator: back to accepting
            except SystemExit:
                raise  # crash injection
            except Exception as exc:  # noqa: BLE001 - report, then drop the coordinator
                connection.send(("error", lease_id, f"{type(exc).__name__}: {exc}"))
                return
            connection.send(("lease_done", lease_id))

    def _execute_lease(
        self,
        connection: Connection,
        lease_id: int,
        cells: Sequence[SweepCell],
        context: EvaluationContext,
        cache: Optional[SweepCache],
    ) -> None:
        """Execute (or cache-load) a lease's cells; reply with one batch.

        The whole lease comes back as a single ``lease_results`` message
        rather than one framed pickle per cell.  An injected crash
        (``max_cells``) flushes the partial batch first and then vanishes
        *without* the ``lease_done`` acknowledgement — byte-for-byte the
        delivery a killed host would have managed, which is what the
        re-lease fault-tolerance tests stand on.
        """
        pairs: List[Tuple[SweepCell, object]] = []
        for cell in cells:
            result = cache.load(cell) if cache is not None else None
            if result is None:
                result = execute_cell(context, cell)
                if cache is not None:
                    cache.store(cell, result)
            pairs.append((cell, result))
            self.cells_sent += 1
            if self.max_cells is not None and self.cells_sent >= self.max_cells:
                # Simulated crash: flush what was computed, then vanish
                # without acknowledging the lease, exactly like a killed
                # host.  The coordinator must re-lease the remainder.
                connection.send(("lease_results", lease_id, tuple(pairs)))
                connection.close()
                raise SystemExit(0)
        connection.send(("lease_results", lease_id, tuple(pairs)))


# ----------------------------------------------------------------------
# Local pools: spawn workers on this machine (tests, benchmarks, and the
# docs/sweeps.md walkthrough use this before graduating to real hosts).
# ----------------------------------------------------------------------
#: Reference counts for authkeys *generated* by spawn_local_workers and
#: exported to this process's environment: overlapping pools share one
#: generated key, and the env var is removed only when the last owning
#: pool terminates (so surviving pools stay reachable).
_GENERATED_AUTHKEY_REFS: Dict[str, int] = {}


def _release_generated_authkey(value: Optional[str]) -> None:
    """Drop one pool's reference to a generated authkey (idempotent)."""
    if value is None or value not in _GENERATED_AUTHKEY_REFS:
        return
    _GENERATED_AUTHKEY_REFS[value] -= 1
    if _GENERATED_AUTHKEY_REFS[value] <= 0:
        del _GENERATED_AUTHKEY_REFS[value]
        if os.environ.get("COSERVE_SWEEP_AUTHKEY") == value:
            del os.environ["COSERVE_SWEEP_AUTHKEY"]


class LocalWorkerPool:
    """Handle to ``coserve-sweep-worker`` subprocesses on this machine."""

    def __init__(
        self,
        processes: List["subprocess.Popen[str]"],
        hosts: List[str],
        owns_authkey_env: bool = False,
        authkey_value: Optional[str] = None,
    ) -> None:
        self.processes = processes
        self._hosts = tuple(hosts)
        self._owns_authkey_env = owns_authkey_env
        self._authkey_value = authkey_value

    @property
    def hosts(self) -> Tuple[str, ...]:
        """The workers' ``"host:port"`` addresses (pass as ``hosts=``)."""
        return self._hosts

    def terminate(self) -> None:
        """Stop every worker process (idempotent; waits for exit)."""
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                process.kill()
                process.wait(timeout=10)
        if self._owns_authkey_env:
            _release_generated_authkey(self._authkey_value)
            self._owns_authkey_env = False

    def __enter__(self) -> "LocalWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.terminate()


def spawn_local_workers(
    count: int = 2,
    host: str = "127.0.0.1",
    max_cells: Optional[int] = None,
    cwd: Optional[str] = None,
) -> LocalWorkerPool:
    """Start ``count`` sweep workers on this machine, on ephemeral ports.

    Each worker is a ``python -m repro.sweeps.worker --port 0``
    subprocess; the announced addresses are read off their stdout, so
    the returned pool is ready to serve.  ``max_cells`` forwards the
    crash-injection knob to *every* spawned worker (spawn pools
    separately to mix crashing and healthy workers); ``cwd`` sets the
    workers' working directory (tests use it to prove path handling is
    cwd-independent).  Use as a context manager to guarantee the
    processes die with the test or script.

    Even on loopback, the well-known default authkey would let any
    *other user* of a shared machine speak the pickle transport to the
    pool's workers.  So unless ``COSERVE_SWEEP_AUTHKEY`` is already
    set, a random per-pool secret is generated and exported to both the
    workers and this process's environment (where coordinators pick it
    up, including CLI subprocesses); :meth:`LocalWorkerPool.terminate`
    removes it again.
    """
    source_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    environment = dict(os.environ)
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        source_root if not existing else source_root + os.pathsep + existing
    )
    owns_authkey_env = False
    authkey_value = os.environ.get("COSERVE_SWEEP_AUTHKEY")
    if not authkey_value:
        import secrets

        authkey_value = secrets.token_hex(16)
        os.environ["COSERVE_SWEEP_AUTHKEY"] = authkey_value
        _GENERATED_AUTHKEY_REFS[authkey_value] = 1
        owns_authkey_env = True
    elif authkey_value in _GENERATED_AUTHKEY_REFS:
        # A concurrent pool generated this key: take a reference so the
        # env var outlives whichever pool terminates first.
        _GENERATED_AUTHKEY_REFS[authkey_value] += 1
        owns_authkey_env = True
    environment["COSERVE_SWEEP_AUTHKEY"] = authkey_value
    command = [sys.executable, "-m", "repro.sweeps.worker", "--host", host, "--port", "0"]
    if max_cells is not None:
        command += ["--max-cells", str(max_cells)]
    processes: List["subprocess.Popen[str]"] = []
    hosts: List[str] = []
    try:
        for _ in range(count):
            process = subprocess.Popen(
                command, stdout=subprocess.PIPE, text=True, env=environment, cwd=cwd
            )
            processes.append(process)
        for process in processes:
            assert process.stdout is not None
            line = process.stdout.readline()
            marker = "listening on "
            if marker not in line:
                raise RuntimeError(
                    f"sweep worker failed to start (exit {process.poll()}): {line!r}"
                )
            hosts.append(line.rsplit(marker, 1)[1].strip())
    except BaseException:
        for process in processes:
            if process.poll() is None:
                process.kill()
        if owns_authkey_env:
            _release_generated_authkey(authkey_value)
        raise
    return LocalWorkerPool(
        processes, hosts, owns_authkey_env=owns_authkey_env, authkey_value=authkey_value
    )


# ----------------------------------------------------------------------
# Console entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The ``coserve-sweep-worker`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="coserve-sweep-worker",
        description="Serve sweep cells to a distributed coserve-experiments coordinator.",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="Interface to bind (default: 127.0.0.1). Binding 0.0.0.0 to "
        "accept coordinators from other hosts requires a private secret "
        "(COSERVE_SWEEP_AUTHKEY or --authkey) — the worker refuses to "
        "expose the default key beyond loopback.",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="Port to listen on; 0 (the default) picks a free port and "
        "announces it on stdout.",
    )
    parser.add_argument(
        "--authkey",
        default=None,
        help="Handshake secret; must match the coordinator's. Defaults to "
        "the COSERVE_SWEEP_AUTHKEY environment variable (or a well-known "
        "localhost default).",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="Serve a single coordinator connection, then exit.",
    )
    parser.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="Testing: exit abruptly (without acknowledging the open lease) "
        "after sending N results — simulates a worker crash mid-batch.",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run a sweep worker until killed (the console-script entry point)."""
    arguments = build_parser().parse_args(argv)
    try:
        worker = SweepWorker(
            host=arguments.host,
            port=arguments.port,
            authkey=arguments.authkey.encode("utf-8") if arguments.authkey else None,
            max_cells=arguments.max_cells,
        )
    except ValueError as exc:  # e.g. default authkey beyond loopback
        print(f"coserve-sweep-worker: {exc}", file=sys.stderr)
        return 2
    worker.announce()
    try:
        if arguments.once:
            worker.handle_one_connection()
        else:
            worker.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocesses
    sys.exit(main())
