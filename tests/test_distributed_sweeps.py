"""Failure-mode tests for the distributed sweep backend.

The byte-identical equivalence of healthy distributed runs is asserted
in ``tests/test_sweeps.py`` (next to the serial/parallel matrix); this
module covers what the coordinator does when the fleet misbehaves:
worker crashes mid-batch (cells re-leased), duplicate result deliveries
(idempotent by cell key), abandoned coordinators (clean drain, workers
survive), and whole-fleet death (loud error).
"""

import dataclasses
import os
import time

import pytest

from repro.experiments import EXPERIMENT_GRIDS
from repro.experiments.base import EvaluationSettings
from repro.sweeps import (
    SweepCache,
    SweepCell,
    SweepExecutor,
    SweepGrid,
    SweepResults,
    SweepRunner,
    batch_cells,
    parse_hosts,
)
from repro.sweeps.distributed import DistributedExecutor
from repro.sweeps.worker import spawn_local_workers

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: One (device, task) group, five comparison systems — small enough that
#: every failure-mode run finishes in seconds, large enough to split
#: into several leases across two workers.
TINY_SETTINGS = EvaluationSettings(
    full_scale=False,
    reduced_requests=120,
    devices=("numa",),
    task_names=("A1",),
)


@pytest.fixture(scope="module")
def grid():
    return EXPERIMENT_GRIDS["figure13"](TINY_SETTINGS)


@pytest.fixture(scope="module")
def serial_results(grid):
    return SweepRunner(settings=TINY_SETTINGS).run(grid)


class TestParseHosts:
    def test_comma_separated_string(self):
        assert parse_hosts("a:1,b:2") == (("a", 1), ("b", 2))

    def test_sequence_of_strings_and_pairs(self):
        assert parse_hosts(["a:1", ("b", 2)]) == (("a", 1), ("b", 2))

    def test_ipv6_literals_are_rejected_up_front(self):
        """The AF_INET transport cannot reach an IPv6 literal; parse time
        is the place to say so, not a 20s connect timeout later."""
        with pytest.raises(ValueError, match="IPv6"):
            parse_hosts("::1:7071")

    def test_loopback_guard_is_not_fooled_by_dns_prefixes(self, monkeypatch):
        from repro.sweeps.distributed import is_loopback_host

        assert is_loopback_host("127.0.0.1")
        assert is_loopback_host("127.0.1.5")
        assert is_loopback_host("localhost")
        assert not is_loopback_host("127.attacker.example")  # DNS, not an IP
        assert not is_loopback_host("10.0.0.1")
        monkeypatch.delenv("COSERVE_SWEEP_AUTHKEY", raising=False)
        with pytest.raises(ValueError, match="refusing to connect"):
            DistributedExecutor(["127.attacker.example:7071"], settings=TINY_SETTINGS)

    def test_rejects_missing_port(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_hosts(["localhost"])

    def test_rejects_non_integer_port(self):
        with pytest.raises(ValueError, match="non-integer port"):
            parse_hosts(["localhost:http"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no worker hosts"):
            parse_hosts("")


class TestBatching:
    def test_one_batch_per_device_task_group(self):
        cells = [
            SweepCell.make("s1", "numa", "A1"),
            SweepCell.make("s2", "numa", "A1"),
            SweepCell.make("s1", "uma", "A1"),
        ]
        batches = batch_cells(cells, parts=2)
        assert sorted(len(batch) for batch in batches) == [1, 2]
        for batch in batches:
            assert len({(cell.device, cell.task) for cell in batch}) == 1

    def test_groups_split_when_parts_outnumber_them(self):
        cells = [SweepCell.make(f"s{i}", "numa", "A1") for i in range(6)]
        batches = batch_cells(cells, parts=3)
        assert len(batches) == 3
        assert [cell for batch in batches for cell in batch] == cells

    def test_every_executor_accepts_an_empty_cell_sequence(self):
        from repro.sweeps import ProcessPoolExecutor, SerialExecutor

        assert batch_cells([], parts=4) == []
        assert list(SerialExecutor(TINY_SETTINGS).run_iter([])) == []
        assert list(ProcessPoolExecutor(TINY_SETTINGS, jobs=4).run_iter([])) == []


class TestLeaseResultBatching:
    def test_one_lease_results_message_per_lease(self, grid, serial_results):
        """Speak the wire protocol directly: a lease's results must come
        back as a single ``lease_results`` batch followed by the
        ``lease_done`` acknowledgement — not one framed pickle per cell."""
        from multiprocessing.connection import Client

        from repro.sweeps.cache import settings_fingerprint
        from repro.sweeps.distributed import sweep_authkey

        cells = tuple(grid)[:3]
        with spawn_local_workers(1) as pool:
            address = parse_hosts(pool.hosts)[0]
            connection = Client(address, authkey=sweep_authkey())
            try:
                connection.send(
                    ("hello", TINY_SETTINGS, None, settings_fingerprint(TINY_SETTINGS))
                )
                assert connection.recv()[0] == "ready"
                connection.send(("lease", 0, cells))
                messages = [connection.recv(), connection.recv()]
                connection.send(("bye",))
            finally:
                connection.close()
        kinds = [message[0] for message in messages]
        assert kinds == ["lease_results", "lease_done"], kinds
        _, lease_id, pairs = messages[0]
        assert lease_id == 0
        assert [cell.key for cell, _ in pairs] == [cell.key for cell in cells]
        for cell, result in pairs:
            assert result == serial_results[cell], f"{cell.label()} diverged"

    def test_worker_sending_an_unknown_message_is_dropped(self, grid, serial_results):
        """A worker answering a lease with a message outside the protocol
        (here the retired per-cell ``result`` form, carrying a bogus row)
        is dropped like a dead one: its open lease is re-leased and the
        sweep completes on the surviving worker with rows equal to a
        serial run."""
        import threading
        from multiprocessing.connection import Listener

        from repro.sweeps.distributed import sweep_authkey

        leased = threading.Event()

        def rogue_worker(listener):
            connection = listener.accept()
            try:
                assert connection.recv()[0] == "hello"
                connection.send(("ready", "rogue"))
                message = connection.recv()
                assert message[0] == "lease"
                leased.set()
                _, lease_id, cells = message
                bogus = dataclasses.replace(serial_results[cells[0]], makespan_ms=-1.0)
                connection.send(("result", lease_id, cells[0], bogus))
                connection.poll(10)  # returns once the coordinator hangs up
            except (EOFError, OSError):
                pass
            finally:
                connection.close()

        with spawn_local_workers(1) as pool:
            # Inside the pool: its generated authkey is the one in force.
            listener = Listener(("127.0.0.1", 0), authkey=sweep_authkey())
            thread = threading.Thread(target=rogue_worker, args=(listener,), daemon=True)
            thread.start()
            try:
                hosts = [listener.address, *parse_hosts(pool.hosts)]
                results = SweepRunner(settings=TINY_SETTINGS, hosts=hosts).run(grid)
            finally:
                thread.join(10)
                listener.close()
        assert leased.is_set(), "the rogue worker never received a lease"
        assert len(results) == len(grid)
        for cell in grid:
            assert results[cell] == serial_results[cell], f"{cell.label()} diverged"


class TestWorkerCrash:
    def test_crashed_workers_cells_are_releases_to_survivors(self, grid, serial_results):
        """A worker dying mid-batch (after streaming one result, before
        acknowledging its lease) must not lose cells: the survivors pick
        the unacknowledged remainder up and the sweep completes with
        results byte-identical to a serial run."""
        crasher = spawn_local_workers(1, max_cells=1)
        healthy = spawn_local_workers(1)
        try:
            hosts = crasher.hosts + healthy.hosts
            results = SweepRunner(settings=TINY_SETTINGS, hosts=hosts).run(grid)
            assert len(results) == len(grid)
            for cell in grid:
                assert results[cell] == serial_results[cell], f"{cell.label()} diverged"
            # The crash injection really did kill the process (give the
            # exit a moment to be reaped).
            deadline = time.monotonic() + 10
            while crasher.processes[0].poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
            assert crasher.processes[0].poll() is not None, "crash injection did not fire"
        finally:
            crasher.terminate()
            healthy.terminate()

    def test_all_workers_dead_raises_with_failures(self, grid):
        doomed = spawn_local_workers(1, max_cells=1)
        try:
            with pytest.raises(RuntimeError, match="died with .* outstanding"):
                SweepRunner(settings=TINY_SETTINGS, hosts=doomed.hosts).run(grid)
        finally:
            doomed.terminate()

    def test_cell_execution_error_fails_fast_with_the_real_error(self, grid, serial_results):
        """A deterministic cell failure must surface as itself, not be
        re-leased around the fleet until it looks like worker death —
        and the worker process must survive to serve the next sweep."""
        poisoned = SweepGrid.single(
            SweepCell.make("coserve", "numa", "A1", slo_percentile=50.0)  # no target
        )
        with spawn_local_workers(1) as pool:
            with pytest.raises(RuntimeError, match="cell execution failed.*slo_target_ms"):
                SweepRunner(settings=TINY_SETTINGS, hosts=pool.hosts).run(poisoned)
            assert pool.processes[0].poll() is None, "worker died on a cell error"
            results = SweepRunner(settings=TINY_SETTINGS, hosts=pool.hosts).run(grid)
            for cell in grid:
                assert results[cell] == serial_results[cell], f"{cell.label()} diverged"

    def test_coordinator_connections_arm_tcp_keepalive(self):
        """Silent host loss (no FIN/RST) must not hang the sweep: every
        coordinator connection carries keepalive probes that turn a dead
        peer into the normal worker-death/re-lease path."""
        import socket as socket_module

        with spawn_local_workers(1) as pool:
            executor = DistributedExecutor(pool.hosts, settings=TINY_SETTINGS)
            connection = executor._connect(executor.addresses[0])
            try:
                probe = socket_module.socket(fileno=__import__("os").dup(connection.fileno()))
                try:
                    assert probe.getsockopt(
                        socket_module.SOL_SOCKET, socket_module.SO_KEEPALIVE
                    )
                finally:
                    probe.close()
            finally:
                connection.close()

    def test_unreachable_worker_fails_after_connect_timeout(self, grid):
        executor = DistributedExecutor(
            ["127.0.0.1:1"], settings=TINY_SETTINGS, connect_timeout_s=0.2
        )
        runner = SweepRunner(settings=TINY_SETTINGS, executor=executor)
        with pytest.raises(RuntimeError, match="could not connect"):
            runner.run(grid)

    def test_connect_timeout_covers_a_stalled_handshake(self, grid):
        """Client() has no timeout of its own: a connect landing in a
        busy worker's backlog blocks in the HMAC handshake recv.  The
        executor's deadline must cover that, not just refused sockets."""
        import socket as socket_module

        with spawn_local_workers(1) as pool:
            address = parse_hosts(pool.hosts)[0]
            # Occupy the worker's accept handshake without ever speaking;
            # the executor's own connect now sits in the listen backlog.
            blocker = socket_module.create_connection(address)
            try:
                executor = DistributedExecutor(
                    pool.hosts, settings=TINY_SETTINGS, connect_timeout_s=1.0
                )
                start = time.monotonic()
                with pytest.raises(RuntimeError, match="could not connect"):
                    list(executor.run_iter(list(grid)))
                assert time.monotonic() - start < 15, "deadline did not bound the handshake"
            finally:
                blocker.close()


class _DuplicatingExecutor(SweepExecutor):
    """Test double: delivers every (cell, result) pair twice — what a
    re-leased batch whose original results were already in flight looks
    like to the runner."""

    def __init__(self, pairs):
        self.pairs = list(pairs)

    def run_iter(self, cells):
        for pair in self.pairs:
            yield pair
            yield pair


class TestDuplicateDelivery:
    def test_runner_is_idempotent_by_cell_key(self, grid, serial_results):
        pairs = [(cell, serial_results[cell]) for cell in grid]
        runner = SweepRunner(settings=TINY_SETTINGS, executor=_DuplicatingExecutor(pairs))
        results = SweepResults()
        yielded = list(runner.run_iter(grid, results=results))
        assert len(yielded) == len(grid), "duplicates must not be re-yielded"
        assert len(results) == len(grid)
        for cell in grid:
            assert results[cell] == serial_results[cell]

    def test_duplicate_cache_stores_are_last_writer_wins(self, tmp_path, grid, serial_results):
        cell = grid.cells[0]
        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        cache.store(cell, serial_results[cell])
        cache.store(cell, serial_results[cell])  # byte-identical rewrite
        assert cache.load(cell) == serial_results[cell]


class TestCoordinatorShutdown:
    def test_abandoned_iterator_drains_and_workers_survive(self, grid, serial_results):
        """Closing ``run_iter`` mid-sweep must stop cleanly (no hang, no
        stray threads) and leave the worker processes ready for the next
        coordinator."""
        with spawn_local_workers(2) as pool:
            runner = SweepRunner(settings=TINY_SETTINGS, hosts=pool.hosts)
            iterator = runner.run_iter(grid)
            cell, result = next(iterator)
            assert result == serial_results[cell]
            iterator.close()  # abandon the sweep
            assert all(process.poll() is None for process in pool.processes)
            # The same fleet serves a full, correct sweep afterwards.
            results = SweepRunner(settings=TINY_SETTINGS, hosts=pool.hosts).run(grid)
            for cell in grid:
                assert results[cell] == serial_results[cell], f"{cell.label()} diverged"

    def test_empty_grid_contacts_no_workers(self):
        executor = DistributedExecutor(
            ["127.0.0.1:1"], settings=TINY_SETTINGS, connect_timeout_s=0.2
        )
        assert list(executor.run_iter([])) == []

    def test_force_close_unblocks_a_thread_stuck_in_recv(self):
        """Abandoning a sweep mid-lease leaves host threads blocked in
        ``recv``; closing the fd alone would not interrupt the read, so
        the shutdown path must use ``socket.shutdown`` to deliver EOF."""
        import socket as socket_module
        import threading
        from collections import deque
        from multiprocessing.connection import Connection

        from repro.sweeps.distributed import _SweepState

        ours, theirs = socket_module.socketpair()
        connection = Connection(ours.detach())
        state = _SweepState(total=1, pending=deque(), next_lease_id=0)
        state.connections.append(connection)
        unblocked = threading.Event()

        def reader():
            try:
                connection.recv()
            except (EOFError, OSError):
                unblocked.set()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        time.sleep(0.2)  # let the reader block in recv
        state.force_close_connections()
        assert unblocked.wait(5), "recv stayed blocked after force close"
        thread.join(5)
        connection.close()
        theirs.close()


class TestGuardRails:
    def test_console_script_import_order_is_clean(self):
        """The coserve-sweep-worker entry point imports ``repro.sweeps``
        *first* — in a fresh interpreter, unlike this suite — which once
        closed the sweeps → experiments → figure-modules → sweeps import
        cycle (``python -m`` masked it; the installed script crashed).
        Pin every import order in subprocesses."""
        import subprocess
        import sys

        for statement in (
            "from repro.sweeps.worker import main",  # console-script form
            "import repro.sweeps",
            "import repro.experiments, repro.sweeps",
        ):
            process = subprocess.run(
                [sys.executable, "-c", statement],
                capture_output=True,
                text=True,
                cwd=REPO_ROOT,
                env={**os.environ, "PYTHONPATH": "src"},
            )
            assert process.returncode == 0, f"{statement!r} failed:\n{process.stderr}"

    def test_empty_hosts_is_rejected_not_silently_serial(self):
        """A dynamically built host list that resolves empty must fail
        loudly instead of running the whole sweep on the coordinator."""
        with pytest.raises(ValueError, match="no worker hosts"):
            SweepRunner(settings=TINY_SETTINGS, hosts=[])
        with pytest.raises(ValueError, match="no worker hosts"):
            SweepRunner(settings=TINY_SETTINGS, hosts="")
        # ... and the programmatic CLI equivalent enforces the same.
        from repro.experiments.cli import run_experiments

        with pytest.raises(ValueError, match="no worker hosts"):
            run_experiments(["table01"], TINY_SETTINGS, hosts=[])

    def test_non_loopback_bind_requires_private_authkey(self, monkeypatch):
        from repro.sweeps.worker import SweepWorker

        monkeypatch.delenv("COSERVE_SWEEP_AUTHKEY", raising=False)
        with pytest.raises(ValueError, match="refusing to bind"):
            SweepWorker(host="0.0.0.0")

    def test_non_loopback_connect_requires_private_authkey(self, monkeypatch):
        """Mirror of the worker guard: with the public default key the
        HMAC handshake authenticates nobody, and the coordinator
        unpickles whatever the remote endpoint sends."""
        monkeypatch.delenv("COSERVE_SWEEP_AUTHKEY", raising=False)
        with pytest.raises(ValueError, match="refusing to connect"):
            DistributedExecutor(["10.0.0.5:7071"], settings=TINY_SETTINGS)
        # A private key (either form) lifts the refusal.
        DistributedExecutor(["10.0.0.5:7071"], settings=TINY_SETTINGS, authkey=b"secret")
        monkeypatch.setenv("COSERVE_SWEEP_AUTHKEY", "secret")
        DistributedExecutor(["10.0.0.5:7071"], settings=TINY_SETTINGS)

    def test_executor_escape_hatch_cannot_poison_the_cache(self, tmp_path):
        """A custom executor returning per-request records into a cached
        run is refused at the store, so no later stripped run loads them."""
        from repro.experiments.base import EvaluationContext
        from repro.sweeps import execute_cell

        class RequestKeepingExecutor(SweepExecutor):
            def __init__(self):
                self.context = EvaluationContext(TINY_SETTINGS)

            def run_iter(self, cells):
                for cell in cells:
                    yield cell, execute_cell(self.context, cell, keep_requests=True)

        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        runner = SweepRunner(
            settings=TINY_SETTINGS, executor=RequestKeepingExecutor(), cache=cache
        )
        grid = SweepGrid.single(SweepCell.make("coserve-best", "numa", "A1"))
        with pytest.raises(ValueError, match="request-stripped"):
            runner.run(grid)
        assert len(cache) == 0

    def test_terminating_one_pool_keeps_a_surviving_pools_authkey(self, grid, serial_results):
        """Overlapping pools share one generated authkey; the env export
        must outlive whichever pool terminates first, or coordinators
        created afterwards could no longer reach the survivors."""
        first = spawn_local_workers(1)
        second = spawn_local_workers(1)
        try:
            first.terminate()
            assert os.environ.get("COSERVE_SWEEP_AUTHKEY"), "shared key dropped early"
            results = SweepRunner(settings=TINY_SETTINGS, hosts=second.hosts).run(grid)
            for cell in grid:
                assert results[cell] == serial_results[cell], f"{cell.label()} diverged"
        finally:
            first.terminate()
            second.terminate()

    def test_worker_context_cache_is_bounded(self, monkeypatch):
        from repro.sweeps import worker as worker_module
        import repro.experiments.base as experiments_base

        built = []
        # The worker imports EvaluationContext lazily inside
        # _context_for (layer rule RL001), so patch it at the source.
        monkeypatch.setattr(
            experiments_base,
            "EvaluationContext",
            lambda settings: built.append(settings) or object(),
        )
        shell = worker_module.SweepWorker.__new__(worker_module.SweepWorker)
        shell._contexts = {}
        for seed in range(worker_module.SweepWorker.MAX_CACHED_CONTEXTS + 3):
            shell._context_for(dataclasses.replace(TINY_SETTINGS, seed=seed))
        assert len(shell._contexts) == worker_module.SweepWorker.MAX_CACHED_CONTEXTS
        # Re-requesting a retained fingerprint reuses, not rebuilds.
        count = len(built)
        shell._context_for(dataclasses.replace(TINY_SETTINGS, seed=seed))
        assert len(built) == count


class TestWorkerResilience:
    def test_worker_survives_malformed_coordinator(self, grid, serial_results):
        """A coordinator sending garbage (wrong hello arity, unpicklable
        payloads) must not kill the worker: it drops the connection and
        returns to accepting, so one bad client cannot destroy a fleet."""
        from multiprocessing.connection import Client

        from repro.sweeps.distributed import sweep_authkey

        with spawn_local_workers(1) as pool:
            address = parse_hosts(pool.hosts)[0]
            for garbage in (("hello", "wrong-arity"), "not a tuple at all"):
                connection = Client(address, authkey=sweep_authkey())
                connection.send(garbage)
                connection.close()
            time.sleep(0.2)
            assert pool.processes[0].poll() is None, "worker died on malformed input"
            results = SweepRunner(settings=TINY_SETTINGS, hosts=pool.hosts).run(grid)
            for cell in grid:
                assert results[cell] == serial_results[cell], f"{cell.label()} diverged"


class TestSharedCacheStore:
    def test_workers_read_and_write_the_shared_cache(self, tmp_path, grid, serial_results):
        """The cache is the distributed backend's shared result store:
        a pre-cached cell is loaded worker-side instead of re-executed
        (proven via a doctored entry), and every newly computed cell is
        persisted by the worker and verifiable by a later load."""
        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        doctored_cell = grid.cells[0]
        doctored = dataclasses.replace(
            serial_results[doctored_cell], abort_reason="cache-sentinel"
        )
        cache.store(doctored_cell, doctored)
        with spawn_local_workers(1) as pool:
            # Drive the executor directly: the runner would satisfy the
            # doctored cell from its own cache preload, hiding whether
            # the *worker* consults the store.
            executor = DistributedExecutor(pool.hosts, settings=TINY_SETTINGS, cache=cache)
            delivered = {cell.key: result for cell, result in executor.run_iter(list(grid))}
        assert delivered[doctored_cell.key].abort_reason == "cache-sentinel"
        verifier = SweepCache(str(tmp_path), TINY_SETTINGS)
        for cell in grid.cells[1:]:
            assert verifier.load(cell) == serial_results[cell], "worker write unreadable"
        assert verifier.hits == len(grid) - 1

    def test_relative_cache_directory_is_shared_regardless_of_worker_cwd(
        self, tmp_path, grid, serial_results, monkeypatch
    ):
        """The coordinator forwards its cache directory as an absolute
        path, so a localhost worker launched from a different working
        directory still writes the *coordinator's* store instead of
        silently splitting it (or crashing on an unwritable path)."""
        coordinator_cwd = tmp_path / "coordinator"
        worker_cwd = tmp_path / "elsewhere"
        coordinator_cwd.mkdir()
        worker_cwd.mkdir()
        monkeypatch.chdir(coordinator_cwd)
        cache = SweepCache("rel-cache", TINY_SETTINGS)  # relative to coordinator cwd
        with spawn_local_workers(1, cwd=str(worker_cwd)) as pool:
            executor = DistributedExecutor(pool.hosts, settings=TINY_SETTINGS, cache=cache)
            delivered = dict(executor.run_iter(list(grid)))
        assert len(delivered) == len(grid)
        assert not (worker_cwd / "rel-cache").exists(), "worker resolved the path locally"
        verifier = SweepCache(str(coordinator_cwd / "rel-cache"), TINY_SETTINGS)
        for cell in grid:
            assert verifier.load(cell) == serial_results[cell]
