"""The serving fleet: bitwise contract, zero-copy, admission, scaling.

Most tests run the ``local`` backend — the identical wire protocol
(everything still round-trips through pickle, bytes still counted)
without process startup cost; a small set exercises real worker
processes end to end.
"""

import dataclasses
import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.obs.trace import get_tracer
from repro.serve.admission import AdmissionController
from repro.serve.bench import synthetic_model
from repro.serve.bench_fleet import (
    STRONG_BITWISE_FORMATS,
    flip_fleet_models,
)
from repro.serve.engine import InferenceEngine
from repro.serve.fleet import ServingFleet, simulate_fleet
from repro.serve.loadgen import (
    TenantSpec,
    Workload,
    multi_tenant,
    open_loop,
    query_sampler,
    replay_unbatched,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.shm import leaked_segments
from repro.serve.worker import FleetWorkerError

N_FEATURES = 64


def two_models():
    return {
        "alpha": synthetic_model(
            n_sv=100, n_features=N_FEATURES, row_nnz=6, seed=1
        ),
        "beta": synthetic_model(
            n_sv=80, n_features=N_FEATURES, row_nnz=8, seed=2
        ),
    }


def tenant_workload(n=160, seed=7, n_features=N_FEATURES):
    sampler = query_sampler(n_features, 5)
    return multi_tenant(
        [
            TenantSpec(
                "t-a", "alpha", n=n, rate_rps=12_000.0,
                pattern="bursty", period_s=0.01,
            ),
            TenantSpec(
                "t-b", "beta", n=2 * n // 3, rate_rps=8_000.0,
                pattern="diurnal", period_s=0.02,
            ),
        ],
        sampler,
        seed=seed,
    )


def assert_bitwise_vs_replay(models, workload, report):
    """Labels AND decision values vs per-model unbatched replays."""
    default_key = sorted(models)[0]
    for key, model in models.items():
        pinned = InferenceEngine(model.clone())
        sub = [
            r for r in workload.arrivals
            if (r.model or default_key) == key
        ]
        reference = replay_unbatched(pinned, Workload("ref", sub))
        for req in sub:
            if req.req_id not in report.responses:
                continue
            assert report.responses[req.req_id] == reference[req.req_id]
            assert np.array_equal(
                report.decisions[req.req_id],
                pinned.decision_one(req.vector),
            )


class TestBitwiseContract:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("max_batch", [1, 4, 8])
    def test_every_interleaving_matches_replay(self, n_workers, max_batch):
        """Routing/batching interleavings never change any answer."""
        models = two_models()
        workload = tenant_workload()
        with ServingFleet(models, n_workers, backend="local") as fleet:
            report = simulate_fleet(fleet, workload, max_batch=max_batch)
        assert report.metrics.served == len(workload)
        assert_bitwise_vs_replay(models, workload, report)

    def test_mid_stream_replica_flips_stay_bitwise(self):
        """Per-replica re-schedules fire and stay invisible."""
        models = flip_fleet_models(smoke=True)
        n_features = models["alpha"].n_features
        workload = tenant_workload(n=200, seed=11, n_features=n_features)
        with ServingFleet(
            models,
            2,
            backend="local",
            initial_formats={k: "CSR" for k in models},
            rescheduler={
                "window": 16,
                "check_every": 4,
                "min_gain": 0.0,
                "candidates": STRONG_BITWISE_FORMATS,
            },
        ) as fleet:
            report = simulate_fleet(fleet, workload)
        assert report.events, "heavy-tailed arenas must trigger flips"
        for _key, _shard, event in report.events:
            assert event.to_fmt in STRONG_BITWISE_FORMATS
        assert_bitwise_vs_replay(models, workload, report)

    def test_replicas_may_diverge_in_format(self):
        """Two replicas of one model may settle on different layouts."""
        models = flip_fleet_models(smoke=True)
        n_features = models["alpha"].n_features
        workload = tenant_workload(n=200, seed=13, n_features=n_features)
        with ServingFleet(
            models,
            2,
            backend="local",
            initial_formats={k: "CSR" for k in models},
            rescheduler={
                "window": 16,
                "check_every": 4,
                "min_gain": 0.0,
                "candidates": STRONG_BITWISE_FORMATS,
            },
        ) as fleet:
            report = simulate_fleet(fleet, workload)
            formats = fleet.snapshot().formats
        per_model = {}
        for _wid, fmts in formats.items():
            for key, fmt in fmts.items():
                per_model.setdefault(key, set()).add(fmt)
        # At least one model is replicated; divergence is allowed (not
        # required — the assertion is that *answers* never differ).
        assert any(len(shards) >= 1 for shards in per_model.values())
        assert_bitwise_vs_replay(models, workload, report)

    def test_process_backend_matches_replay(self):
        models = two_models()
        workload = tenant_workload(n=120)
        with ServingFleet(models, 2, backend="process") as fleet:
            report = simulate_fleet(fleet, workload)
        assert_bitwise_vs_replay(models, workload, report)
        assert leaked_segments() == []


class TestZeroCopy:
    def test_hot_bytes_independent_of_nnz(self):
        """Per-request boundary traffic is O(batch), never O(nnz)."""
        sampler = query_sampler(N_FEATURES, 5)
        per_req = {}
        shared = {}
        for label, n_sv, row_nnz in (
            ("small", 100, 6), ("large", 800, 24),
        ):
            model = synthetic_model(
                n_sv=n_sv, n_features=N_FEATURES, row_nnz=row_nnz, seed=3
            )
            workload = open_loop(120, 10_000.0, sampler, seed=5)
            with ServingFleet({"m": model}, 2, backend="local") as fleet:
                report = simulate_fleet(fleet, workload)
                shared[label] = sum(
                    p.shared_bytes for p in fleet.publications.values()
                )
            sent = recv = reqs = 0
            for stats in report.snapshot.transport.values():
                sent += stats["hot_bytes_sent"]
                recv += stats["hot_bytes_received"]
                reqs += stats["hot_requests"]
            assert reqs == report.metrics.served
            per_req[label] = (sent + recv) / reqs
        # ~32x nnz growth; request traffic must not follow it.
        assert shared["large"] > 16 * shared["small"]
        assert per_req["large"] <= 1.5 * per_req["small"]
        # And each request's traffic is nowhere near the matrix size.
        assert per_req["large"] * 10 < shared["large"]

    def test_matrices_cross_once_as_control_plane(self):
        model = synthetic_model(
            n_sv=400, n_features=N_FEATURES, row_nnz=20, seed=4
        )
        sampler = query_sampler(N_FEATURES, 5)
        workload = open_loop(100, 10_000.0, sampler, seed=6)
        with ServingFleet({"m": model}, 2, backend="local") as fleet:
            matrix_bytes = sum(
                p.shared_bytes for p in fleet.publications.values()
            )
            report = simulate_fleet(fleet, workload)
        for stats in report.snapshot.transport.values():
            # Attach + snapshot messages: handles and metrics, not
            # matrix payloads.
            assert stats["control_bytes_sent"] < matrix_bytes / 4


class TestAdmission:
    def test_overload_is_bounded(self):
        """At ~2x capacity: rejects happen, in-flight stays bounded."""
        model = synthetic_model(
            n_sv=100, n_features=N_FEATURES, row_nnz=6, seed=5
        )
        sampler = query_sampler(N_FEATURES, 5)
        workload = open_loop(600, 27_000.0, sampler, seed=9)
        capacity = 24
        door = AdmissionController(capacity=capacity, shed_at=1.0)
        with ServingFleet({"m": model}, 2, backend="local") as fleet:
            report = simulate_fleet(fleet, workload, admission=door)
        assert report.metrics.rejected > 0
        assert report.max_inflight <= capacity
        assert (
            report.metrics.served + report.metrics.rejected
            + report.metrics.expired == len(workload)
        )
        lat = report.metrics.snapshot()["latency"]
        assert lat["p99_ms"] <= 25.0

    def test_degraded_path_still_bitwise(self):
        """Shed-mode single-vector answers match the replay too."""
        models = two_models()
        workload = tenant_workload(n=200)
        door = AdmissionController(capacity=48, shed_at=0.25)
        with ServingFleet(models, 2, backend="local") as fleet:
            report = simulate_fleet(fleet, workload, admission=door)
        assert report.metrics.degraded > 0
        assert_bitwise_vs_replay(models, workload, report)


class TestScalingAndRebalance:
    def test_virtual_throughput_scales_with_workers(self):
        models = two_models()
        workload = tenant_workload(n=400, seed=17)
        thr = {}
        for n in (1, 4):
            with ServingFleet(models, n, backend="local") as fleet:
                report = simulate_fleet(fleet, workload)
            thr[n] = report.metrics.throughput
        assert thr[4] >= 2.5 * thr[1]

    def test_hot_spot_triggers_replica_add(self):
        """Single-model traffic skew grows the replica set."""
        models = two_models()
        sampler = query_sampler(N_FEATURES, 5)
        # All traffic to one tenant: its shard runs hot, the detector
        # fires, and the rebalancer adds a replica on the cold shard.
        workload = multi_tenant(
            [
                TenantSpec("t-a", "alpha", n=400, rate_rps=12_000.0),
            ],
            sampler,
            seed=19,
        )
        with ServingFleet(
            models, 2, backend="local", weights={"alpha": 1.0, "beta": 1.0}
        ) as fleet:
            before = fleet.table.replicas("alpha")
            report = simulate_fleet(fleet, workload)
            after = fleet.table.replicas("alpha")
        assert len(before) == 1
        assert len(after) > len(before)
        assert report.rebalances
        ev = report.rebalances[0]
        assert ev.model == "alpha"
        assert ev.imbalance >= 1.5
        # Both shards end up serving the hot model.
        assert all(c > 0 for c in report.per_shard_served.values())
        assert_bitwise_vs_replay(models, workload, report)


class TestSnapshot:
    def test_merged_view_covers_every_worker(self):
        models = two_models()
        workload = tenant_workload(n=150)
        with ServingFleet(models, 3, backend="local") as fleet:
            report = simulate_fleet(fleet, workload)
        snap = report.snapshot
        worker_served = sum(
            s["served"] for s in snap.per_worker.values()
        )
        assert worker_served == len(workload)
        assert snap.metrics.served == worker_served
        assert len(snap.per_worker) == 3
        assert sorted(snap.formats) == [0, 1, 2]
        # Latency percentiles of the merged view are union-exact:
        # every reported percentile is an actually observed sample.
        merged = sorted(snap.metrics.latencies)
        all_samples = sorted(
            x for s in snap.per_worker.values() for x in s["latencies"]
        )
        assert merged == all_samples

    def test_registry_mount(self):
        from repro.obs.metrics import MetricsRegistry

        models = two_models()
        workload = tenant_workload(n=120)
        registry = MetricsRegistry()
        with ServingFleet(models, 2, backend="local") as fleet:
            report = simulate_fleet(fleet, workload, registry=registry)
        names = {m.name for m in registry.collect()}
        assert "repro_fleet.served" in names
        assert "repro_fleet.latency_seconds" in names
        assert any(n.startswith("repro_fleet.worker0.ops.") for n in names)
        assert report.metrics.served == len(workload)


class TestLifecycle:
    def test_close_is_idempotent_and_clean(self):
        models = two_models()
        fleet = ServingFleet(models, 2, backend="process")
        fleet.close()
        fleet.close()
        assert leaked_segments() == []

    def test_context_manager_cleans_up_on_error(self):
        models = two_models()
        with pytest.raises(RuntimeError):
            with ServingFleet(models, 2, backend="local"):
                raise RuntimeError("boom")
        assert leaked_segments() == []

    def test_unknown_model_raises(self):
        models = two_models()
        sampler = query_sampler(N_FEATURES, 5)
        workload = multi_tenant(
            [TenantSpec("t-x", "gamma", n=5, rate_rps=100.0)],
            sampler,
            seed=3,
        )
        with ServingFleet(models, 2, backend="local") as fleet:
            with pytest.raises(KeyError):
                simulate_fleet(fleet, workload)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ServingFleet({}, 2)
        with pytest.raises(ValueError):
            ServingFleet(two_models(), 0)
        with pytest.raises(ValueError):
            ServingFleet(two_models(), 2, backend="threads")


def assert_identical(a, b, path="report"):
    """Field-by-field, bitwise, order-sensitive equality of reports."""
    assert type(a) is type(b), path
    if isinstance(a, ServeMetrics):
        assert_identical(a.state(), b.state(), path)
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_identical(
                getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}"
            )
    elif isinstance(a, dict):
        assert list(a) == list(b), f"{path}: keys or their order differ"
        for k in a:
            assert_identical(a[k], b[k], f"{path}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_identical(x, y, f"{path}[{i}]")
    elif isinstance(a, (np.ndarray, np.generic, float)):
        x, y = np.asarray(a), np.asarray(b)
        assert x.dtype == y.dtype and x.shape == y.shape, path
        assert x.tobytes() == y.tobytes(), path
    else:
        assert a == b, path


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the main thread if the body overruns."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestPipelinedProcessFleet:
    """Batches are posted at dispatch and their replies applied later;
    the process fleet must still produce exactly the local report."""

    def test_report_identical_to_local_backend(self):
        models = flip_fleet_models(smoke=True)
        n_features = models["alpha"].n_features
        sampler = query_sampler(n_features, 5)
        # Skewed traffic (a hot spot, so a replica is added mid-stream)
        # at a rate that pushes admission into its degraded path.
        workload = multi_tenant(
            [
                TenantSpec(
                    "t-a", "alpha", n=300, rate_rps=30_000.0,
                    pattern="bursty", period_s=0.01,
                ),
                TenantSpec("t-b", "beta", n=40, rate_rps=2_000.0),
            ],
            sampler,
            seed=23,
        )
        reports = {}
        # With the door tracer on, every predict message carries fresh
        # trace ids, so byte counts would differ between the two runs.
        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.enabled = False
        try:
            for backend in ("local", "process"):
                with ServingFleet(
                    models,
                    2,
                    backend=backend,
                    weights={"alpha": 1.0, "beta": 1.0},
                    initial_formats={k: "CSR" for k in models},
                    rescheduler={
                        "window": 16,
                        "check_every": 4,
                        "min_gain": 0.0,
                        "candidates": STRONG_BITWISE_FORMATS,
                    },
                ) as fleet:
                    reports[backend] = simulate_fleet(
                        fleet,
                        workload,
                        admission=AdmissionController(
                            capacity=48, shed_at=0.25
                        ),
                    )
        finally:
            tracer.enabled = was_enabled
        local = reports["local"]
        assert local.rebalances, "the hot spot must add a replica"
        assert local.metrics.degraded > 0, "admission must shed"
        assert local.events, "replicas must re-schedule"
        assert_identical(local, reports["process"])
        # Replies are applied in dispatch order: format changes appear
        # in virtual-time order, each replica's events in batch order.
        times = [t for t, _key, _shard, _fmt in local.format_history]
        assert times == sorted(times)
        seqs = {}
        for key, shard, event in local.events:
            seqs.setdefault((key, shard), []).append(event.batch_seq)
        assert all(s == sorted(set(s)) for s in seqs.values())
        assert_bitwise_vs_replay(models, workload, local)

    def test_batches_larger_than_the_pipe_buffer(self):
        """Dense query batches bigger than a pipe buffer never deadlock
        the door against a worker writing its reply."""
        n_features = 2048
        model = synthetic_model(
            n_sv=60, n_features=n_features, row_nnz=40, seed=9
        )
        sampler = query_sampler(n_features, n_features)
        workload = open_loop(96, 20_000.0, sampler, seed=4)
        with deadline(60.0):
            with ServingFleet({"m": model}, 2, backend="process") as fleet:
                report = simulate_fleet(fleet, workload)
        assert max(
            s["hot_bytes_sent"] / s["hot_messages"]
            for s in report.snapshot.transport.values()
        ) > 64 * 1024
        assert report.metrics.served == len(workload)
        assert_bitwise_vs_replay({"m": model}, workload, report)

    def test_worker_killed_mid_batch(self):
        """A worker dying with a batch in flight fails loudly, names
        the lost requests, and close() still returns."""
        model = synthetic_model(
            n_sv=80, n_features=N_FEATURES, row_nnz=6, seed=2
        )
        sampler = query_sampler(N_FEATURES, 5)
        vectors = [sampler(np.random.default_rng(i)) for i in range(3)]
        fleet = ServingFleet({"m": model}, 2, backend="process")
        try:
            victim = fleet.shards[0]
            # Stopped, the worker cannot answer before it is killed.
            os.kill(victim.process.pid, signal.SIGSTOP)
            fleet.predict_batch(
                "m", 0, [11, 12], vectors[:2], 0.0, 1e-3, [0.0, 0.0]
            )
            survivor = fleet.predict_batch(
                "m", 1, [13], vectors[2:], 0.0, 1e-3, [0.0]
            )
            victim.kill()
            with deadline(30.0):
                with pytest.raises(
                    FleetWorkerError, match=r"worker 0 .*\[11, 12\]"
                ):
                    fleet.drain()
            # The other worker's reply is still collected and correct.
            ids, labels, dec, _fmt, _event = survivor.result()
            assert ids == [13]
            assert labels[0] == InferenceEngine(model).predict_one(
                vectors[2]
            )
            with pytest.raises(FleetWorkerError, match="worker 0"):
                fleet.predict_batch(
                    "m", 0, [14], vectors[:1], 0.0, 1e-3, [0.0]
                )
        finally:
            with deadline(30.0):
                fleet.close()
        assert leaked_segments() == []

    def test_stale_reply_is_never_read_as_another(self):
        """A control reply is matched to its own message even with a
        batch reply still unread ahead of it on the pipe."""
        model = synthetic_model(
            n_sv=80, n_features=N_FEATURES, row_nnz=6, seed=2
        )
        vector = query_sampler(N_FEATURES, 5)(np.random.default_rng(0))
        with ServingFleet({"m": model}, 1, backend="process") as fleet:
            shard = fleet.shards[0]
            token = shard.post(
                ("predict", "m", [7], [vector], 0.0, 1e-3, [0.0])
            )
            assert shard.request(("snapshot",))[1] == "snapshot"
            assert shard.collect(token)[3] == [7]
            # Posted and never collected: shutdown must skip past it.
            shard.post(("predict", "m", [8], [vector], 0.0, 1e-3, [0.0]))
            with deadline(30.0):
                shard.close()
            assert not shard.alive()
