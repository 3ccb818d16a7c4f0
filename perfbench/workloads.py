"""The three workloads: inputs, reference answers, checks, measurement.

Inputs come only from the seed.  Everything runs through the program's
public API on the wall clock (``time.perf_counter``); no ``ServeMetrics``
latency or throughput is read, because those run on the serving tier's
virtual clock.
"""

from __future__ import annotations

import ctypes
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import SVC, AdaptiveSVC
from repro.data import load_dataset
from repro.formats import CSRMatrix, SparseVector
from repro.serve import (
    InferenceEngine,
    ServedModel,
    ServingFleet,
    TenantSpec,
    TimedRequest,
    Workload,
    multi_tenant,
    simulate_fleet,
)

from layers import (
    Span,
    SpanRecorder,
    TimedKernel,
    TimedScheduler,
    layer_self_times,
    self_times,
    timed_profiling,
    timed_rpcs,
)

#: Gaussian kernel width for every fit (the CLI's ``repro train`` default).
GAMMA = 0.1

#: Dataset order within a pass is part of each workload's definition:
#: each probe runs on a machine warmed by the fits before it.
TRAIN_SETS = {
    "train_sparse": ("adult", "aloi", "mnist", "sector", "trefethen"),
    "train_dense": ("gisette", "epsilon", "connect-4"),
}

#: Formats the default hybrid scheduler can choose; per-format metrics
#: are reported for each.
FORMATS = ("CSR", "COO", "ELL", "DIA", "DEN")

#: Served models; queries are rows of the same clones.
SERVE_SETS = ("adult", "mnist")
#: The two tenants ``repro serve --workers N`` serves (the fleet suite's
#: multi-tenant traffic): a bursty tenant and a diurnal one, 3:2 in
#: request count.  Here they query ``adult`` and ``mnist``.  ``n`` is
#: set per stream.
TENANTS = (
    TenantSpec("t-burst", "adult", n=0, rate_rps=30_000.0,
               pattern="bursty", burst_factor=6.0, period_s=0.02),
    TenantSpec("t-tide", "mnist", n=0, rate_rps=18_000.0,
               pattern="diurnal", amplitude=0.7, period_s=0.05),
)
#: Measured requests per pass.  Each pass runs on a fresh fleet, and
#: short passes let one run sample several process placements.
STREAM_SIZE = 4_000
WARMUP_SIZE = 1_000  # prefix served once per fleet, before measuring
MAX_BATCH = 8  # the ``repro serve`` defaults
MAX_WAIT_MS = 2.0
#: The strict-bitwise family ``repro serve --workers N`` re-schedules
#: within (kernels that reduce CSR's product array in CSR's order).
RESCHEDULE_FORMATS = ("CSR", "SELL", "RCSR", "RSELL")

#: Row-cache budget of the reference fits.  The cache only saves
#: recomputing kernel rows, so the answers are those of the default
#: budget; it makes the references about twice as fast on ``epsilon``.
REFERENCE_CACHE_MB = 64.0
OBJECTIVE_RTOL = 1e-12

#: name -> (unit, clock) of every metric the benchmark prints.
END_TO_END = {
    "pass_s": ("s", "wall"),
    "setup_s": ("s", "wall"),
    "peak_rss_mb": ("MB", "count"),
}
PER_LAYER = {
    "features.profile_s": ("s", "wall"),
    "core.decide_s": ("s", "wall"),
    "core.probe_s": ("s", "wall"),
    "core.decision_flips": ("count", "count"),
    "formats.convert_s": ("s", "wall"),
    **{f"formats.kernel_s.{f}": ("s", "wall") for f in FORMATS},
    **{f"formats.kernel_rows.{f}": ("count", "count") for f in FORMATS},
    **{f"formats.gbps.{f}": ("GB/s", "computed") for f in FORMATS},
    "machine.stream_gbps": ("GB/s", "wall"),
    "svm.smo_iterations": ("count", "count"),
    "svm.row_cache_hit_ratio": ("ratio", "computed"),
    "svm.smo_self_s": ("s", "wall"),
    "serve.batch_rtt_ms_p50": ("ms", "wall"),
    "serve.batch_rtt_ms_tail": ("ms", "wall"),
    "serve.rpc_busy_frac": ("ratio", "wall"),
    "serve.door_self_s": ("s", "wall"),
    "serve.batches": ("count", "count"),
    "serve.mean_batch": ("count", "computed"),
    "serve.shard_imbalance": ("ratio", "computed"),
    "serve.reschedules": ("count", "count"),
    "serve.rebalances": ("count", "count"),
    "serve.hot_bytes_per_req": ("B", "computed"),
    "serve.worker_bytes_per_req": ("B", "computed"),
    "bench.loop_self_s": ("s", "wall"),
    "trace.unattributed_frac": ("ratio", "wall"),
    "trace.accounting_error_frac": ("ratio", "wall"),
    "trace_overhead_frac": ("ratio", "wall"),
}


# -- shared helpers ------------------------------------------------------


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, or
    the maximum when there are fewer than twenty samples."""
    n = len(values)
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return float(np.percentile(values, p)), f"p{p:g} of n={n}"
    return max(values), f"max of n={n}"


def _status_kb(path: str, *keys: str) -> int:
    """Sum of the ``key: <n> kB`` lines of a ``/proc`` status file."""
    kb = 0
    with open(path) as fh:
        for line in fh:
            if line.split(":")[0] in keys:
                kb += int(line.split()[1])
    return kb


def restart_peak_rss() -> float:
    """Return freed heap pages to the system (``malloc_trim``), then
    restart this process's high-water mark (``VmHWM``) at its current
    RSS, which is returned in MB.  A peak read after this counts only
    what was allocated since, on top of the live data."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):  # not glibc
        pass
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
    return peak_rss_mb()


def peak_rss_mb() -> float:
    """This process's ``VmHWM`` since :func:`restart_peak_rss`."""
    return _status_kb("/proc/self/status", "VmHWM") / 1024.0


def private_mb(pid: int) -> float:
    """Memory only process ``pid`` maps: for a forked worker, the pages
    it allocated or wrote after ``fork``."""
    return _status_kb(
        f"/proc/{pid}/smaps_rollup", "Private_Clean", "Private_Dirty"
    ) / 1024.0


@dataclass
class Measured:
    """What one run measured, before it is turned into metrics."""

    setup_s: List[float] = field(default_factory=list)
    untraced: List[float] = field(default_factory=list)  # s per pass
    traced: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    per_layer: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    peak_rss_mb: List[float] = field(default_factory=list)  # per pass

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def overhead(self) -> float:
        """Traced over untraced median pass time, minus one."""
        return (
            statistics.median(self.traced) / statistics.median(self.untraced)
            - 1.0
        )


def measure_loop(
    seconds: float,
    trace: bool,
    run_pass: Callable[[bool], float],
    warmup: bool,
) -> Tuple[List[float], List[float]]:
    """Run passes until ``seconds`` have passed.  An untraced run makes
    at least three passes; a traced run alternates untraced and traced
    passes and makes at least two of each.  With ``warmup``, one
    untraced pass runs first and is not counted."""
    if warmup:
        run_pass(False)
    untraced: List[float] = []
    traced: List[float] = []
    start = time.perf_counter()
    while True:
        if trace:
            enough = len(untraced) >= 2 and len(traced) >= 2
        else:
            enough = len(untraced) >= 3
        if enough and time.perf_counter() - start >= seconds:
            return untraced, traced
        with_trace = trace and len(untraced) > len(traced)
        (traced if with_trace else untraced).append(run_pass(with_trace))


def accounting(spans: List[Span], walls: List[float]) -> Dict[str, float]:
    """The traced passes' self times against their wall time, which is
    timed independently around each pass.

    ``trace.accounting_error_frac`` compares the sum of every layer's
    self time, the loop/door remainder included, with the wall time.
    Each pass's spans nest under one root on one stack, so this holds by
    construction; it guards the self-time arithmetic.
    ``trace.unattributed_frac`` is the remainder's share of the wall
    time: the benchmark's own loop (answer checks) on ``train_*``, the
    door's work outside ``predict_batch`` on ``serve_fleet``.  It grows
    when the program's time moves out of the wrapped entry points.
    """
    wall = sum(walls)
    layers = layer_self_times(spans)
    remainder = layers.get("loop", 0.0) + layers.get("door", 0.0)
    return {
        "trace.accounting_error_frac": abs(sum(layers.values()) - wall) / wall,
        "trace.unattributed_frac": remainder / wall,
    }


# -- training ------------------------------------------------------------


@dataclass(frozen=True)
class TrainAnswer:
    """The parts of a fit that the checks compare."""

    converged: bool
    iterations: int
    objective: float
    labels: np.ndarray  # training-set labels from the solver's f


def train_answer(clf: SVC, y: np.ndarray) -> TrainAnswer:
    r = clf.result_
    # f_i = sum_j alpha_j y_j K_ij - y_i, so the decision value of
    # training row i is f_i + y_i - b.
    labels = np.where(r.f + y - r.b >= 0.0, 1.0, -1.0)
    return TrainAnswer(r.converged, r.iterations, r.objective(y), labels)


def check_train(got: TrainAnswer, ref: TrainAnswer) -> List[str]:
    """Differences between a fit and its fixed-CSR reference fit."""
    out = []
    if not got.converged:
        out.append("did not converge")
    if got.iterations != ref.iterations:
        out.append(f"iterations {got.iterations} != {ref.iterations}")
    scale = max(abs(ref.objective), np.finfo(float).tiny)
    if not abs(got.objective - ref.objective) / scale <= OBJECTIVE_RTOL:
        out.append(f"objective {got.objective!r} != {ref.objective!r}")
    if not np.array_equal(got.labels, ref.labels):
        n = int(np.count_nonzero(got.labels != ref.labels))
        out.append(f"{n} training-set labels differ")
    return out


def reference_answer(X: CSRMatrix, y: np.ndarray) -> TrainAnswer:
    """The answer of a fixed-CSR ``SVC`` fit."""
    clf = SVC("gaussian", gamma=GAMMA, cache_mb=REFERENCE_CACHE_MB)
    return train_answer(clf.fit(X, y), y)


def train_inputs(
    names: Sequence[str], seed: int
) -> List[Tuple[str, CSRMatrix, np.ndarray]]:
    out = []
    for name in names:
        ds = load_dataset(name, seed=seed)
        X = CSRMatrix.from_coo(ds.rows, ds.cols, ds.values, ds.shape)
        out.append((name, X, ds.y))
    return out


def import_seconds(root: str) -> float:
    """Wall time of ``import repro`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro"], cwd=root, env=env, check=True
    )
    return time.perf_counter() - t0


def run_train(
    workload: str, seed: int, seconds: float, trace: bool, root: str
) -> Tuple[Measured, List[Span]]:
    names = TRAIN_SETS[workload]
    m = Measured()

    def set_up() -> List[Tuple[str, CSRMatrix, np.ndarray]]:
        """One set-up: ``import repro`` in a fresh interpreter, then
        building the inputs."""
        t_import = import_seconds(root)
        t0 = time.perf_counter()
        data = train_inputs(names, seed)
        m.setup_s.append(t_import + time.perf_counter() - t0)
        return data

    # Set-up runs here and again after every pass, so that its median
    # samples the whole run and not one stretch of machine speed.
    data = set_up()
    refs = {name: reference_answer(X, y) for name, X, y in data}
    base_mb = restart_peak_rss()

    spans = SpanRecorder()
    counters: Dict = {}
    walls: List[float] = []  # independent clock around each traced pass
    chosen: List[Dict[str, str]] = []
    smo = {"iterations": 0, "rows": 0}

    def fit(X, y, traced: bool) -> Tuple[AdaptiveSVC, float]:
        if not traced:
            t0 = time.perf_counter()
            clf = AdaptiveSVC("gaussian", gamma=GAMMA).fit(X, y)
            return clf, time.perf_counter() - t0
        clf = AdaptiveSVC(
            TimedKernel(GAMMA, spans, counters),
            scheduler=TimedScheduler(spans),
        )
        with timed_profiling(spans), spans.span("svm.fit") as attrs:
            t0 = time.perf_counter()
            clf.fit(X, y)
            dt = time.perf_counter() - t0
            attrs["fmt"] = clf.chosen_format
        smo["iterations"] += clf.result_.iterations
        smo["rows"] += clf.result_.kernel_rows_computed
        return clf, dt

    def run_pass(traced: bool) -> float:
        total = 0.0
        formats: Dict[str, str] = {}
        restart_peak_rss()
        t_wall = time.perf_counter()
        with spans.span("bench.loop") if traced else nullcontext():
            for name, X, y in data:
                spans.op += 1
                m.attempted += 1
                try:
                    clf, dt = fit(X, y, traced)
                except Exception as exc:  # a fit that raises is a failure
                    m.fail(f"{name}: {type(exc).__name__}: {exc}")
                    continue
                total += dt
                formats[name] = clf.chosen_format
                for p in check_train(train_answer(clf, y), refs[name]):
                    m.fail(f"{name}: {p}")
        if traced:
            walls.append(time.perf_counter() - t_wall)
        m.peak_rss_mb.append(peak_rss_mb())
        chosen.append(formats)
        m.notes.append(
            f"pass {len(chosen) - 1} {'traced' if traced else 'untraced'} "
            f"{total:.4f} s peak {m.peak_rss_mb[-1]:.1f} MB formats "
            + " ".join(f"{k}={v}" for k, v in formats.items())
        )
        set_up()
        return total

    # The first training pass after the reference fits runs 10-30%
    # slower (allocator and cache warm-up), so it is not timed.
    m.untraced, m.traced = measure_loop(seconds, trace, run_pass, True)
    m.notes.append(
        f"peak_rss_mb: VmHWM of each pass {min(m.peak_rss_mb):.1f}-"
        f"{max(m.peak_rss_mb):.1f} MB, from {base_mb:.1f} MB after set-up "
        "and references"
    )

    first: Dict[str, str] = {}
    flips = 0
    for formats in chosen:
        for name, fmt in formats.items():
            first.setdefault(name, fmt)
            flips += fmt != first[name]
    m.notes.append(
        f"decision flips {flips} over {len(chosen)} passes "
        "(pass 0 is the untimed warm-up)"
    )
    if trace:
        m.per_layer = train_layers(spans.spans, counters, smo, walls)
        m.per_layer["core.decision_flips"] = float(flips)
        m.per_layer["trace_overhead_frac"] = m.overhead()
    return m, spans.spans


def train_layers(
    spans: List[Span],
    counters: Dict,
    smo: Dict[str, int],
    walls: List[float],
) -> Dict[str, float]:
    """Per-pass means of the training path's layer numbers."""
    n = len(walls)
    own = self_times(spans)
    total: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    kernel_s = {f: 0.0 for f in FORMATS}
    kernel_rows = {f: 0 for f in FORMATS}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.span_id]
        if s.name == "formats.kernel":
            kernel_s[s.attrs["fmt"]] += s.duration
            kernel_rows[s.attrs["fmt"]] += s.attrs["rows"]
    out = {
        "features.profile_s": total.get("features.profile", 0.0) / n,
        "core.decide_s": total.get("core.decide", 0.0) / n,
        "core.probe_s": total.get("core.probe", 0.0) / n,
        "formats.convert_s": self_s.get("core.apply", 0.0) / n,
        "svm.smo_iterations": smo["iterations"] / n,
        "svm.row_cache_hit_ratio": 1.0
        - smo["rows"] / (2 * smo["iterations"]),
        "svm.smo_self_s": self_s.get("svm.fit", 0.0) / n,
        "bench.loop_self_s": self_s.get("bench.loop", 0.0) / n,
        **accounting(spans, walls),
    }
    for f in FORMATS:
        out[f"formats.kernel_s.{f}"] = kernel_s[f] / n
        out[f"formats.kernel_rows.{f}"] = kernel_rows[f] / n
        c = counters.get(f)
        out[f"formats.gbps.{f}"] = (
            c.bytes_total / kernel_s[f] / 1e9 if c and kernel_s[f] else 0.0
        )
    return out


# -- serving -------------------------------------------------------------


def tenant_stream(
    n: int, seed: int, name: str, clones: Dict[str, CSRMatrix],
    rng: np.random.Generator, first_id: int = 0,
) -> Workload:
    """``n`` requests of the :data:`TENANTS` mix, numbered from
    ``first_id``.  ``multi_tenant`` draws the arrival times; each query
    is then a row of its model's clone, drawn from ``rng``."""
    empty = SparseVector(np.zeros(0, np.int32), np.zeros(0), 1)
    sizes = (n - 2 * n // 5, 2 * n // 5)
    timing = multi_tenant(
        [replace(t, n=k) for t, k in zip(TENANTS, sizes)],
        lambda _rng: empty,
        seed=seed,
        name=name,
    )
    arrivals = []
    for r in timing.arrivals:
        X = clones[r.model]
        row = X.row(int(rng.integers(X.shape[0])))
        arrivals.append(replace(r, req_id=first_id + r.req_id, vector=row))
    return Workload(name, arrivals)


def serve_inputs(seed: int):
    """Two served models fitted on the seed's clones, a warm-up prefix
    of ``WARMUP_SIZE`` requests and a measured stream of
    ``STREAM_SIZE``, whose queries are rows of the same clones."""
    data = train_inputs(SERVE_SETS, seed)
    models = {
        name: ServedModel.from_svc(SVC("gaussian", gamma=GAMMA).fit(X, y))
        for name, X, y in data
    }
    clones = {name: X for name, X, _ in data}
    rng = np.random.default_rng(seed)
    warm = tenant_stream(WARMUP_SIZE, 2 * seed, "serve-warmup", clones, rng)
    stream = tenant_stream(
        STREAM_SIZE, 2 * seed + 1, "serve-stream", clones, rng, WARMUP_SIZE
    )
    return models, warm, stream


def serve_references(
    models: Dict[str, ServedModel], requests: Sequence[TimedRequest]
) -> Dict[int, Tuple[float, np.ndarray]]:
    """Label and decision values of every request from one CSR-pinned
    engine per model, through the single-vector path.  The labels are
    those of ``replay_unbatched`` (both are ``decision_one`` followed by
    the same labelling); one sweep per request gives both answers."""
    out: Dict[int, Tuple[float, np.ndarray]] = {}
    for key, model in models.items():
        engine = InferenceEngine(model.clone())
        for r in requests:
            if r.model == key:
                out[r.req_id] = engine.predict_one_with_decision(r.vector)
    return out


def check_serve(
    responses: Dict[int, float],
    decisions: Dict[int, np.ndarray],
    refs: Dict[int, Tuple[float, np.ndarray]],
    req_ids: Sequence[int],
) -> List[str]:
    """One entry per request that is unanswered or not bitwise equal."""
    out = []
    for rid in req_ids:
        if rid not in responses or rid not in decisions:
            out.append(f"request {rid} unanswered")
            continue
        label, dec = refs[rid]
        got = np.asarray(decisions[rid], dtype=np.float64)
        if (
            np.float64(responses[rid]).tobytes() != np.float64(label).tobytes()
            or got.tobytes() != dec.tobytes()
        ):
            out.append(f"request {rid} differs from the unbatched replay")
    return out


def make_fleet(models: Dict[str, ServedModel]) -> ServingFleet:
    return ServingFleet(
        models,
        min(2, len(os.sched_getaffinity(0))),
        backend="process",
        rescheduler={"min_gain": 0.0, "candidates": RESCHEDULE_FORMATS},
    )


def fleet_counts(fleet: ServingFleet) -> Tuple[int, int, int]:
    """(hot-path bytes, hot-path requests, worker kernel bytes) so far."""
    hot = reqs = 0
    for shard in fleet.shards:
        st = shard.transport_stats()
        hot += st["hot_bytes_sent"] + st["hot_bytes_received"]
        reqs += st["hot_requests"]
    worker = sum(
        state["ops"]["bytes_read"] + state["ops"]["bytes_written"]
        for state in fleet.snapshot().per_worker.values()
    )
    return hot, reqs, worker


def run_serve(
    seed: int, seconds: float, trace: bool
) -> Tuple[Measured, List[Span]]:
    """Each pass builds a fresh fleet, serves the warm-up prefix (its
    set-up), then serves the measured stream.  A fresh fleet per pass
    samples a fresh process placement: on two vCPUs a session runs up to
    1.7x slower when the door and the worker it waits on sit on
    different CPUs, and a fleet keeps its placement for its lifetime."""
    models, warm, stream = serve_inputs(seed)
    refs = serve_references(models, warm.arrivals + stream.arrivals)
    base_mb = restart_peak_rss()
    m = Measured()
    spans = SpanRecorder()
    walls: List[float] = []
    totals = {"reschedules": 0, "rebalances": 0, "hot": 0, "hot_reqs": 0,
              "worker": 0}
    n_shards = 0
    door_mb: List[float] = []  # per pass

    def check(report, workload: Workload) -> None:
        ids = [r.req_id for r in workload.arrivals]
        m.attempted += len(ids)
        for p in check_serve(report.responses, report.decisions, refs, ids):
            m.fail(p)

    def serve(fleet: ServingFleet, workload: Workload):
        return simulate_fleet(
            fleet, workload, max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS
        )

    def run_pass(traced: bool) -> float:
        nonlocal n_shards
        spans.op += 1
        restart_peak_rss()
        t0 = time.perf_counter()
        fleet = make_fleet(models)
        try:
            warm_report = serve(fleet, warm)
            m.setup_s.append(time.perf_counter() - t0)
            before = fleet_counts(fleet)
            t0 = time.perf_counter()
            with (
                spans.span("serve.session") if traced else nullcontext()
            ), (timed_rpcs(fleet, spans) if traced else nullcontext()):
                report = serve(fleet, stream)
            dt = time.perf_counter() - t0
            after = fleet_counts(fleet)
            workers_mb = sum(private_mb(s.process.pid) for s in fleet.shards)
            door_mb.append(peak_rss_mb())
            m.peak_rss_mb.append(door_mb[-1] + workers_mb)
            n_shards = len(fleet.shards)
        finally:
            fleet.close()
        check(warm_report, warm)
        check(report, stream)
        if traced:
            walls.append(dt)
            totals["reschedules"] += len(report.events)
            totals["rebalances"] += len(report.rebalances)
            for k, b, a in zip(("hot", "hot_reqs", "worker"), before, after):
                totals[k] += a - b
        formats = sorted({h[3] for h in report.format_history})
        m.notes.append(
            f"session {'traced' if traced else 'untraced'} {dt:.4f} s "
            f"{len(stream) / dt:.1f} req/s formats {' '.join(formats)}"
        )
        return dt

    m.untraced, m.traced = measure_loop(seconds, trace, run_pass, False)
    m.notes.append(
        f"peak_rss_mb: door VmHWM of each pass {min(door_mb):.1f}-"
        f"{max(door_mb):.1f} MB (from {base_mb:.1f} MB after set-up and "
        f"references), door plus workers' private memory "
        f"{min(m.peak_rss_mb):.1f}-{max(m.peak_rss_mb):.1f} MB"
    )
    if trace:
        sizes: Dict[int, int] = {}
        for s in spans.spans:
            if s.name == "serve.rpc":
                sizes[s.attrs["k"]] = sizes.get(s.attrs["k"], 0) + 1
        m.notes.append(
            "batch sizes (size:batches) "
            + " ".join(f"{k}:{sizes[k]}" for k in sorted(sizes))
        )
        m.per_layer = serve_layers(spans.spans, walls, totals, n_shards)
        m.per_layer["serve.hot_bytes_per_req"] = (
            totals["hot"] / totals["hot_reqs"]
        )
        m.per_layer["serve.worker_bytes_per_req"] = totals["worker"] / (
            len(stream) * len(walls)
        )
        m.per_layer["trace_overhead_frac"] = m.overhead()
    return m, spans.spans


def serve_layers(
    spans: List[Span],
    walls: List[float],
    totals: Dict[str, int],
    n_shards: int,
) -> Dict[str, float]:
    """Per-session means of the serving path's layer numbers."""
    n = len(walls)
    own = self_times(spans)
    rpcs = [s for s in spans if s.name == "serve.rpc"]
    sessions = [s for s in spans if s.name == "serve.session"]
    rtt_ms = [s.duration * 1e3 for s in rpcs]
    loads = [0] * n_shards
    for s in rpcs:
        loads[s.attrs["shard"]] += s.attrs["k"]
    return {
        "serve.batch_rtt_ms_p50": statistics.median(rtt_ms),
        "serve.batch_rtt_ms_tail": tail(rtt_ms)[0],
        "serve.rpc_busy_frac": sum(s.duration for s in rpcs)
        / sum(s.duration for s in sessions),
        "serve.door_self_s": sum(own[s.span_id] for s in sessions) / n,
        "serve.batches": len(rpcs) / n,
        "serve.mean_batch": sum(loads) / len(rpcs),
        "serve.shard_imbalance": max(loads) / (sum(loads) / len(loads)),
        "serve.reschedules": totals["reschedules"] / n,
        "serve.rebalances": totals["rebalances"] / n,
        **accounting(spans, walls),
    }
