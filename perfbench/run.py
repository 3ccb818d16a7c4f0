"""The repository benchmark: SMO time-to-solution and fleet throughput.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train_sparse --seed 1 \\
        --seconds 15 --trace 0

Workloads are ``train_sparse``, ``train_dense`` and ``serve_fleet`` (see
``perfbench/WORKLOADS.md``).  ``--workload all`` runs the three in turn.
The program is imported from ``src/`` of the same checkout and is never
modified.  Every metric is printed as ``metric <name> <value> <unit>
<clock>``, where the clock is ``wall`` (measured on ``perf_counter``),
``count`` or ``computed``.  The last line of standard output is one JSON
object: with ``--trace 0`` it carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Spans, pass notes
and the environment block are written to ``.perfbench/`` when the run
ends.  Any answer that differs from its reference makes the exit status
non-zero.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: ``train_dense`` runs on request but is not listed in BENCHMARK.json:
#: its probe picks DEN or ELL for ``gisette`` and ``epsilon`` depending
#: on how fast a second BLAS thread wakes, so its pass time jumps
#: between about 3.5 s and 12 s from one stretch of runs to the next
#: (see WORKLOADS.md).
WORKLOADS = ("train_sparse", "train_dense", "serve_fleet")

#: Largest allowed gap between the sum of the layers' self times and
#: the independently timed wall time of the traced passes.
ACCOUNTING_TOLERANCE = 0.01
#: Largest share of the traced wall time the wrapped layers may leave
#: to the loop/door remainder (``trace.unattributed_frac``).
UNATTRIBUTED_CAP = 0.25

STREAM_BYTES = 64 << 20  # read-bandwidth array, above common L3 sizes


def isolate_environment() -> Tuple[List[str], str]:
    """No hidden state: drop every ``REPRO_*`` switch inherited from the
    caller and point the tuning cache at a run-private path that does
    not exist, so it reads as empty and no ``~/.cache/repro/tune.json``
    can change a decision.  BLAS threading is left at the program's
    default.  Returns the cleared names and the cache path."""
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for k in cleared:
        del os.environ[k]
    tune_path = os.path.join(OUT_DIR, f"tune-{os.getpid()}.json")
    os.environ["REPRO_TUNE_CACHE"] = tune_path
    return cleared, tune_path


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        raise ImportError(f"cannot import repro from {src}: {exc}") from exc
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def child_pids() -> List[int]:
    """Processes whose parent is this one."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # the field after the parenthesised command is the state,
                # then the parent pid
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):  # exited meanwhile
            continue
        if ppid == me:
            out.append(int(entry))
    return out


def stop_children() -> List[int]:
    """Stop every process this run started and wait for each to end.

    Fleets shut their workers down when they close, but publishing
    shared memory also starts ``multiprocessing``'s resource tracker,
    which would otherwise outlive the run until it notices the pipe
    close.  It is stopped here (closing its pipe, then ``waitpid``).
    Anything still left is killed and reaped; its pids are returned."""
    from multiprocessing import active_children, resource_tracker

    for proc in active_children():  # joins finished ones, too
        proc.terminate()
        proc.join(timeout=10.0)
    tracker = resource_tracker._resource_tracker
    if hasattr(tracker, "_stop"):
        tracker._stop()
    left = child_pids()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return left


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
    except OSError:  # no git
        return "unknown"
    return out.stdout.strip() or "unknown"


def blas_info() -> Tuple[str, str]:
    """(OpenBLAS config string, effective thread count), read through
    ``ctypes`` from the library NumPy loaded.  Nothing is set."""
    import numpy.linalg  # noqa: F401  (loads BLAS)

    try:
        with open("/proc/self/maps") as fh:
            libs = {
                line.split()[-1]
                for line in fh
                if "openblas" in line.lower() and line.split()[-1][0] == "/"
            }
    except OSError:
        return "unknown", "unknown"
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(
                        lib, f"{prefix}openblas_get_num_threads{suffix}"
                    )
                    config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                except AttributeError:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                return config().decode(), str(threads())
    return "unknown", "unknown"


def llc_size() -> str:
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def stream_gbps() -> float:
    """Read bandwidth of one thread summing a ``STREAM_BYTES`` float64
    array (median of nine sweeps)."""
    import numpy as np

    a = np.ones(STREAM_BYTES // 8)
    a.sum()
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        a.sum()
        times.append(time.perf_counter() - t0)
    return STREAM_BYTES / statistics.median(times) / 1e9


def environment(cleared: List[str], tune_path: str) -> Dict[str, str]:
    import numpy

    config, threads = blas_info()
    return {
        "git_sha": git_sha(),
        "usable_cores": str(len(os.sched_getaffinity(0))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": config,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "blas_threads": threads,
        "REPRO_TUNE_CACHE": os.path.relpath(tune_path, ROOT) + " (empty)",
        "cleared_env": ",".join(cleared) or "none",
        "stream_array": f"{STREAM_BYTES >> 20} MiB float64, LLC {llc_size()}",
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    import workloads

    if workload == "serve_fleet":
        m, spans = workloads.run_serve(seed, seconds, trace)
        n_items = workloads.STREAM_SIZE
    else:
        m, spans = workloads.run_train(workload, seed, seconds, trace, ROOT)
        n_items = len(workloads.TRAIN_SETS[workload])
    if trace:
        m.per_layer["machine.stream_gbps"] = stream_gbps()
        metrics = {k: m.per_layer.get(k, 0.0) for k in workloads.PER_LAYER}
    else:
        tail, tail_note = workloads.tail(m.untraced)
        median = statistics.median(m.untraced)
        metrics = {
            "pass_s": median,
            "setup_s": statistics.median(m.setup_s),
            "peak_rss_mb": statistics.median(m.peak_rss_mb),
        }
        # The tail of a handful of passes is too noisy to gate on (see
        # WORKLOADS.md), so it is reported, not listed in BENCHMARK.json.
        m.notes.append(
            f"pass_s median of n={len(m.untraced)}; "
            f"setup_s median of n={len(m.setup_s)}; "
            f"peak_rss_mb median of n={len(m.peak_rss_mb)}"
        )
        m.notes.append(f"pass_s_tail {tail!r} s wall ({tail_note})")
        # The names the workload notes use for the same numbers.
        if workload == "serve_fleet":
            m.notes.append(f"serve_rps {n_items / median:.1f} req/s wall")
        else:
            m.notes.append(f"train_s {median:.4f} s wall ({n_items} fits)")
            m.notes.append(f"train_s_tail {tail:.4f} s wall ({tail_note})")
    m.notes.append(
        f"failed_frac {m.failed / max(1, m.attempted):.6f} "
        f"({m.failed} of {m.attempted})"
    )
    return m, spans, metrics


def main(argv=None) -> int:
    try:
        return measure(argv)
    finally:
        left = stop_children()
        if left:
            print(f"error: killed leftover child processes {left}",
                  file=sys.stderr)


def measure(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cleared, tune_path = isolate_environment()
    try:
        import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    env = environment(cleared, tune_path)
    for k, v in env.items():
        print(f"env {k}={v}")
    import workloads

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    table = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    correct = True
    attempted = failed = 0
    metrics: Dict[str, Dict[str, float]] = {}
    for name in names:
        m, spans, values = run_one(name, args.seed, args.seconds, bool(args.trace))
        for line in m.notes:
            print(f"{name}: {line}")
        for p in m.problems:
            print(f"{name}: MISMATCH {p}")
        for k, v in values.items():
            unit, clock = table[k]
            key = k if len(names) == 1 else f"{name}.{k}"
            print(f"metric {key} {v!r} {unit} {clock}")
            metrics[key] = {"value": v, "unit": unit}
        error = values.get("trace.accounting_error_frac", 0.0)
        if error > ACCOUNTING_TOLERANCE:
            print(f"{name}: layer self times miss the traced wall time "
                  f"by {error:.2%} (> {ACCOUNTING_TOLERANCE:.0%})")
            correct = False
        unattributed = values.get("trace.unattributed_frac", 0.0)
        if unattributed > UNATTRIBUTED_CAP:
            print(f"{name}: the layers leave {unattributed:.1%} of the traced "
                  f"wall time unattributed (> {UNATTRIBUTED_CAP:.0%})")
            correct = False
        correct = correct and m.failed == 0
        attempted += m.attempted
        failed += m.failed
        record = {
            "env": env,
            "notes": m.notes,
            "problems": m.problems,
            "metrics": values,
            "spans": [s.as_dict() for s in spans],
        }
        path = os.path.join(
            OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json"
        )
        with open(path, "w") as fh:
            json.dump(record, fh)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
