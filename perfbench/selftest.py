"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py

They check that inputs are a pure function of the seed, that every
metric name is well formed and matches ``BENCHMARK.json``, that each
correctness check fails when a copied answer is perturbed, that traced
and untraced runs give the same answers, that layer self times add up
to the traced wall time, and that the unattributed-share check fails
when the benchmark's own loop does the work.
"""

from __future__ import annotations

import json
import os
import re
import sys
import unittest

import run

run.isolate_environment()
run.import_program()

import numpy as np  # noqa: E402

import workloads as w  # noqa: E402
from layers import (  # noqa: E402
    SpanRecorder,
    TimedKernel,
    TimedScheduler,
    layer_self_times,
    self_times,
    timed_profiling,
    timed_rpcs,
)
from repro import SVC, AdaptiveSVC  # noqa: E402
from repro.serve import (  # noqa: E402
    InferenceEngine,
    Workload,
    replay_unbatched,
    simulate_fleet,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_same_datasets(self):
        for names in w.TRAIN_SETS.values():
            a = w.train_inputs(names, 7)
            b = w.train_inputs(names, 7)
            c = w.train_inputs(names, 8)
            for (na, Xa, ya), (nb, Xb, yb), (_, Xc, _) in zip(a, b, c):
                self.assertEqual(na, nb)
                for attr in ("row_ptr", "col_idx", "values"):
                    self.assertTrue(
                        np.array_equal(getattr(Xa, attr), getattr(Xb, attr))
                    )
                self.assertTrue(np.array_equal(ya, yb))
                self.assertFalse(np.array_equal(Xa.values, Xc.values))

    def test_same_seed_same_stream(self):
        def key(stream):
            return [
                (r.req_id, r.t, r.model, r.vector.indices.tobytes(),
                 r.vector.values.tobytes())
                for r in stream.arrivals
            ]

        _, warm_a, stream_a = w.serve_inputs(3)
        _, warm_b, stream_b = w.serve_inputs(3)
        _, _, stream_c = w.serve_inputs(4)
        self.assertEqual(key(warm_a), key(warm_b))
        self.assertEqual(key(stream_a), key(stream_b))
        self.assertNotEqual(key(stream_a), key(stream_c))
        self.assertEqual(len(stream_a), w.STREAM_SIZE)

    def test_stream_is_the_tenant_mix(self):
        _, warm, stream = w.serve_inputs(3)
        for workload in (warm, stream):
            times = [r.t for r in workload.arrivals]
            self.assertEqual(times, sorted(times))
            models = [r.model for r in workload.arrivals]
            self.assertEqual(
                3 * models.count("mnist"), 2 * models.count("adult")
            )
            for r in workload.arrivals:
                self.assertEqual(r.tenant, "t-burst" if r.model == "adult"
                                 else "t-tide")
        ids = [r.req_id for r in warm.arrivals + stream.arrivals]
        self.assertEqual(ids, list(range(w.WARMUP_SIZE + w.STREAM_SIZE)))


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_declared(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as fh:
            spec = json.load(fh)
        declared_e2e = [m["name"] for m in spec["end_to_end"]]
        declared_layer = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(declared_e2e, list(w.END_TO_END))
        self.assertEqual(declared_layer, list(w.PER_LAYER))
        for name in declared_e2e + declared_layer:
            self.assertRegex(name, NAME)
        for m in spec["end_to_end"] + spec["per_layer"]:
            table = w.END_TO_END if m in spec["end_to_end"] else w.PER_LAYER
            self.assertEqual(m["unit"], table[m["name"]][0])
        for x in spec["workloads"]:
            self.assertIn(x["name"], run.WORKLOADS)


class ChecksCatchPerturbation(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        (_, X, y), = w.train_inputs(("sector",), 0)
        cls.y = y
        cls.ref = w.reference_answer(X, y)
        cls.got = w.train_answer(
            AdaptiveSVC("gaussian", gamma=w.GAMMA).fit(X, y), y
        )

    def test_train_answer_matches_reference(self):
        self.assertEqual(w.check_train(self.got, self.ref), [])

    def test_reference_cache_changes_no_answer(self):
        (_, X, y), = w.train_inputs(("sector",), 0)
        default = w.train_answer(SVC("gaussian", gamma=w.GAMMA).fit(X, y), y)
        self.assertEqual(w.check_train(self.ref, default), [])

    def test_train_perturbations_fail(self):
        g = self.got
        labels = g.labels.copy()
        labels[0] = -labels[0]
        for bad in (
            w.TrainAnswer(False, g.iterations, g.objective, g.labels),
            w.TrainAnswer(True, g.iterations + 1, g.objective, g.labels),
            w.TrainAnswer(True, g.iterations, g.objective * (1 + 1e-11),
                          g.labels),
            w.TrainAnswer(True, g.iterations, float("nan"), g.labels),
            w.TrainAnswer(True, g.iterations, g.objective, labels),
        ):
            self.assertNotEqual(w.check_train(bad, self.ref), [])

    def test_serve_references_match_replay_unbatched(self):
        models, warm, _ = w.serve_inputs(0)
        refs = w.serve_references(models, warm.arrivals)
        for key, model in models.items():
            mine = Workload(key, [r for r in warm.arrivals if r.model == key])
            labels = replay_unbatched(InferenceEngine(model.clone()), mine)
            for rid, label in labels.items():
                self.assertEqual(
                    np.float64(label).tobytes(),
                    np.float64(refs[rid][0]).tobytes(),
                )

    def test_serve_perturbations_fail(self):
        models, warm, _ = w.serve_inputs(0)
        refs = w.serve_references(models, warm.arrivals)
        ids = [r.req_id for r in warm.arrivals]
        responses = {rid: refs[rid][0] for rid in ids}
        decisions = {rid: refs[rid][1].copy() for rid in ids}
        self.assertEqual(w.check_serve(responses, decisions, refs, ids), [])

        rid = ids[5]
        bumped = dict(decisions)
        bumped[rid] = np.nextafter(decisions[rid], np.inf)
        self.assertEqual(len(w.check_serve(responses, bumped, refs, ids)), 1)
        flipped = dict(responses)
        flipped[rid] = -responses[rid]
        self.assertEqual(len(w.check_serve(flipped, decisions, refs, ids)), 1)
        missing = dict(responses)
        del missing[rid]
        self.assertEqual(len(w.check_serve(missing, decisions, refs, ids)), 1)


class TracingChangesNoAnswer(unittest.TestCase):
    def test_traced_fit_equals_untraced_fit(self):
        spans = SpanRecorder()
        for name, X, y in w.train_inputs(("sector", "mnist"), 1):
            plain = AdaptiveSVC("gaussian", gamma=w.GAMMA).fit(X, y)
            traced = AdaptiveSVC(
                TimedKernel(w.GAMMA, spans, {}),
                scheduler=TimedScheduler(spans),
            )
            with timed_profiling(spans):
                traced.fit(X, y)
            self.assertEqual(
                w.check_train(
                    w.train_answer(traced, y), w.train_answer(plain, y)
                ),
                [],
                name,
            )
        names = {s.name for s in spans.spans}
        self.assertTrue(
            {"core.apply", "core.decide", "features.profile",
             "formats.kernel"} <= names
        )

    def test_traced_session_equals_untraced_session(self):
        models, warm, _ = w.serve_inputs(2)
        spans = SpanRecorder()
        fleet = w.make_fleet(models)
        try:
            plain = simulate_fleet(fleet, warm)
            with timed_rpcs(fleet, spans):
                traced = simulate_fleet(fleet, warm)
        finally:
            fleet.close()
        self.assertEqual(plain.responses, traced.responses)
        for rid, dec in plain.decisions.items():
            self.assertEqual(dec.tobytes(), traced.decisions[rid].tobytes())
        self.assertTrue(spans.spans)
        self.assertNotIn("predict_batch", vars(fleet))


class Accounting(unittest.TestCase):
    @staticmethod
    def traced_pass(loop_work: int):
        spans = SpanRecorder()
        with spans.span("bench.loop"):
            sum(range(loop_work))
            with spans.span("svm.fit"):
                with spans.span("core.apply"):
                    with spans.span("core.decide"):
                        with spans.span("features.profile"):
                            pass
                for _ in range(3):
                    with spans.span("formats.kernel"):
                        sum(range(20_000))
        return spans.spans, [spans.spans[-1].duration]

    def test_self_times_add_up_to_the_root(self):
        spans, walls = self.traced_pass(0)
        own = self_times(spans)
        self.assertTrue(all(v >= 0.0 for v in own.values()))
        total = sum(layer_self_times(spans).values())
        self.assertAlmostEqual(total, walls[0], delta=1e-9)
        self.assertLess(w.accounting(spans, walls)[
            "trace.accounting_error_frac"], 1e-9)

    def test_unattributed_share_can_exceed_the_cap(self):
        spans, walls = self.traced_pass(0)
        share = w.accounting(spans, walls)["trace.unattributed_frac"]
        self.assertLess(share, run.UNATTRIBUTED_CAP)
        spans, walls = self.traced_pass(2_000_000)
        share = w.accounting(spans, walls)["trace.unattributed_frac"]
        self.assertGreater(share, run.UNATTRIBUTED_CAP)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0]] + sys.argv[1:])
