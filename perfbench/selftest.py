"""Self-tests of the benchmark: a smoke run of each workload and negative oracle cases.

    python3 perfbench/selftest.py

The file name keeps it out of the repository's pytest collection: the
smoke runs start real worker processes and take about 90 s.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, TracingError  # noqa: E402
from wrapcheck import descriptor, embed, wrapmaps  # noqa: E402
from wrapcheck.exterior import Multivector  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def bench(*args, cwd=REPO, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failed_frac(results) -> float:
    return sum(not r["ok"] for r in results) / len(results)


class Smoke(unittest.TestCase):
    def test_each_workload_untraced(self):
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = bench("--workload", w["name"], "--seed", "0", "--seconds", "1", "--trace", "0")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                out = last_json(proc)
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(out["correct"], proc.stdout)
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, units)
                self.assertTrue(all(v["value"] > 0 for v in out["metrics"].values()))

    def test_traced_run_reports_every_per_layer_metric(self):
        proc = bench("--workload", "corpus", "--seed", "0", "--seconds", "1", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        out = last_json(proc)
        self.assertTrue(out["correct"], proc.stdout)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, units)
        self.assertEqual(out["metrics"]["embed.exact.nodes"]["value"], 8229)
        self.assertEqual(out["metrics"]["embed.exact.nodes_on_excluded"]["value"], 3768)

    def test_refuses_to_run_without_the_program(self):
        bare = REPO / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(REPO / "BENCHMARK.json", bare)
        try:
            proc = bench(
                "--workload", "corpus", "--seed", "0", "--seconds", "1",
                cwd=bare, script=bare / HERE.name / "run.py",
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)
        finally:
            shutil.rmtree(bare)


class Oracles(unittest.TestCase):
    def test_flipped_verdict_fails(self):
        w = workloads.WORKLOADS["corpus"]
        inputs = w.prepare(0, 0)
        outputs = w.run(inputs, Tracer())
        self.assertEqual(failed_frac(w.check(inputs, outputs)), 0.0)
        i = next(i for i, d in enumerate(inputs) if d.name == "genus2")
        flipped = dataclasses.replace(outputs[i][0], verdict="no-obstruction-found", witnesses=())
        outputs[i] = (flipped, flipped.to_dict())
        self.assertGreater(failed_frac(w.check(inputs, outputs)), 0.0)

    def test_perturbed_witness_fails(self):
        w = workloads.WORKLOADS["embed-float"]
        d = descriptor.parse_descriptor_file(workloads.descriptor_paths()["s2xs2"])
        outcome = embed.search_embedding(d.cohomology, d.n, budget=4000, float_restarts=0)
        self.assertEqual(outcome.status, "found-certified")
        inputs = ([d], 0)
        self.assertEqual(failed_frac(w.check(inputs, [outcome])), 0.0)
        # one coefficient of u changes from 0 to 1, on the blade that carries v,
        # which breaks the relation u^2 = 0
        m = outcome.morphism
        u, v = (name for name, _ in d.cohomology.generators)
        terms = dict(m.assignment[u].items())
        blade = next(mask for mask, _ in m.assignment[v].items())
        terms[blade] = terms.get(blade, Fraction(0)) + 1
        perturbed = embed.RingMorphism(m.source, m.n, {**m.assignment, u: Multivector(m.n, terms)})
        bad = dataclasses.replace(outcome, morphism=perturbed)
        self.assertGreater(failed_frac(w.check(inputs, [bad])), 0.0)

    def test_degree_table_off_by_six_percent_fails(self):
        w = workloads.WORKLOADS["map-study"]
        m = wrapmaps.sphere_wrap_map()
        reports = [
            wrapmaps.asymptotic_degree(m, workloads.SPHERE_RADII, h) for h in workloads.SPHERE_STEPS
        ]
        self.assertEqual(failed_frac(w.check(None, {"sphere-wrap-degree": reports})), 0.0)
        off = dataclasses.replace(reports[0], normalized=tuple(1.06 * x for x in reports[0].normalized))
        self.assertGreater(failed_frac(w.check(None, {"sphere-wrap-degree": [off, reports[1]]})), 0.0)


class Tracing(unittest.TestCase):
    def test_missing_target_fails_loudly(self):
        with self.assertRaises(TracingError):
            Tracer().install("gone.fn", types.SimpleNamespace(), "fn")

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        tracer.recording = True
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        self_outer, self_inner = tracer.self_times()
        self.assertAlmostEqual(self_inner, inner["end"] - inner["start"])
        self.assertAlmostEqual(
            self_outer, (outer["end"] - outer["start"]) - (inner["end"] - inner["start"])
        )

    def test_quad_points_matches_a_direct_count(self):
        for radius, step, dim in ((3.0, 0.5, 2), (2.0, 0.25, 3)):
            axis = np.arange(-radius + step / 2, radius, step)
            grid = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1)
            direct = int((np.sum(grid * grid, axis=-1) <= radius * radius).sum())
            self.assertEqual(workloads.quad_points(radius, step, dim), direct)


if __name__ == "__main__":
    unittest.main()
