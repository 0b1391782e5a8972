"""Tests of the benchmark itself: generators, gate and printed metrics.

Run from the root of a checkout::

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import morphauto  # noqa: E402

CORPUS = ROOT / "src" / "morphauto" / "corpus"


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class GeneratorTests(unittest.TestCase):
    def test_fixed_seed_gives_identical_specs(self):
        self.assertEqual(workloads.spectral_workload(7, 10), workloads.spectral_workload(7, 10))
        self.assertEqual(workloads.corpus_workload(7, CORPUS), workloads.corpus_workload(7, CORPUS))

    def test_other_seed_gives_other_specs(self):
        self.assertNotEqual(workloads.spectral_workload(7, 10), workloads.spectral_workload(8, 10))
        self.assertNotEqual(workloads.corpus_workload(7, CORPUS), workloads.corpus_workload(8, CORPUS))

    def test_spectral_sizes_cycle(self):
        items = workloads.spectral_workload(3, 10)
        sizes = [len(gate.parse_text(item.text).images) for item in items]
        self.assertEqual(sizes, list(workloads.SPECTRAL_SIZES) * 2)

    def test_spectral_alternates_the_anagram_pair(self):
        # Even inputs have two columns alike (eigenvalue 0), odd ones need not.
        def has_equal_columns(item):
            images = gate.parse_text(item.text).images.values()
            columns = [tuple(sorted(img)) for img in images]
            return len(set(columns)) < len(columns)

        items = workloads.spectral_workload(3, 10)
        self.assertTrue(all(has_equal_columns(item) for item in items[0::2]))
        self.assertFalse(all(has_equal_columns(item) for item in items[1::2]))


class GateTests(unittest.TestCase):
    def _analyze(self, item):
        spec = morphauto.parse_morphism(item.text)
        return morphauto.analyze(spec, morphauto.AnalyzeOptions(depth=run.DEPTH))

    def test_whole_corpus_passes(self):
        checker = gate.Gate(run.DEPTH)
        for item in workloads.corpus_items(CORPUS):
            checker.record(item, self._analyze(item))
        checker.replay_certificates()
        self.assertEqual((checker.attempted, checker.failed), (35, 0), checker.problems)

    def test_wrong_expected_verdict_is_a_failure(self):
        (item,) = workloads.corpus_items(CORPUS, ["fibonacci"])
        wrong = dataclasses.replace(item, expected={"verdict": "automatic", "q": 2})
        checker = gate.Gate(run.DEPTH)
        checker.record(wrong, self._analyze(item))
        self.assertEqual(checker.failed, 1)
        self.assertFalse(checker.correct)

    def test_wrong_q_or_stage_is_a_failure(self):
        (item,) = workloads.corpus_items(CORPUS, ["lysenok"])
        report = self._analyze(item)
        for expected in ({**item.expected, "q": 4}, {**item.expected, "stage": "eigenvector"}):
            checker = gate.Gate(run.DEPTH)
            checker.record(dataclasses.replace(item, expected=expected), report)
            self.assertEqual(checker.failed, 1)

    def test_exception_is_a_failure(self):
        (item,) = workloads.corpus_items(CORPUS, ["fibonacci"])
        checker = gate.Gate(run.DEPTH)
        checker.record(item, error=ValueError("boom"))
        self.assertEqual((checker.attempted, checker.failed), (1, 1))

    def test_wrong_certificate_fails_the_naive_replay(self):
        (thue_morse,) = workloads.corpus_items(CORPUS, ["thue_morse"])
        (period_doubling,) = workloads.corpus_items(CORPUS, ["period_doubling"])
        report = self._analyze(period_doubling)
        checker = gate.Gate(run.DEPTH)
        checker.record(thue_morse, report)  # same verdict, q and stage; other sequence
        checker.record(thue_morse, report)
        self.assertEqual(checker.failed, 0)
        checker.replay_certificates()
        self.assertEqual(checker.failed, 2)

    def test_block_certificate_replays(self):
        (item,) = workloads.corpus_items(CORPUS, ["lysenok"])
        cert = self._analyze(item).verdict.certificate
        self.assertTrue(hasattr(cert, "block"))
        self.assertEqual(
            gate.certificate_prefix(cert, 5000), gate.naive_prefix(gate.parse_text(item.text), 5000)
        )


class TracingTests(unittest.TestCase):
    def _traced_analyze(self, name):
        (item,) = workloads.corpus_items(CORPUS, [name])
        spec = morphauto.parse_morphism(item.text)
        tr, missing = tracing.Tracer(), []
        with tracing.instrumented(morphauto, tr, missing):
            with tr.span("criteria.analyze"):
                morphauto.analyze(spec, morphauto.AnalyzeOptions(depth=run.DEPTH))
        return tr, missing

    def test_every_hook_is_found_and_removed(self):
        originals = {attr: getattr(morphauto.criteria, attr) for attr in ("block_morphism", "spectral_report")}
        prefix = morphauto.MorphicSpec.__dict__["prefix"]
        _, missing = self._traced_analyze("lysenok")
        self.assertEqual(missing, [])
        for attr, fn in originals.items():
            self.assertIs(getattr(morphauto.criteria, attr), fn)
        self.assertIs(morphauto.MorphicSpec.__dict__["prefix"], prefix)

    def test_counts_are_the_work_analyze_does(self):
        # lysenok is decided by the block stage: its certificate is replayed
        # against the input, two prefixes of the verification depth.
        tr, _ = self._traced_analyze("lysenok")
        self.assertGreaterEqual(tr.counts["words.prefix_letters"], 2 * run.DEPTH)
        self.assertGreater(tr.counts["constructions.blocks_discovered"], 0)
        self.assertEqual(tr.counts["sequences.profiles"], 0)
        self.assertLessEqual(tr.coverage(0), 1.0)
        # bartholdi is unknown: a profile of the input and of each witness,
        # each hashing every window of its prefix.
        tr, _ = self._traced_analyze("bartholdi")
        profiles = tr.counts["sequences.profiles"]
        self.assertGreaterEqual(profiles, 1)
        length = morphauto.AnalyzeOptions().evidence_prefix
        nmax = morphauto.AnalyzeOptions().evidence_nmax
        per_profile = sum(length - n + 1 for n in range(1, nmax + 1))
        self.assertEqual(tr.counts["sequences.factor_windows"], profiles * per_profile)


class OutputTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_declared_metrics_match_the_harness(self):
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
            declared = {m["name"]: (m["unit"], m["better"]) for m in self.declared[key]}
            self.assertEqual(declared, table)
        self.assertLessEqual({w["name"] for w in self.declared["workloads"]}, set(run.WORKLOADS))

    def test_one_command_prints_every_metric(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = _run_bench("--workload", "corpus", "--seed", "1", "--seconds", "0.5", "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            *lines, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            names = [m["name"] for m in self.declared[key]]
            self.assertEqual(sorted(result["metrics"]), sorted(names))
            for m in self.declared[key]:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                self.assertTrue(
                    any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line for line in lines),
                    m["name"],
                )
            if trace == "0":
                self.assertTrue(any(line.startswith("error_rate 0") for line in lines))

    def test_fails_without_the_program(self):
        run.WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run_bench("--workload", "corpus", "--seed", "1", "--seconds", "1", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile([float(i) for i in range(1000)])[0], 99.0)
        self.assertEqual(run.tail_percentile([float(i) for i in range(100)])[0], 90.0)
        p, value, beyond = run.tail_percentile([float(i) for i in range(45)])
        self.assertEqual((p, value, beyond), (70.0, 31.0, 13))
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0, 4.0]), (50.0, 2.0, 2))


if __name__ == "__main__":
    unittest.main()
