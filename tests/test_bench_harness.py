"""The benchmark's own suite, run as part of the tier-1 tests.

The traced benchmark run looks up package functions by name; renaming one
breaks that suite, and running it here reports the break with the package
tests rather than only when the benchmark runs.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import morphauto
from morphauto.cli import corpus_dir

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_suite_passes():
    result = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_every_benchmark_hook_fires_on_the_corpus(monkeypatch):
    # The traced run replaces package functions by name and times whatever
    # calls them; a layer that bypasses its hooked name reads 0 there.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    tr, missing = tracing.Tracer(), []
    with tracing.instrumented(morphauto, tr, missing):
        for path in sorted(corpus_dir().glob("*.morph")):
            spec = morphauto.parse_morphism(path.read_text(encoding="utf-8"))
            morphauto.analyze(spec, morphauto.AnalyzeOptions(depth=1000))
    assert missing == []
    silent = {name for _, _, name in tracing.HOOKS} - {span["name"] for span in tr.spans}
    assert not silent, f"hooks that never fired: {sorted(silent)}"
