"""The traced run: per-layer spans and exact work counts.

The package itself is not edited.  For a traced pass the benchmark swaps
the layer functions that ``analyze`` looks up at call time for timing
wrappers (``HOOKS``) and puts the originals back afterwards.  The spans are
therefore taken inside one ``analyze`` call, around the work it really
does, and the counts are of that work: the letters its prefix generators
return, the blocks its closures discover, the profiles it computes.

Each pass runs the traced inputs three times: untimed by spans, with the
hooks in place, and through ``cli.main(["corpus", "--run"])``.  The first
two give the tracing overhead.  The direct children of each ``analyze`` span
(the stages it calls) over the ``analyze`` span give the layer coverage.
Times are per-pass totals, reported as the median over the passes that fit
in the run; counts are per pass and repeat exactly.  Spans stay in memory
and are written to ``.perfbench/`` when the run ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import gate

# name -> (unit, better)
PER_LAYER = {
    "words.parse_s": ("s", "lower"),
    "words.prefix_s": ("s", "lower"),
    "words.prefix_letters": ("count", "lower"),
    "linalg.char_poly_s": ("s", "lower"),
    "linalg.radius_bracket_s": ("s", "lower"),
    "linalg.is_primitive_s": ("s", "lower"),
    "linalg.spectral_report_s": ("s", "lower"),
    "linalg.charpoly_max_bits": ("bits", "lower"),
    "linalg.bracket_loose": ("count", "lower"),
    "constructions.block_closure_s": ("s", "lower"),
    "constructions.blocks_discovered": ("count", "lower"),
    "constructions.reshuffle_minimize_s": ("s", "lower"),
    "constructions.certificate_letters": ("count", "lower"),
    "criteria.irrationality_s": ("s", "lower"),
    "criteria.replay_s": ("s", "lower"),
    "criteria.analyze_s": ("s", "lower"),
    "criteria.layer_coverage": ("share", "higher"),
    "sequences.factor_complexity_s": ("s", "lower"),
    "sequences.profiles": ("count", "lower"),
    "sequences.factor_windows": ("count", "lower"),
    "cli.corpus_run_s": ("s", "lower"),
    "trace.overhead": ("share", "lower"),
}

# (owner, attribute, span).  A module-level function is replaced in the
# module whose code calls it, a method on its class.
HOOKS = (
    ("criteria", "block_morphism", "constructions.block_closure"),
    ("criteria", "reshuffle_uniformize", "constructions.reshuffle_minimize"),
    ("criteria", "minimize_uniform", "constructions.reshuffle_minimize"),
    ("criteria", "_verify_certificate", "criteria.replay"),
    ("criteria", "irrationality_verdict", "criteria.irrationality"),
    ("criteria", "is_primitive", "linalg.is_primitive"),
    ("criteria", "spectral_report", "linalg.spectral_report"),
    ("linalg", "char_poly", "linalg.char_poly"),
    ("linalg", "radius_bracket", "linalg.radius_bracket"),
    ("criteria", "factor_complexity", "sequences.factor_complexity"),
    ("sequences", "factor_complexity", "sequences.factor_complexity"),  # via sturmian_witness
    ("words.MorphicSpec", "prefix", "words.prefix"),
    ("words.MorphicSpec", "uncoded_prefix", "words.prefix"),
    ("constructions.BlockMorphism", "flatten_prefix", "words.prefix"),
)


class Tracer:
    """Spans (name, start, end, parent, pass, request id) and counts, in
    memory.  A span opened inside an open span of the same name is marked
    nested and left out of the totals, so that, say, ``prefix`` calling
    ``uncoded_prefix`` is timed and counted once."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self.pass_no = 0
        self.request = None
        self.counts: dict = defaultdict(int)
        self.notes: dict = defaultdict(int)  # printed, but not metrics

    def begin(self, name: str) -> dict:
        record = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "pass": self.pass_no,
            "request": self.request,
            "name": name,
            "nested": any(s["name"] == name for s in self._open),
        }
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        return record

    def end(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self.begin(name)
        try:
            yield record
        finally:
            self.end(record)

    def totals(self, pass_no: int) -> dict:
        out: dict = defaultdict(float)
        for s in self.spans:
            if s["pass"] == pass_no and not s["nested"]:
                out[s["name"]] += s["end"] - s["start"]
        return out

    def coverage(self, pass_no: int) -> float:
        """Time of the stages ``analyze`` calls over the ``analyze`` time."""
        calls = {s["id"]: s for s in self.spans if s["pass"] == pass_no and s["name"] == "criteria.analyze"}
        covered = sum(s["end"] - s["start"] for s in self.spans if s["parent"] in calls)
        return covered / sum(s["end"] - s["start"] for s in calls.values())


def _after_prefix(tr, record, args, word):
    if not record["nested"]:
        tr.counts["words.prefix_letters"] += len(word)


def _after_block(tr, record, args, blk):
    tr.counts["constructions.blocks_discovered"] += len(blk.blocks)


def _after_char_poly(tr, record, args, poly):
    bits = max(abs(c).bit_length() for c in poly.coeffs)
    tr.counts["linalg.charpoly_max_bits"] = max(tr.counts["linalg.charpoly_max_bits"], bits)


def _after_bracket(tr, record, args, bracket):
    tr.counts["linalg.bracket_loose"] += int(bracket.loose)


def _after_spectral(tr, record, args, report):
    record["r"] = len(args[0])
    tr.notes["spectral reports"] += 1
    tr.notes["spectral reports with an integer root"] += int(bool(report.integer_roots))


def _after_profile(tr, record, args, profile):
    # The windows the profile hashes: every (position, length <= n_max) of
    # the letters its own prefix call returned.
    letters = tr.counts["words.prefix_letters"] - record["letters_before"]
    tr.counts["sequences.profiles"] += 1
    tr.counts["sequences.factor_windows"] += sum(
        max(letters - n + 1, 0) for n in range(1, profile.n_max + 1)
    )


AFTER = {
    "words.prefix": _after_prefix,
    "constructions.block_closure": _after_block,
    "linalg.char_poly": _after_char_poly,
    "linalg.radius_bracket": _after_bracket,
    "linalg.spectral_report": _after_spectral,
    "sequences.factor_complexity": _after_profile,
}


def _wrap(tr: Tracer, fn, name: str):
    after = AFTER.get(name)

    def traced(*args, **kwargs):
        record = tr.begin(name)
        if name == "sequences.factor_complexity":
            record["letters_before"] = tr.counts["words.prefix_letters"]
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.end(record)
        if after is not None:
            after(tr, record, args, result)
        return result

    return traced


@contextlib.contextmanager
def instrumented(pkg, tr: Tracer, missing: list):
    """Install the HOOKS on the package for the duration of the block."""
    installed = []
    try:
        for owner_path, attr, name in HOOKS:
            owner = pkg
            try:
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                missing.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, _wrap(tr, original, name))
            installed.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def _corpus_dir_for(items, directory):
    """Write the inputs as a corpus directory the CLI can replay."""
    for item in items:
        (directory / f"{item.name}.morph").write_text(item.text, encoding="utf-8")
        (directory / f"{item.name}.expected.json").write_text(
            json.dumps(item.expected), encoding="utf-8"
        )


def run_traced(pkg, workload, items, specs, name: str, seed: int, seconds: float,
               work_dir: Path, depth: int):
    """Traced passes over the first ``workload.trace_inputs`` inputs."""
    count = workload.trace_inputs
    items = items[:count]
    specs = specs[:count] if specs is not None else [None] * count
    options = pkg.AnalyzeOptions(depth=depth)

    work_dir.mkdir(exist_ok=True)
    checker = gate.Gate(depth)
    tr = Tracer()
    missing: list = []
    traced, untraced, coverage, pass_counts = [], [], [], []
    clock = time.perf_counter
    deadline = clock() + seconds
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        cli_args = ["corpus", "--run", "--depth", str(depth)]
        if name != "corpus":
            _corpus_dir_for(items, Path(tmp))
            cli_args += ["--dir", tmp]
        pass_no = 0
        while True:
            tr.pass_no = pass_no
            started = clock()
            plain = 0.0
            for item, spec in zip(items, specs):
                if workload.parse_in_op:
                    spec = pkg.parse_morphism(item.text)
                start = clock()
                pkg.analyze(spec, options)
                plain += clock() - start
            untraced.append(plain)

            tr.counts, tr.notes = defaultdict(int), defaultdict(int)
            missing.clear()
            with instrumented(pkg, tr, missing):
                for n, (item, spec) in enumerate(zip(items, specs)):
                    tr.request = f"{pass_no}:{n}:{item.name}"
                    with tr.span("words.parse"):
                        parsed = pkg.parse_morphism(item.text)
                    with tr.span("criteria.analyze"):
                        report = pkg.analyze(parsed if workload.parse_in_op else spec, options)
                    checker.record(item, report)
                    cert = report.verdict.certificate
                    if cert is not None:
                        morphism = cert.block.morphism if hasattr(cert, "block") else cert.morphism
                        tr.counts["constructions.certificate_letters"] += len(morphism.alphabet)
            tr.request = f"{pass_no}:cli"
            with tr.span("cli.corpus_run"):
                with contextlib.redirect_stdout(io.StringIO()):
                    status = pkg.cli.main(cli_args)
            if status != 0:
                checker.fail("cli", f"corpus --run exited with {status}")
            traced.append(tr.totals(pass_no))
            coverage.append(tr.coverage(pass_no))
            pass_counts.append(dict(tr.counts))
            pass_no += 1
            if clock() + (clock() - started) > deadline:
                break
    checker.replay_certificates()
    if any(c != pass_counts[0] for c in pass_counts):
        checker.fail("trace", "work counts differ between passes")

    def median_of(span_name):
        return statistics.median(t.get(span_name, 0.0) for t in traced)

    values = {
        key: median_of(key[: -len("_s")]) for key, (unit, _) in PER_LAYER.items() if unit == "s"
    }
    values["criteria.layer_coverage"] = statistics.median(coverage)
    values["trace.overhead"] = values["criteria.analyze_s"] / statistics.median(untraced) - 1
    for key in PER_LAYER:
        values.setdefault(key, pass_counts[0].get(key, 0))

    print(f"traced run: {len(traced)} passes over {len(items)} inputs, {len(tr.spans)} spans")
    if missing:
        print("not instrumented (absent from the package): " + ", ".join(missing))
    for key, (unit, _) in PER_LAYER.items():
        print(f"{key} {values[key]:.6g} {unit}")
    analyze_s = values["criteria.analyze_s"]
    print("span shares of criteria.analyze_s:")
    for stage in sorted({name for _, _, name in HOOKS}):
        share = median_of(stage) / analyze_s
        if share:
            print(f"  {stage} {share:.1%}")
    for note, n in tr.notes.items():
        print(f"{note} per pass: {n}")
    by_size = defaultdict(list)
    for s in tr.spans:
        if s["name"] == "linalg.spectral_report" and s["pass"] == 0:
            by_size[s["r"]].append(s["end"] - s["start"])
    if by_size:
        print("linalg.spectral_report per input, first pass: " + ", ".join(
            f"r={r}: {statistics.median(ts):.3g} s" for r, ts in sorted(by_size.items())
        ))

    out = work_dir / f"trace-{name}-seed{seed}.json"
    out.write_text(json.dumps({"spans": tr.spans, "counts": pass_counts, "values": values}))
    print(f"spans written to {out}")
    metrics = {key: {"value": values[key], "unit": unit} for key, (unit, _) in PER_LAYER.items()}
    return checker, metrics
