"""Command-line front end.

Exit codes: 0 a verdict/result was produced, 1 corpus mismatch or failed
construction, 2 parse or input error, 3 internal assertion failure,
4 uniformize on a morphism that fails the eigenvector criterion.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .constructions import (
    BlockConstructionError,
    CriterionNotSatisfied,
    CupParams,
    block_morphism,
    cup_transform,
    minimize_uniform,
    representation_from_spec,
    reshuffle_uniformize,
    verify_back,
)
from .criteria import AnalyzeOptions, analyze
from .sequences import factor_complexity
from .words import MorphParseError, MorphicSpec, SpecError, parse_morphism

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_CRITERION = 4


def _load(path: str) -> MorphicSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MorphParseError(f"cannot read {path}: {exc}") from exc
    return parse_morphism(text)


def cmd_analyze(args) -> int:
    spec = _load(args.file)
    report = analyze(spec, AnalyzeOptions(depth=args.depth, kmax=args.kmax))
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
        return EXIT_OK
    print(report.verdict.summary)
    print("stages:")
    for stage in report.stages:
        print(f"  {stage.name}: {stage.status} - {stage.detail}")
    return EXIT_OK


def cmd_uniformize(args) -> int:
    spec = _load(args.file)
    try:
        rep = reshuffle_uniformize(spec)
    except CriterionNotSatisfied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CRITERION
    if args.minimize:
        rep = minimize_uniform(rep)
    text = rep.to_morph_text(
        comments=[f"derived-from: {Path(args.file).name} (reshuffle"
                  + (", minimized)" if args.minimize else ")")]
    )
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output} ({rep.q}-uniform, {len(rep.morphism.alphabet)} letters)")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_blocks(args) -> int:
    spec = _load(args.file)
    try:
        blk = block_morphism(spec, args.k)
    except BlockConstructionError as exc:
        print(f"no {args.k}-block morphism: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    a = blk.morphism.alphabet
    print(f"blocks at positions 0 mod {args.k}: " + ", ".join(a.letters))
    for tok, img in zip(a.letters, blk.morphism.images):
        print(f"  {tok} -> {a.render(img)}")
    q = blk.morphism.uniform_length
    print(f"uniform length {q}" if q is not None else "not uniform")
    return EXIT_OK


def cmd_cup(args) -> int:
    spec = _load(args.file)
    rep = representation_from_spec(spec)
    params = CupParams(pair_position=args.pair_pos, split_index=args.split)
    transformed = cup_transform(rep, params)
    ok, lam = verify_back(transformed)
    print(transformed.to_morph_text(comments=[f"derived-from: {Path(args.file).name} (cup)"]), end="")
    print(f"# eigenvector check: {'holds' if ok else 'fails'}, lambda = {lam}")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_compare(args) -> int:
    a, b = _load(args.first).prefix(args.n), _load(args.second).prefix(args.n)
    if a == b:
        print(f"equal on the first {args.n} letters")
        return EXIT_OK
    where = next(i for i in range(args.n) if a[i] != b[i])
    print(f"differ at position {where}: {a[where]} vs {b[where]}")
    return EXIT_MISMATCH


def cmd_generate(args) -> int:
    spec = _load(args.file)
    print(spec.output_alphabet.render(spec.coded_prefix(args.n)))
    return EXIT_OK


def cmd_complexity(args) -> int:
    spec = _load(args.file)
    profile = factor_complexity(spec, args.nmax, args.prefix_length)
    if args.csv:
        print("n,p")
        for n in range(1, profile.n_max + 1):
            print(f"{n},{profile.p(n)}")
    else:
        for n in range(1, profile.n_max + 1):
            print(f"p({n}) = {profile.p(n)}")
        print(f"(lower bounds from a prefix of length {profile.prefix_length})")
    return EXIT_OK


def corpus_dir() -> Path:
    return Path(resources.files("morphauto") / "corpus")


def _corpus_entries(directory: Path):
    """(name, .morph path, expectation) of every entry, each expectation
    loaded once and checked to be a JSON object with a string verdict."""
    if not directory.is_dir():
        raise ValueError(f"corpus directory {directory} does not exist or is not a directory")
    for morph_path in sorted(directory.glob("*.morph")):
        expected_path = morph_path.parent / (morph_path.stem + ".expected.json")
        if not expected_path.exists():
            raise ValueError(f"{morph_path.name} has no expectation file {expected_path.name}")
        try:
            expected = json.loads(expected_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            expected = None
        if not isinstance(expected, dict) or not isinstance(expected.get("verdict"), str):
            raise ValueError(f"{expected_path.name} is not a JSON object with a string \"verdict\"")
        yield morph_path.stem, morph_path, expected


def cmd_corpus(args) -> int:
    directory = Path(args.dir) if args.dir else corpus_dir()
    entries = list(_corpus_entries(directory))
    if not entries:
        print(f"warning: no corpus entries in {directory}")
        return EXIT_OK
    if not args.run:
        for name, _, expected in entries:
            extra = f" q={expected['q']}" if "q" in expected else ""
            note = f"  ({expected['provenance']})" if expected.get("provenance") else ""
            print(f"{name}: expect {expected['verdict']}{extra}{note}")
        return EXIT_OK
    failures = 0
    for name, morph_path, expected in entries:
        spec = parse_morphism(morph_path.read_text(encoding="utf-8"))
        report = analyze(spec, AnalyzeOptions(depth=args.depth, kmax=args.kmax))
        verdict = report.verdict
        problems = []
        if verdict.kind != expected["verdict"]:
            problems.append(f"verdict {verdict.kind} != expected {expected['verdict']}")
        if "q" in expected and verdict.q != expected["q"]:
            problems.append(f"q {verdict.q} != expected {expected['q']}")
        if "stage" in expected and verdict.provenance != expected["stage"]:
            problems.append(f"stage {verdict.provenance} != expected {expected['stage']}")
        if problems:
            failures += 1
            print(f"FAIL {name}: {'; '.join(problems)}")
        else:
            extra = f" q={verdict.q}" if verdict.q is not None else ""
            print(f"pass {name}: {verdict.kind}{extra} via {verdict.provenance}")
    if failures:
        print(f"{failures} of {len(entries)} corpus entries mismatched")
        return EXIT_MISMATCH
    print(f"all {len(entries)} corpus entries match")
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphauto",
        description="Detect hidden automatic sequences in fixed points of word morphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full decision pipeline on a .morph file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--depth", type=_positive_int, default=10_000, help="certificate verification depth")
    p.add_argument("--kmax", type=_positive_int, default=8, help="largest block length to try")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("uniformize", help="emit the uniform certificate of the eigenvector criterion")
    p.add_argument("file")
    p.add_argument("--minimize", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_uniformize)

    p = sub.add_parser("blocks", help="induce the morphism on non-overlapping k-blocks")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("cup", help="rewrite a uniform spec non-uniformly by splitting one pair")
    p.add_argument("file")
    p.add_argument("--pair-pos", type=int, default=1)
    p.add_argument("--split", type=int, default=1)
    p.set_defaults(func=cmd_cup)

    p = sub.add_parser("compare", help="compare the coded fixed points of two specs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-n", type=_positive_int, default=10_000)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("generate", help="print a prefix of the coded fixed point")
    p.add_argument("file")
    p.add_argument("-n", type=_positive_int, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("complexity", help="factor-complexity profile of the fixed point")
    p.add_argument("file")
    p.add_argument("--nmax", type=_positive_int, default=30)
    p.add_argument("-N", "--prefix-length", type=_positive_int, default=10_000, dest="prefix_length")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("corpus", help="list or replay the bundled regression corpus")
    p.add_argument("--run", action="store_true")
    p.add_argument("--dir")
    p.add_argument("--depth", type=_positive_int, default=10_000)
    p.add_argument("--kmax", type=_positive_int, default=8)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MorphParseError, SpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
