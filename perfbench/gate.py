"""The correctness gate.  It shares no decision code with the package.

Verdicts are compared with the expectations that come with each input.
Every `automatic` certificate is replayed by naive token rewriting written
here: the input's ``.morph`` text is read by this module's own parser, and
the certificate is read only through its data fields (images, coding,
seed, blocks), never through the package's prefix generators.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rules:
    """A morphism on token strings, with a seed and an optional coding."""

    images: dict  # token -> list of tokens
    seed: str
    coding: dict | None = None


def parse_text(text: str) -> Rules:
    """A minimal reader for the ``.morph`` lines the inputs use."""
    letters: list[str] = []
    images: dict = {}
    seed = None
    coding = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("letters:"):
            letters = line[len("letters:"):].split()
        elif line.startswith("seed:"):
            seed = line[len("seed:"):].strip()
        elif line.startswith("coding:"):
            pairs = (pair.split("->") for pair in line[len("coding:"):].split(",") if pair.strip())
            coding = {src.strip(): dst.strip() for src, dst in pairs}
        else:
            lhs, rhs = (part.strip() for part in line.split("->", 1))
            tokens = rhs.split()
            if all(len(tok) == 1 for tok in letters) and len(tokens) == 1:
                tokens = list(tokens[0])
            images[lhs] = tokens
    if seed is None:
        seed = next(t for t in letters if len(images[t]) >= 2 and images[t][0] == t)
    return Rules(images, seed, coding)


def naive_prefix(rules: Rules, n: int) -> list[str]:
    """First n letters of the coded fixed point: rewrite the whole word from
    the seed until it is long enough, then code it."""
    word = [rules.seed]
    while len(word) < n:
        longer = [tok for letter in word for tok in rules.images[letter]]
        if len(longer) <= len(word):
            raise ValueError("the rewriting does not grow")
        word = longer
    word = word[:n]
    if rules.coding is not None:
        word = [rules.coding[tok] for tok in word]
    return word


def _rules_of(morphism, seed: int, coding) -> Rules:
    letters = morphism.alphabet.letters
    images = {letters[i]: [letters[c] for c in img] for i, img in enumerate(morphism.images)}
    table = None
    if coding is not None:
        table = {letters[i]: coding.target.letters[t] for i, t in enumerate(coding.table)}
    return Rules(images, letters[seed], table)


def certificate_prefix(certificate, n: int) -> list[str]:
    """Replay a certificate from its data fields alone.

    A block certificate is a uniform morphism on k-blocks: its fixed point
    is flattened through the blocks and then coded.  Any other certificate
    is a uniform morphism with a coding and a seed.
    """
    block = getattr(certificate, "block", None)
    if block is None:
        return naive_prefix(
            _rules_of(certificate.morphism, certificate.seed, certificate.coding), n
        )
    source = block.source.alphabet.letters
    block_word = naive_prefix(_rules_of(block.morphism, block.seed_block, None), -(-n // block.k))
    index = {tok: i for i, tok in enumerate(block.morphism.alphabet.letters)}
    word = [source[c] for tok in block_word for c in block.blocks[index[tok]]][:n]
    if certificate.coding is not None:
        coding = _rules_of(block.source, 0, certificate.coding).coding
        word = [coding[tok] for tok in word]
    return word


def verdict_problems(expected: dict, verdict) -> list[str]:
    """What is wrong with a verdict's kind, q and stage; empty when right."""
    problems = []
    if verdict.kind != expected["verdict"]:
        problems.append(f"verdict {verdict.kind} != expected {expected['verdict']}")
    if "q" in expected and verdict.q != expected["q"]:
        problems.append(f"q {verdict.q} != expected {expected['q']}")
    if "stage" in expected and verdict.provenance != expected["stage"]:
        problems.append(f"stage {verdict.provenance} != expected {expected['stage']}")
    if verdict.kind == "automatic" and verdict.certificate is None:
        problems.append("automatic verdict without a certificate")
    return problems


class Gate:
    """Checks every operation; replays each distinct certificate once.

    ``record`` checks a verdict at once and files its certificate under the
    input.  ``replay_certificates`` runs after the timed loop; an operation
    whose certificate fails there counts as failed too.
    """

    def __init__(self, depth: int):
        self.depth = depth  # the depth analyze is asked to verify to
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._certificates: dict = {}  # item name -> [[certificate, ops, item]]

    def fail(self, name: str, problem: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(f"{name}: {problem}")

    def record(self, item, report=None, error: Exception | None = None) -> None:
        self.attempted += 1
        if error is not None:
            self.fail(item.name, f"{type(error).__name__}: {error}")
            return
        problems = verdict_problems(item.expected, report.verdict)
        if report.verdict.kind == "automatic" and report.verdict.verified_depth != self.depth:
            problems.append(f"verified to depth {report.verdict.verified_depth}, not {self.depth}")
        if problems:
            self.fail(item.name, "; ".join(problems))
            return
        if report.verdict.kind == "automatic":
            entries = self._certificates.setdefault(item.name, [])
            cert = report.verdict.certificate
            for entry in entries:
                if entry[0] == cert:
                    entry[1] += 1
                    break
            else:
                entries.append([cert, 1, item])

    def replay_certificates(self) -> None:
        for name, entries in self._certificates.items():
            reference = None
            for cert, ops, item in entries:
                if reference is None:
                    reference = naive_prefix(parse_text(item.text), self.depth)
                if certificate_prefix(cert, self.depth) != reference:
                    self.fail(name, f"certificate disagrees with the input within {self.depth} letters", ops)
        self._certificates.clear()

    @property
    def correct(self) -> bool:
        return self.failed == 0
