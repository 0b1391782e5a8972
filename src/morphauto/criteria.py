"""Automaticity decision procedures and the orchestrating analyzer.

The pipeline tries, in order: already uniform; left-eigenvector criterion;
induced k-block morphisms; the irrational-dominant obstruction.  The
anagram decomposition runs as a cross-check of the eigenvector stage.  The
first success fixes the verdict, every stage's outcome is recorded, and
every Automatic verdict ships a certificate that is replayed against the
input prefix before it is returned.  When nothing applies the verdict is an
honest Unknown carrying complexity evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .constructions import (
    BlockConstructionError,
    BlockMorphism,
    UniformRepresentation,
    block_morphism,
    minimize_uniform,
    representation_from_spec,
    reshuffle_uniformize,
)
from .linalg import (
    SpectralReport,
    incidence,
    is_primitive,
    left_eigencheck,
    spectral_report,
)
from .sequences import ComplexityProfile, factor_complexity, sturmian_witness
from .words import (
    Coding,
    InternalCheckError,
    Morphism,
    MorphicSpec,
    SpecError,
    Word,
    parikh_vector,
)


# ---------------------------------------------------------------------------
# individual criteria

def eigenvector_criterion(m: Morphism) -> int | None:
    """Return q >= 2 when the length vector is a left eigenvector of the
    incidence matrix with eigenvalue q; the fixed points are then
    q-automatic.  None when the criterion fails."""
    if m.is_erasing:
        raise ValueError("eigenvector criterion requires a non-erasing morphism")
    inc = incidence(m)
    lam = left_eigencheck(inc.length_vector, inc.matrix)
    if lam is None:
        return None
    if lam.denominator != 1:
        # a positive integer eigenvector of an integer matrix forces an
        # integer eigenvalue; anything else is a bug worth failing loudly on
        raise InternalCheckError(f"non-integer eigenvalue {lam} for integer data")
    q = int(lam)
    return q if q >= 2 else None


def gcd_obstruction(m: Morphism) -> bool:
    """On two letters, coprime image lengths rule the criterion out.

    The guarantee needs every letter to occur in some image; when both
    images are powers of one single letter (say a->aa, b->a) the length
    vector can be a left eigenvector despite coprime lengths.
    """
    if len(m.alphabet) != 2:
        raise ValueError("gcd obstruction is defined for two-letter alphabets")
    l0, l1 = m.lengths
    return math.gcd(l0, l1) == 1


@dataclass(frozen=True)
class AnagramCertificate:
    """Witness that every image is a concatenation of anagram blocks.

    All words in the anagram set share one length and one Parikh vector;
    the automaticity degree is their common expansion ratio.
    """

    morphism: Morphism
    block_length: int
    anagram_set: tuple[Word, ...]
    per_letter_counts: tuple[int, ...]
    shared_parikh: tuple[int, ...]
    degree: int

    def anagram_tokens(self) -> tuple[str, ...]:
        return tuple(self.morphism.alphabet.render(w) for w in self.anagram_set)

    def to_json(self) -> dict:
        return {
            "block_length": self.block_length,
            "anagram_set": list(self.anagram_tokens()),
            "per_letter_counts": list(self.per_letter_counts),
            "shared_parikh": list(self.shared_parikh),
            "degree": self.degree,
        }


def anagram_decomposition(m: Morphism) -> AnagramCertificate | None:
    """Cut every image into blocks of one length with one shared Parikh
    vector.

    Candidate block lengths are the divisors of the gcd of the image
    lengths, tried from the smallest length >= 2 upward (finest blocks
    first) with length 1 as a degenerate fallback.  Returns None when no
    candidate works.
    """
    if m.is_erasing:
        raise ValueError("anagram decomposition requires a non-erasing morphism")
    lengths = m.lengths
    g = math.gcd(*lengths)
    candidates = [d for d in range(2, g + 1) if g % d == 0] + [1]
    r = len(m.alphabet)
    for width in candidates:
        shared = None
        seen: dict[Word, int] = {}
        order: list[Word] = []
        ok = True
        for img in m.images:
            for start in range(0, len(img), width):
                piece = img[start : start + width]
                vec = parikh_vector(piece, r)
                if shared is None:
                    shared = vec
                elif vec != shared:
                    ok = False
                    break
                if piece not in seen:
                    seen[piece] = len(order)
                    order.append(piece)
            if not ok:
                break
        if not ok:
            continue
        counts = tuple(length // width for length in lengths)
        degree = sum(n * shared[a] for a, n in enumerate(counts))
        for w in order:
            expanded = sum(lengths[c] for c in w)
            if expanded != degree * width:
                raise InternalCheckError("anagram degree is not the expansion ratio")
        return AnagramCertificate(m, width, tuple(order), counts, shared, degree)
    return None


def irrationality_verdict(m: Morphism, tol=Fraction(1, 10**6)) -> SpectralReport | None:
    """The exact non-automaticity test: a primitive non-uniform morphism
    whose dominant eigenvalue is irrational has no automatic fixed point.
    Returns the spectral report as the machine-checkable reason."""
    if m.is_erasing:
        raise ValueError("irrationality verdict requires a non-erasing morphism")
    if m.uniform_length is not None:
        return None
    matrix = incidence(m).matrix
    if not is_primitive(matrix):
        return None
    report = spectral_report(matrix, tol)
    if report.dominant_is_integer:
        return None
    return report


# ---------------------------------------------------------------------------
# verdicts and reports

@dataclass(frozen=True)
class BlockCertificate:
    """Replayable certificate from the block stage: flattening the induced
    uniform block morphism reproduces the input sequence."""

    block: BlockMorphism
    base: int
    coding: Coding | None

    def prefix(self, n: int) -> tuple[str, ...]:
        word = self.block.flatten_prefix(n)
        if self.coding is not None:
            word = self.coding.apply(word)
            return tuple(self.coding.target.letters[c] for c in word)
        return tuple(self.block.source.alphabet.letters[c] for c in word)


@dataclass(frozen=True)
class SubalphabetWitness:
    letters: tuple[str, ...]
    seed: str
    sturmian: bool
    profile: ComplexityProfile

    def to_json(self) -> dict:
        return {
            "letters": list(self.letters),
            "seed": self.seed,
            "sturmian": self.sturmian,
            "profile": self.profile.to_json(),
        }


@dataclass(frozen=True)
class UnknownEvidence:
    complexity: ComplexityProfile
    witnesses: tuple[SubalphabetWitness, ...]

    def to_json(self) -> dict:
        return {
            "complexity": self.complexity.to_json(),
            "subalphabet_witnesses": [w.to_json() for w in self.witnesses],
        }


AUTOMATIC = "automatic"
NOT_AUTOMATIC = "not_automatic"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    kind: str
    provenance: str
    q: int | None = None
    certificate: object | None = None
    spectral: SpectralReport | None = None
    evidence: UnknownEvidence | None = None
    verified_depth: int | None = None

    @classmethod
    def automatic(cls, q, certificate, provenance, depth):
        return cls(AUTOMATIC, provenance, q=q, certificate=certificate, verified_depth=depth)

    @classmethod
    def not_automatic(cls, report, provenance):
        return cls(NOT_AUTOMATIC, provenance, spectral=report)

    @classmethod
    def unknown(cls, evidence, provenance):
        return cls(UNKNOWN, provenance, evidence=evidence)

    def describe(self) -> str:
        if self.kind == AUTOMATIC:
            if self.provenance == "uniform":
                how = f"uniform morphism of length {self.q}"
            elif self.provenance == "eigenvector":
                how = f"left-eigenvector criterion, q={self.q}"
            elif self.provenance == "block":
                cert = self.certificate
                how = f"{cert.block.k}-block morphism {cert.block.rules_text()}"
            else:
                how = self.provenance
            return f"Automatic({self.q}) via {how}"
        if self.kind == NOT_AUTOMATIC:
            return (
                "NotAutomatic: primitive, dominant eigenvalue irrational, "
                f"charpoly {self.spectral.char_poly}"
            )
        details = ""
        if self.evidence is not None and self.evidence.witnesses:
            hits = [w for w in self.evidence.witnesses if w.sturmian]
            if hits:
                sub = hits[0]
                details = (
                    f" (sturmian witness on {{{', '.join(sub.letters)}}}:"
                    " p(n)=n+1 on the tested window)"
                )
        return f"Unknown: no criterion decided; evidence attached{details}"

    def to_json(self) -> dict:
        out = {"kind": self.kind, "provenance": self.provenance, "summary": self.describe()}
        if self.q is not None:
            out["q"] = self.q
        if self.verified_depth is not None:
            out["verified_depth"] = self.verified_depth
        if self.spectral is not None:
            out["spectral"] = self.spectral.to_json()
        if self.evidence is not None:
            out["evidence"] = self.evidence.to_json()
        return out


@dataclass(frozen=True)
class StageOutcome:
    name: str
    status: str  # success | no | skipped | info | error
    detail: str
    data: dict | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "status": self.status, "detail": self.detail}
        if self.data is not None:
            out["data"] = self.data
        return out


@dataclass(frozen=True)
class AnalyzeOptions:
    depth: int = 10_000
    kmax: int = 8
    evidence_nmax: int = 30
    evidence_prefix: int = 10_000
    tol: Fraction = Fraction(1, 10**6)


@dataclass(frozen=True)
class AnalysisReport:
    verdict: Verdict
    stages: tuple[StageOutcome, ...]
    options: AnalyzeOptions

    def to_json(self, spec: MorphicSpec | None = None) -> dict:
        out = {
            "schema_version": 1,
            "verdict": self.verdict.to_json(),
            "stages": [s.to_json() for s in self.stages],
            "options": {"depth": self.options.depth, "kmax": self.options.kmax},
        }
        if spec is not None:
            a = spec.morphism.alphabet
            out["input"] = {
                "letters": list(a.letters),
                "rules": {
                    tok: a.render(img) for tok, img in zip(a.letters, spec.morphism.images)
                },
                "seed": spec.seed_token,
                "coding": (
                    None
                    if spec.coding is None
                    else {
                        tok: spec.coding.target.letters[t]
                        for tok, t in zip(a.letters, spec.coding.table)
                    }
                ),
                "incidence": incidence(spec.morphism).to_json(),
            }
        return out


# ---------------------------------------------------------------------------
# the orchestrator

def _verify_certificate(spec: MorphicSpec, certificate, depth: int) -> None:
    if spec.prefix(depth) != certificate.prefix(depth):
        raise InternalCheckError("certificate disagrees with the input fixed point")


def _with_external_coding(rep: UniformRepresentation, coding: Coding | None) -> UniformRepresentation:
    if coding is None:
        return rep
    return UniformRepresentation(rep.morphism, coding.after(rep.coding), rep.seed)


def _common_base(q: int, k: int) -> int | None:
    def is_power(n: int, b: int) -> bool:
        while n % b == 0:
            n //= b
        return n == 1

    for b in range(2, min(q, k) + 1):
        if is_power(q, b) and is_power(k, b):
            return b
    return None


def _invariant_subalphabets(m: Morphism) -> list[tuple[int, ...]]:
    """Proper subalphabets closed under the morphism: the letter closures."""
    r = len(m.alphabet)
    found = []
    for start in range(r):
        closure = {start}
        frontier = [start]
        while frontier:
            for c in m.image(frontier.pop()):
                if c not in closure:
                    closure.add(c)
                    frontier.append(c)
        if len(closure) < r:
            sub = tuple(sorted(closure))
            if sub not in found:
                found.append(sub)
    found.sort(key=lambda sub: (len(sub), sub))
    return found


def analyze(spec: MorphicSpec, options: AnalyzeOptions | None = None) -> AnalysisReport:
    opts = options or AnalyzeOptions()
    m = spec.morphism
    if not m.is_prolongable(spec.seed):
        raise SpecError(
            f"seed {spec.seed_token!r} is not prolongable; there is no fixed point to analyze"
        )

    stages: list[StageOutcome] = []
    verdict: Verdict | None = None

    # 1. already uniform
    k_uniform = m.uniform_length
    if k_uniform is not None and k_uniform >= 2:
        cert = representation_from_spec(spec)
        _verify_certificate(spec, cert, opts.depth)
        stages.append(
            StageOutcome("uniform", "success", f"all images have length {k_uniform}")
        )
        verdict = verdict or Verdict.automatic(k_uniform, cert, "uniform", opts.depth)
    else:
        stages.append(StageOutcome("uniform", "no", "image lengths differ"))

    # 2. left-eigenvector criterion
    erasing = m.is_erasing
    if erasing:
        stages.append(StageOutcome("eigenvector", "skipped", "erasing morphism"))
    else:
        inc = incidence(m)
        q = eigenvector_criterion(m)
        if q is None:
            product = [sum(inc.length_vector[i] * inc.matrix[i][j] for i in range(inc.dim)) for j in range(inc.dim)]
            stages.append(
                StageOutcome(
                    "eigenvector",
                    "no",
                    f"L*M = {tuple(product)} is not a rational multiple >= 2 of L = {inc.length_vector}",
                )
            )
        else:
            stages.append(
                StageOutcome(
                    "eigenvector",
                    "success",
                    f"length vector is a left eigenvector with eigenvalue {q}",
                    {"q": q},
                )
            )
            if verdict is None:
                rep = _with_external_coding(reshuffle_uniformize(m, spec.seed, q), spec.coding)
                cert = minimize_uniform(rep)
                _verify_certificate(spec, cert, opts.depth)
                verdict = Verdict.automatic(q, cert, "eigenvector", opts.depth)
        every_letter_occurs = all(any(row) for row in inc.matrix)
        if len(m.alphabet) == 2 and every_letter_occurs and gcd_obstruction(m):
            stages.append(
                StageOutcome(
                    "gcd-obstruction",
                    "info",
                    "coprime image lengths: the eigenvector criterion cannot hold",
                )
            )

    # 3. anagram decomposition, a cross-check: when it holds, L*M = d*L, so
    # the eigenvector stage has already decided with q = d
    if erasing:
        stages.append(StageOutcome("anagram", "skipped", "erasing morphism"))
    else:
        cert = anagram_decomposition(m)
        if cert is None:
            stages.append(StageOutcome("anagram", "no", "no block length yields anagram blocks"))
        else:
            stages.append(
                StageOutcome(
                    "anagram",
                    "success",
                    f"blocks of length {cert.block_length} over W = "
                    f"{{{', '.join(cert.anagram_tokens())}}}, degree d={cert.degree}",
                    cert.to_json(),
                )
            )
            if cert.degree >= 2 and q != cert.degree:
                raise InternalCheckError(
                    f"anagram degree {cert.degree} but eigenvector stage gave q={q}"
                )

    # 4. induced block morphisms
    block_hit = None
    partial = None
    failures = []
    for k in range(2, opts.kmax + 1):
        try:
            blk = block_morphism(spec, k)
        except BlockConstructionError as exc:
            failures.append(f"k={k}: {exc}")
            continue
        q_block = blk.morphism.uniform_length
        if q_block is None or q_block < 2:
            failures.append(f"k={k}: induced morphism not uniform")
            continue
        base = _common_base(q_block, k)
        if base is None:
            if partial is None:
                partial = (k, q_block, blk)
            failures.append(
                f"k={k}: {q_block}-uniform block morphism but no common base with k"
            )
            continue
        block_hit = (k, q_block, base, blk)
        break
    if block_hit is not None:
        k, q_block, base, blk = block_hit
        stages.append(
            StageOutcome(
                "block",
                "success",
                f"k={k}: induced morphism {blk.rules_text()} is {q_block}-uniform; "
                f"common base {base}",
                {"k": k, "uniform_length": q_block, "base": base, "rules": blk.rules_text()},
            )
        )
        if verdict is None:
            cert = BlockCertificate(blk, base, spec.coding)
            _verify_certificate(spec, cert, opts.depth)
            verdict = Verdict.automatic(base, cert, "block", opts.depth)
    elif partial is not None:
        k, q_block, blk = partial
        stages.append(
            StageOutcome(
                "block",
                "info",
                f"partial: k={k} gives a {q_block}-uniform block morphism but no "
                "common power base; block sequence automaticity only",
                {"k": k, "uniform_length": q_block, "rules": blk.rules_text()},
            )
        )
    else:
        stages.append(StageOutcome("block", "no", "; ".join(failures) or "no block structure"))

    # 5. irrational dominant eigenvalue
    if erasing:
        stages.append(StageOutcome("irrationality", "skipped", "erasing morphism"))
    elif spec.coding is not None and not spec.coding.is_injective:
        # a coding that merges letters can make the coded word's letter
        # frequencies rational even when the Perron root is irrational
        stages.append(
            StageOutcome(
                "irrationality",
                "skipped",
                "non-injective coding: the obstruction holds for the uncoded fixed point only",
            )
        )
    else:
        report = irrationality_verdict(m, opts.tol)
        if report is None:
            stages.append(
                StageOutcome(
                    "irrationality",
                    "no",
                    "needs a primitive, non-uniform morphism with irrational dominant eigenvalue",
                )
            )
        else:
            if verdict is not None:
                raise InternalCheckError(
                    f"stage {verdict.provenance} certified an automatic sequence, but the "
                    "irrationality stage found an irrational dominant eigenvalue"
                )
            stages.append(
                StageOutcome(
                    "irrationality",
                    "success",
                    f"primitive, charpoly {report.char_poly} has no integer dominant root",
                    report.to_json(),
                )
            )
            verdict = Verdict.not_automatic(report, "irrationality")

    # 6. evidence for an honest Unknown
    if verdict is None:
        profile = factor_complexity(spec, opts.evidence_nmax, opts.evidence_prefix)
        witnesses = []
        for sub in _invariant_subalphabets(m):
            restricted = m.restrict(sub)
            seeds = restricted.prolongable_letters()
            if not seeds:
                continue
            sub_spec = MorphicSpec(restricted, seeds[0])
            ok, sub_profile = sturmian_witness(sub_spec, opts.evidence_nmax, opts.evidence_prefix)
            witnesses.append(
                SubalphabetWitness(
                    restricted.alphabet.letters,
                    restricted.alphabet.letters[seeds[0]],
                    ok,
                    sub_profile,
                )
            )
        evidence = UnknownEvidence(profile, tuple(witnesses))
        verdict = Verdict.unknown(evidence, "evidence")
        found = [w for w in witnesses if w.sturmian]
        stages.append(
            StageOutcome(
                "evidence",
                "info",
                f"complexity profile attached; {len(found)} sturmian subalphabet witness(es)",
            )
        )

    return AnalysisReport(verdict, tuple(stages), opts)
