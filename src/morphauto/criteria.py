"""Automaticity decision procedures and the orchestrating analyzer.

``analyze`` checks that the seed is prolongable and runs every deciding
stage in order: already uniform; the left-eigenvector criterion, which
also runs the anagram decomposition as its cross-check (an anagram degree
d >= 2 must equal its q); induced k-block morphisms, where the first k whose
block morphism is q-uniform gives Automatic(q); and the irrational-dominant
obstruction.  Every stage's outcome is recorded; a stage that needs a
non-erasing morphism records itself as skipped on an erasing one.  The
first claim is the verdict, and every later claim must agree with it in
kind and q, or ``InternalCheckError`` names both stages.  When no stage
claims, the complexity evidence returns an honest Unknown.  Each verdict
carries its own one-line summary.  Every Automatic verdict ships a
certificate that is replayed before it is returned: it must write over the
same output alphabet as the input and produce the same coded letter
indices up to the verification depth.  The ``uniform`` stage's certificate
is the input itself, so its replay is the alphabet check alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

from .constructions import (
    BlockConstructionError,
    BlockMorphism,
    UniformRepresentation,
    block_morphism,
    eigenvector_criterion,
    length_product,
    minimize_uniform,
    representation_from_spec,
    reshuffle_uniformize,
)
from .linalg import SpectralReport, incidence, is_primitive, spectral_report
from .sequences import ComplexityProfile, factor_complexity, sturmian_witness
from .words import (
    Alphabet,
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


def irrationality_verdict(m: Morphism) -> SpectralReport | None:
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
    report = spectral_report(matrix)
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
    coding: Coding | None

    @property
    def output_alphabet(self) -> Alphabet:
        return self.block.source.alphabet if self.coding is None else self.coding.target

    def coded_prefix(self, n: int) -> Word:
        """First n output letters, in the output alphabet's format, as
        ``MorphicSpec.coded_prefix`` gives them."""
        word = self.block.flatten_prefix(n)
        return word if self.coding is None else self.coding.apply(word)

    def prefix(self, n: int) -> tuple[str, ...]:
        return self.output_alphabet.tokens(self.coded_prefix(n))


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
    summary: str
    q: int | None = None
    certificate: object | None = None
    spectral: SpectralReport | None = None
    evidence: UnknownEvidence | None = None
    verified_depth: int | None = None

    @classmethod
    def automatic(cls, q, certificate, provenance, how):
        summary = f"Automatic({q}) via {how}"
        return cls(AUTOMATIC, provenance, summary, q=q, certificate=certificate)

    @classmethod
    def not_automatic(cls, report, provenance):
        summary = (
            f"NotAutomatic: primitive, dominant eigenvalue irrational, charpoly {report.char_poly}"
        )
        return cls(NOT_AUTOMATIC, provenance, summary, spectral=report)

    @classmethod
    def unknown(cls, evidence, provenance):
        summary = "Unknown: no criterion decided; evidence attached"
        hits = [w for w in evidence.witnesses if w.sturmian]
        if hits:
            summary += (
                f" (sturmian witness on {{{', '.join(hits[0].letters)}}}:"
                " p(n)=n+1 on the tested window)"
            )
        return cls(UNKNOWN, provenance, summary, evidence=evidence)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "provenance": self.provenance, "summary": self.summary}
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
    status: str  # success | no | skipped | info
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
    # the evidence stage's window and prefix
    evidence_nmax: ClassVar[int] = 30
    evidence_prefix: ClassVar[int] = 10_000

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be at least 1, got {self.depth}")
        if self.kmax < 2:
            raise ValueError(f"kmax must be at least 2, got {self.kmax}")


@dataclass(frozen=True)
class AnalysisReport:
    spec: MorphicSpec
    verdict: Verdict
    stages: tuple[StageOutcome, ...]
    options: AnalyzeOptions

    def to_json(self) -> dict:
        spec = self.spec
        a = spec.morphism.alphabet
        coding = spec.coding
        return {
            "schema_version": 1,
            "verdict": self.verdict.to_json(),
            "stages": [s.to_json() for s in self.stages],
            "options": {"depth": self.options.depth, "kmax": self.options.kmax},
            "input": {
                "letters": list(a.letters),
                "rules": {
                    tok: a.render(img) for tok, img in zip(a.letters, spec.morphism.images)
                },
                "seed": spec.seed_token,
                "coding": (
                    None
                    if coding is None
                    else {tok: coding.target.letters[t] for tok, t in zip(a.letters, coding.table)}
                ),
                "incidence": incidence(spec.morphism).to_json(),
            },
        }


# ---------------------------------------------------------------------------
# the orchestrator

def _verify_certificate(spec: MorphicSpec, certificate, depth: int) -> None:
    """Replay a certificate: the same output alphabet, and the same coded
    letter indices on the first ``depth`` letters.  A certificate that is
    the input's own representation (its morphism, seed and coding, an
    identity coding standing for none) generates the same word by
    construction, so it passes the alphabet check without expanding either
    prefix.

    Otherwise both sides generate their coded prefix (a block certificate
    flattens its blocks first).  The two words are over the same output
    alphabet, so they come in the same format, packed bytes up to 256
    letters, and are compared as they are."""
    if certificate.output_alphabet != spec.output_alphabet:
        raise InternalCheckError("certificate writes over another output alphabet")
    # a certificate with the spec's morphism proves that morphism uniform,
    # so representation_from_spec can be built
    if (
        isinstance(certificate, UniformRepresentation)
        and certificate.morphism == spec.morphism
        and certificate == representation_from_spec(spec)
    ):
        return
    if spec.coded_prefix(depth) != certificate.coded_prefix(depth):
        raise InternalCheckError("certificate disagrees with the input fixed point")


def _invariant_subalphabets(m: Morphism) -> list[tuple[int, ...]]:
    """Proper subalphabets closed under the morphism: the letter closures,
    smallest first."""
    r = len(m.alphabet)
    found = {m.closure((a,)) for a in range(r)} - {tuple(range(r))}
    return sorted(found, key=lambda sub: (len(sub), sub))


# Each stage takes (spec, options) and returns its outcomes and an optional
# claim, a verdict of its own.  Every deciding stage runs on every input;
# ``analyze`` alone picks the first claim and checks the later ones.

def _uniform_stage(spec: MorphicSpec, opts: AnalyzeOptions):
    k = spec.morphism.uniform_length
    if k is None or k < 2:
        return [StageOutcome("uniform", "no", "image lengths differ")], None
    outcome = StageOutcome("uniform", "success", f"all images have length {k}")
    how = f"uniform morphism of length {k}"
    cert = representation_from_spec(spec)
    return [outcome], Verdict.automatic(k, cert, "uniform", how)


def _eigenvector_stage(spec: MorphicSpec, opts: AnalyzeOptions):
    """The left-eigenvector criterion, the gcd note on two letters, and the
    anagram decomposition as a cross-check: when it holds, L*M = d*L, so
    this stage has found q = d."""
    m = spec.morphism
    if m.is_erasing:
        names = ("eigenvector", "anagram")
        return [StageOutcome(name, "skipped", "erasing morphism") for name in names], None
    q = eigenvector_criterion(m)
    verdict = None
    if q is None:
        detail = f"L*M = {length_product(m)} is not a rational multiple >= 2 of L = {m.lengths}"
        outcomes = [StageOutcome("eigenvector", "no", detail)]
    else:
        detail = f"length vector is a left eigenvector with eigenvalue {q}"
        outcomes = [StageOutcome("eigenvector", "success", detail, {"q": q})]
        # a uniform morphism with q >= 2 has length q: the uniform stage
        # certifies it, so only the other morphisms need a certificate here
        if m.uniform_length is None:
            cert = minimize_uniform(reshuffle_uniformize(spec))
            how = f"left-eigenvector criterion, q={q}"
            verdict = Verdict.automatic(q, cert, "eigenvector", how)
    # the obstruction needs both letters to occur in the images
    if len(m.alphabet) == 2 and {c for img in m.images for c in img} == {0, 1} and gcd_obstruction(m):
        outcomes.append(
            StageOutcome(
                "gcd-obstruction",
                "info",
                "coprime image lengths: the eigenvector criterion cannot hold",
            )
        )
    cert = anagram_decomposition(m)
    if cert is None:
        outcomes.append(StageOutcome("anagram", "no", "no block length yields anagram blocks"))
        return outcomes, verdict
    if cert.degree >= 2 and q != cert.degree:
        raise InternalCheckError(f"anagram degree {cert.degree} but eigenvector stage gave q={q}")
    outcomes.append(
        StageOutcome(
            "anagram",
            "success",
            f"blocks of length {cert.block_length} over W = "
            f"{{{', '.join(cert.anagram_tokens())}}}, degree d={cert.degree}",
            cert.to_json(),
        )
    )
    return outcomes, verdict


def _block_stage(spec: MorphicSpec, opts: AnalyzeOptions):
    """The first k in 2..kmax whose k-block morphism tau is q-uniform, q >= 2,
    decides Automatic(q).  Any k will do: if y is tau's fixed point, then
    z[m] = (y[m div k], m mod k) is the fixed point of the q-uniform morphism
    (B, j) -> ((tau(B)[(qj+t) div k], (qj+t) mod k) for t < q), and the input
    is a coding of z (Allouche-Shallit, Automatic Sequences, ch. 6)."""
    failures = []
    for k in range(2, opts.kmax + 1):
        try:
            blk = block_morphism(spec, k)
        except BlockConstructionError as exc:
            failures.append(f"k={k}: {exc}")
            continue
        q = blk.morphism.uniform_length
        if q is None or q < 2:
            failures.append(f"k={k}: induced morphism not uniform")
            continue
        rules = blk.morphism.rules_text()
        outcome = StageOutcome(
            "block",
            "success",
            f"k={k}: induced morphism {rules} is {q}-uniform",
            {"k": k, "uniform_length": q, "rules": rules},
        )
        how = f"{k}-block morphism {rules}"
        cert = BlockCertificate(blk, spec.coding)
        return [outcome], Verdict.automatic(q, cert, "block", how)
    return [StageOutcome("block", "no", "; ".join(failures))], None


def _irrationality_stage(spec: MorphicSpec, opts: AnalyzeOptions):
    if spec.morphism.is_erasing:
        return [StageOutcome("irrationality", "skipped", "erasing morphism")], None
    if spec.coding is not None and not spec.coding.is_injective:
        # a coding that merges letters can make the coded word's letter
        # frequencies rational even when the Perron root is irrational
        detail = "non-injective coding: the obstruction holds for the uncoded fixed point only"
        return [StageOutcome("irrationality", "skipped", detail)], None
    report = irrationality_verdict(spec.morphism)
    if report is None:
        detail = "needs a primitive, non-uniform morphism with irrational dominant eigenvalue"
        return [StageOutcome("irrationality", "no", detail)], None
    outcome = StageOutcome(
        "irrationality",
        "success",
        f"primitive, charpoly {report.char_poly} has no integer dominant root",
        report.to_json(),
    )
    return [outcome], Verdict.not_automatic(report, "irrationality")


def _evidence_stage(spec: MorphicSpec, opts: AnalyzeOptions):
    """Factor complexity of the input and Sturmian witnesses on its
    invariant subalphabets: the evidence of an honest Unknown."""
    nmax, length = opts.evidence_nmax, opts.evidence_prefix
    profile = factor_complexity(spec, nmax, length)
    witnesses = []
    for sub in _invariant_subalphabets(spec.morphism):
        restricted = spec.morphism.restrict(sub)
        seeds = restricted.prolongable_letters()
        if not seeds:
            continue
        ok, sub_profile = sturmian_witness(MorphicSpec(restricted, seeds[0]), nmax, length)
        letters = restricted.alphabet.letters
        witnesses.append(SubalphabetWitness(letters, letters[seeds[0]], ok, sub_profile))
    found = sum(w.sturmian for w in witnesses)
    detail = f"complexity profile attached; {found} sturmian subalphabet witness(es)"
    evidence = UnknownEvidence(profile, tuple(witnesses))
    return [StageOutcome("evidence", "info", detail)], Verdict.unknown(evidence, "evidence")


_STAGES = (_uniform_stage, _eigenvector_stage, _block_stage, _irrationality_stage)


def analyze(spec: MorphicSpec, options: AnalyzeOptions | None = None) -> AnalysisReport:
    opts = options or AnalyzeOptions()
    if not spec.morphism.is_prolongable(spec.seed):
        raise SpecError(
            f"seed {spec.seed_token!r} is not prolongable; there is no fixed point to analyze"
        )

    stages: list[StageOutcome] = []
    verdict: Verdict | None = None
    for run in _STAGES:
        outcomes, claim = run(spec, opts)
        stages.extend(outcomes)
        if claim is None:
            continue
        if verdict is None:
            if claim.kind == AUTOMATIC:
                _verify_certificate(spec, claim.certificate, opts.depth)
                claim = replace(claim, verified_depth=opts.depth)
            verdict = claim
        # q is fixed by the input: tau q'-uniform on k-blocks gives |sigma(x[:n])|
        # = q'n + O(k max|sigma(c)|), and L*M = qL (or sigma q-uniform) gives
        # |sigma(x[:n])| = qn at n = |sigma^j(seed)|; letting j -> oo, q' = q
        elif (claim.kind, claim.q) != (verdict.kind, verdict.q):
            raise InternalCheckError(
                f"stage {verdict.provenance} certified {verdict.kind} (q={verdict.q}), "
                f"but stage {claim.provenance} decided {claim.kind} (q={claim.q})"
            )
    if verdict is None:
        outcomes, verdict = _evidence_stage(spec, opts)
        stages.extend(outcomes)
    return AnalysisReport(spec, verdict, tuple(stages), opts)
