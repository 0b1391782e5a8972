"""Automaticity decision procedures and the orchestrating analyzer.

``analyze`` checks that the seed is prolongable and runs every deciding
stage in order: already uniform; the left-eigenvector criterion; induced
k-block morphisms, where the first k whose block morphism is q-uniform
gives Automatic(q); and the irrational-dominant obstruction.  Every stage's
outcome is recorded; a stage that needs a non-erasing morphism records
itself as skipped on an erasing one.  The first claim is the verdict, and
every later claim must agree with it in kind and q, or
``InternalCheckError`` names both stages.  When no stage claims, the
complexity evidence returns an honest Unknown.  Each verdict carries its
own one-line summary.  Every Automatic claim's q must be the uniform
length of its certificate's morphism, or ``InternalCheckError`` names the
stage.  The verdict's certificate is then replayed before it is returned:
it must write over the same output alphabet as the input and produce the
same coded letter indices up to the verification depth.  The ``uniform``
stage's certificate is the input itself, so its replay is the alphabet
check alone.
"""

from __future__ import annotations

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
from .linalg import SpectralReport, is_primitive, spectral_report
from .sequences import ComplexityProfile, factor_complexity, sturmian_witness
from .words import (
    Alphabet,
    Coding,
    InternalCheckError,
    Morphism,
    MorphicSpec,
    SpecError,
    Word,
)


# ---------------------------------------------------------------------------
# individual criteria

def irrationality_verdict(m: Morphism) -> SpectralReport | None:
    """The exact non-automaticity test: a primitive non-uniform morphism
    whose dominant eigenvalue is irrational has no automatic fixed point.
    Returns the spectral report as the machine-checkable reason."""
    if m.is_erasing:
        raise ValueError("irrationality verdict requires a non-erasing morphism")
    if m.uniform_length is not None:
        return None
    matrix = m.incidence
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

    @property
    def q(self) -> int:
        return self.block.morphism.uniform_length

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


def _dense_row(row, size: int) -> list[str]:
    # one sparse row (j, m_ij) as all ``size`` entries, in decimal
    out = ["0"] * size
    for j, m in row:
        out[j] = str(m)
    return out


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
                # row-major and dense, rendered from the sparse rows here, the
                # one place that needs every entry; decimal strings so
                # arbitrary sizes survive
                "incidence": {
                    "matrix": [_dense_row(row, len(a)) for row in spec.morphism.incidence],
                    "length_vector": [str(length) for length in spec.morphism.lengths],
                },
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


# Each stage takes (spec, options) and returns its outcome and an optional
# claim, a verdict of its own.  Every deciding stage runs on every input;
# ``analyze`` alone picks the first claim and checks the later ones.

def _uniform_stage(spec: MorphicSpec, opts: AnalyzeOptions):
    k = spec.morphism.uniform_length
    if k is None or k < 2:
        return StageOutcome("uniform", "no", "image lengths differ"), None
    outcome = StageOutcome("uniform", "success", f"all images have length {k}")
    how = f"uniform morphism of length {k}"
    cert = representation_from_spec(spec)
    return outcome, Verdict.automatic(k, cert, "uniform", how)


def _eigenvector_stage(spec: MorphicSpec, opts: AnalyzeOptions):
    """The left-eigenvector criterion: L*M = qL with q >= 2, L*M read off the
    images.  A "no" names L*M, summed once here; the criterion itself stops
    summing at the first letter that breaks L*M = lambda*L."""
    m = spec.morphism
    if m.is_erasing:
        return StageOutcome("eigenvector", "skipped", "erasing morphism"), None
    q = eigenvector_criterion(m)
    if q is None:
        detail = f"L*M = {length_product(m)} is not a rational multiple >= 2 of L = {m.lengths}"
        return StageOutcome("eigenvector", "no", detail), None
    detail = f"length vector is a left eigenvector with eigenvalue {q}"
    outcome = StageOutcome("eigenvector", "success", detail, {"q": q})
    # a uniform morphism with q >= 2 has length q: the uniform stage
    # certifies it, so only the other morphisms need a certificate here
    if m.uniform_length is not None:
        return outcome, None
    cert = minimize_uniform(reshuffle_uniformize(spec))
    how = f"left-eigenvector criterion, q={q}"
    return outcome, Verdict.automatic(q, cert, "eigenvector", how)


def _block_stage(spec: MorphicSpec, opts: AnalyzeOptions):
    """The first k in 2..kmax whose k-block morphism tau is q-uniform, q >= 2,
    decides Automatic(q).  Any k will do: if y is tau's fixed point, then
    z[m] = (y[m div k], m mod k) is the fixed point of the q-uniform morphism
    (B, j) -> ((tau(B)[(qj+t) div k], (qj+t) mod k) for t < q), and the input
    is a coding of z (Allouche-Shallit, Automatic Sequences, ch. 6)."""
    failures = []
    prefix = spec.uncoded_prefix(opts.kmax)  # every k's first block, from one expansion
    for k in range(2, opts.kmax + 1):
        try:
            blk = block_morphism(spec, k, prefix)
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
        return outcome, Verdict.automatic(q, cert, "block", how)
    return StageOutcome("block", "no", "; ".join(failures)), None


def _irrationality_stage(spec: MorphicSpec, opts: AnalyzeOptions):
    if spec.morphism.is_erasing:
        return StageOutcome("irrationality", "skipped", "erasing morphism"), None
    if spec.coding is not None and not spec.coding.is_injective:
        # a coding that merges letters can make the coded word's letter
        # frequencies rational even when the Perron root is irrational
        detail = "non-injective coding: the obstruction holds for the uncoded fixed point only"
        return StageOutcome("irrationality", "skipped", detail), None
    report = irrationality_verdict(spec.morphism)
    if report is None:
        detail = "needs a primitive, non-uniform morphism with irrational dominant eigenvalue"
        return StageOutcome("irrationality", "no", detail), None
    outcome = StageOutcome(
        "irrationality",
        "success",
        f"primitive, charpoly {report.char_poly} has no integer dominant root",
        report.to_json(),
    )
    return outcome, Verdict.not_automatic(report, "irrationality")


def _evidence_stage(spec: MorphicSpec, opts: AnalyzeOptions):
    """Factor complexity of the input and Sturmian witnesses on its
    invariant subalphabets: the evidence of an honest Unknown.

    A witness word is the fixed point from its seed letter, the same word
    in whichever invariant subalphabet holds that letter (relabelled, which
    no count sees), so each seed letter is profiled once."""
    nmax, length = opts.evidence_nmax, opts.evidence_prefix
    profile = factor_complexity(spec, nmax, length)
    witnesses = []
    by_seed: dict[int, tuple[bool, ComplexityProfile]] = {}  # seed letter -> witness
    for sub in _invariant_subalphabets(spec.morphism):
        restricted = spec.morphism.restrict(sub)
        seeds = restricted.prolongable_letters()
        if not seeds:
            continue
        seed = sub[seeds[0]]
        if seed not in by_seed:
            by_seed[seed] = sturmian_witness(MorphicSpec(restricted, seeds[0]), nmax, length)
        ok, sub_profile = by_seed[seed]
        letters = restricted.alphabet.letters
        witnesses.append(SubalphabetWitness(letters, letters[seeds[0]], ok, sub_profile))
    found = sum(w.sturmian for w in witnesses)
    detail = f"complexity profile attached; {found} sturmian subalphabet witness(es)"
    evidence = UnknownEvidence(profile, tuple(witnesses))
    return StageOutcome("evidence", "info", detail), Verdict.unknown(evidence, "evidence")


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
        outcome, claim = run(spec, opts)
        stages.append(outcome)
        if claim is None:
            continue
        # a certificate proves Automatic(q) for its own uniform length only
        if claim.kind == AUTOMATIC and claim.q != claim.certificate.q:
            raise InternalCheckError(
                f"stage {claim.provenance} claimed q={claim.q}, "
                f"but its certificate is {claim.certificate.q}-uniform"
            )
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
        outcome, verdict = _evidence_stage(spec, opts)
        stages.append(outcome)
    return AnalysisReport(spec, verdict, tuple(stages), opts)
