"""morphauto: detect hidden automatic sequences in fixed points of word
morphisms, certify them with explicit uniform representations, and certify
or witness non-automaticity with exact spectral tests and factor-complexity
profiles."""

from .constructions import (
    BlockConstructionError,
    BlockMorphism,
    CriterionNotSatisfied,
    UniformRepresentation,
    block_morphism,
    cup_transform,
    minimize_uniform,
    representation_from_spec,
    reshuffle_uniformize,
    verify_back,
)
from .criteria import (
    AnalysisReport,
    AnalyzeOptions,
    BlockCertificate,
    Verdict,
    analyze,
    eigenvector_criterion,
    irrationality_verdict,
)
from .linalg import (
    IntPolynomial,
    RadiusBracket,
    SpectralReport,
    char_poly,
    integer_roots,
    is_primitive,
    radius_bracket,
    spectral_report,
)
from .sequences import (
    ComplexityProfile,
    factor_complexity,
    sturmian_witness,
)
from .words import (
    Alphabet,
    Coding,
    InternalCheckError,
    MorphParseError,
    MorphicSpec,
    Morphism,
    SpecError,
    Word,
    parse_morphism,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AnalysisReport",
    "AnalyzeOptions",
    "BlockCertificate",
    "BlockConstructionError",
    "BlockMorphism",
    "Coding",
    "ComplexityProfile",
    "CriterionNotSatisfied",
    "IntPolynomial",
    "InternalCheckError",
    "MorphParseError",
    "MorphicSpec",
    "Morphism",
    "RadiusBracket",
    "SpecError",
    "SpectralReport",
    "UniformRepresentation",
    "Verdict",
    "Word",
    "analyze",
    "block_morphism",
    "char_poly",
    "cup_transform",
    "eigenvector_criterion",
    "factor_complexity",
    "integer_roots",
    "irrationality_verdict",
    "is_primitive",
    "minimize_uniform",
    "parse_morphism",
    "radius_bracket",
    "representation_from_spec",
    "reshuffle_uniformize",
    "spectral_report",
    "sturmian_witness",
    "verify_back",
]
