"""Hypothesis strategies for random morphic specs, drawn as ``.morph`` text.

Each draw keeps the token-level rules and coding it wrote into the text, so
an oracle can rebuild the coded fixed point without the package's own word
code.
"""

from dataclasses import dataclass

from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

from morphauto import MorphicSpec, parse_morphism

LETTERS = ("a", "b", "c", "d")
TARGETS = ("0", "1", "2")

PROPERTY = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@dataclass(frozen=True)
class DrawnSpec:
    text: str
    spec: MorphicSpec  # parsed from ``text``
    rules: dict  # letter token -> list of image tokens
    seed: str
    coding: dict | None  # letter token -> output token
    doubling: bool  # the seed occurs again in its own image's tail

    def code(self, tokens: list[str]) -> list[str]:
        return tokens if self.coding is None else [self.coding[t] for t in tokens]


@st.composite
def prolongable_specs(draw, max_image: int = 4) -> DrawnSpec:
    """A 1-4 letter morphism (erasing images allowed) with a prolongable seed,
    and with or without a coding onto one to three output tokens, so that
    many codings merge letters."""
    letters = LETTERS[: draw(st.integers(1, 4))]
    rules = {
        tok: draw(st.lists(st.sampled_from(letters), max_size=max_image)) for tok in letters
    }
    seed = draw(st.sampled_from(letters))
    tail = draw(st.lists(st.sampled_from(letters), min_size=1, max_size=max_image - 1))
    rules[seed] = [seed] + tail
    lines = [f"letters: {' '.join(letters)}"]
    lines += [f"{tok} -> {' '.join(img)}" for tok, img in rules.items()]
    lines.append(f"seed: {seed}")
    coding = None
    if draw(st.booleans()):
        coding = {tok: draw(st.sampled_from(TARGETS)) for tok in letters}
        lines.append("coding: " + ", ".join(f"{k}->{v}" for k, v in coding.items()))
    text = "\n".join(lines) + "\n"
    spec = parse_morphism(text)
    assume(spec.morphism.is_prolongable(spec.seed))
    return DrawnSpec(text, spec, rules, seed, coding, seed in tail)
