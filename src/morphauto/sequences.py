"""Prefix comparison, factor complexity and letter frequencies.

This is the evidence layer: finite-prefix computations that verify
certificates and attach empirical witnesses to otherwise undecided inputs.
``factor_complexity``, ``sturmian_witness`` and ``empirical_frequencies``
accept anything with ``coded_prefix(n)`` and ``output_alphabet`` (morphic
specs, uniform representations among them, and block certificates) and
work on that word of output-letter indices.  Factor complexity packs the
word into a byte string, one fixed-width item per letter, and counts byte
windows.
Complexity counts over a finite prefix are lower bounds on the true factor
complexity and are labelled as such.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction

from .words import parikh_vector

VALIDITY_FACTOR = 4  # required ratio between prefix length and window size


@dataclass(frozen=True)
class ComplexityProfile:
    """p(n) for 1 <= n <= n_max, counted over a prefix of fixed length."""

    n_max: int
    counts: tuple[int, ...]
    prefix_length: int

    @property
    def validity_margin(self) -> int:
        return self.prefix_length - self.n_max

    def p(self, n: int) -> int:
        return self.counts[n - 1]

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "counts": list(self.counts),
            "prefix_length": self.prefix_length,
            "validity_margin": self.validity_margin,
            "lower_bound_only": True,
        }


def prefix_equal(first, second, n: int) -> bool:
    """Whether two generators agree on their first n output letters.

    Accepts anything with a ``prefix(n) -> tuple[str, ...]`` method
    (morphic specs, uniform representations among them, block morphisms).
    """
    return first.prefix(n) == second.prefix(n)


def factor_complexity(spec, n_max: int = 30, prefix_length: int = 10_000) -> ComplexityProfile:
    """Count distinct factors of each length up to n_max in a prefix.

    The prefix must be at least four times as long as the window, a margin
    against the worst undercounting near the end of the prefix.

    The coded prefix is packed into bytes with ``array(code, word)``, where
    ``code`` is the first of "BHILQ" whose item size s holds an index into
    the output alphabet (s = 1 up to 256 letters).  Every letter then takes
    exactly s bytes, so two byte slices that start and end on item
    boundaries are equal exactly when the words they hold are equal.

    The counts come from the distinct windows of n_max letters at every
    letter position (the last ``n_max - 1`` of them are shorter): every
    factor of length n is the n-letter prefix of the window at its start,
    and that window is at least n letters long.  A fixed point of a
    morphism, coded or not, has O(n_max^2) distinct factors of length n_max
    (Pansiot 1984), so there are few windows, and the cost is one pass of
    byte slices over the prefix plus O(n_max^2) per distinct window.  Each
    p(n) is still only a lower bound: it counts the factors that occur in
    this prefix.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if prefix_length < VALIDITY_FACTOR * n_max:
        raise ValueError(
            f"prefix length {prefix_length} is too short for windows up to {n_max}; "
            f"need at least {VALIDITY_FACTOR * n_max}"
        )
    word = spec.coded_prefix(prefix_length)
    letters = len(spec.output_alphabet)
    code = next(c for c in "BHILQ" if 256 ** array(c).itemsize >= letters)
    s = array(code).itemsize
    packed = array(code, word).tobytes()
    windows = {packed[i : i + n_max * s] for i in range(0, len(packed), s)}
    counts = tuple(
        len({w[: n * s] for w in windows if len(w) >= n * s}) for n in range(1, n_max + 1)
    )
    return ComplexityProfile(n_max, counts, prefix_length)


def sturmian_witness(
    spec, n_max: int = 30, prefix_length: int = 10_000
) -> tuple[bool, ComplexityProfile]:
    """Evidence (not proof) of Sturmian complexity: p(n) == n + 1 up to n_max.

    The profile is ``factor_complexity(spec, n_max, prefix_length)``, so the
    witness speaks for that prefix only.
    """
    profile = factor_complexity(spec, n_max, prefix_length)
    ok = all(profile.p(n) == n + 1 for n in range(1, n_max + 1))
    return ok, profile


def empirical_frequencies(spec, prefix_length: int) -> tuple[Fraction, ...]:
    """Letter counts over a prefix, divided by its length, in output-alphabet
    order."""
    if prefix_length < 1:
        raise ValueError("prefix length must be positive")
    counts = parikh_vector(spec.coded_prefix(prefix_length), spec.output_alphabet)
    return tuple(Fraction(c, prefix_length) for c in counts)
