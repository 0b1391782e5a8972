"""Factor complexity over a finite prefix.

This is the evidence layer: finite-prefix computations that attach
empirical witnesses to otherwise undecided inputs.  ``factor_complexity``
and ``sturmian_witness`` accept anything with ``coded_prefix(n)`` and
``output_alphabet`` (morphic specs, uniform representations among them,
and block certificates) and work on that word of output-letter indices,
which comes packed, one byte per letter, over an output alphabet of at
most 256 letters.  Factor complexity takes such a word as it is and packs
a larger alphabet's word into fixed-width items of 2, 4 or 8 bytes, slices
byte windows from its distinct chunks only, and takes every count from
the longest common prefixes of the sorted distinct windows.
Complexity counts over a finite prefix are lower bounds on the true factor
complexity and are labelled as such.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate

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


def factor_complexity(spec, n_max: int, prefix_length: int) -> ComplexityProfile:
    """Count distinct factors of each length up to n_max in a prefix.

    The prefix must be at least four times as long as the window, a margin
    against the worst undercounting near the end of the prefix.

    The coded prefix is a byte string of s bytes per letter: s = 1 up to
    256 output letters, where ``coded_prefix`` already returns ``bytes``
    and the word is used as it comes, else the prefix is packed with
    ``array(code, word)``, ``code`` the first of "HILQ" whose item size s
    holds an index into the output alphabet.  Every letter then takes
    exactly s bytes, so two byte slices that start and end on item
    boundaries are equal exactly when the words they hold are equal.

    The counts come from the distinct windows W of n_max letters at every
    letter position (the last ``n_max - 1`` of them are shorter): every
    factor of length n is the n-letter prefix of the window at its start,
    and that window is at least n letters long.  W is found without slicing
    a window at every position.  The prefix is cut into chunks of
    ``n_max // 2`` letters (at least one), each chunk is extended by the
    ``n_max - 1`` letters after it, and windows are sliced only from the
    distinct extended chunks: a window that starts in a chunk ends inside
    its extended chunk, so equal extended chunks hold equal windows.  A
    fixed point of a morphism, coded or not, has O(n^2) distinct factors of
    length n (Pansiot 1984), so few of the extended chunks are distinct
    (212 and 200 of the 667 on ``benli`` and ``bartholdi``).

    With W sorted, the words of W that share an n-letter prefix are
    consecutive, so p(n) counts the words w of at least n letters whose
    longest common prefix with the word before them is shorter than n.  That
    common prefix is read off the highest set bit of the XOR of the two
    words as integers.  Each p(n) is still only a lower bound: it counts the
    factors that occur in this prefix.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if prefix_length < VALIDITY_FACTOR * n_max:
        raise ValueError(
            f"prefix length {prefix_length} is too short for windows up to {n_max}; "
            f"need at least {VALIDITY_FACTOR * n_max}"
        )
    letters = len(spec.output_alphabet)
    code = next(c for c in "BHILQ" if 256 ** array(c).itemsize >= letters)
    s = array(code).itemsize
    word = spec.coded_prefix(prefix_length)
    packed = word if s == 1 else array(code, word).tobytes()
    step = max(1, n_max // 2) * s
    span, width = step + (n_max - 1) * s, n_max * s
    chunks = {packed[i : i + span] for i in range(0, len(packed), step)}
    windows = {c[i : i + width] for c in chunks for i in range(0, min(step, len(c)), s)}
    # a word w adds one to p(n) for lcp(previous, w) < n <= |w|, in letters
    delta = [0] * (n_max + 2)
    previous = b""
    for w in sorted(windows):
        common = min(len(w), len(previous))
        differ = int.from_bytes(w[:common], "big") ^ int.from_bytes(previous[:common], "big")
        delta[(common - (differ.bit_length() + 7) // 8) // s + 1] += 1
        delta[len(w) // s + 1] -= 1
        previous = w
    return ComplexityProfile(n_max, tuple(accumulate(delta[1:-1])), prefix_length)


def sturmian_witness(spec, n_max: int, prefix_length: int) -> tuple[bool, ComplexityProfile]:
    """Evidence (not proof) of Sturmian complexity: p(n) == n + 1 up to n_max.

    The profile is ``factor_complexity(spec, n_max, prefix_length)``, so the
    witness speaks for that prefix only.
    """
    profile = factor_complexity(spec, n_max, prefix_length)
    ok = all(profile.p(n) == n + 1 for n in range(1, n_max + 1))
    return ok, profile
