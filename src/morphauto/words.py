"""Alphabets, words, morphisms and codings, plus the ``.morph`` file format.

A word is a sequence of letter indices into an :class:`Alphabet`.  Words
read from text and the images of a morphism are tuples of ints.  A prefix
of a fixed point, coded or not, is packed: ``bytes``, one byte per letter,
when its alphabet has at most 256 letters, and a tuple of ints over a larger
alphabet.  Both index, iterate and compare letter by letter, and two prefixes
over the same alphabet always have the same format, so they are compared
without conversion.  A morphism maps every letter to a word over the same
alphabet and extends to words by concatenation.  It carries the integer
data of the exact tests: its length vector (``Morphism.lengths``) and its
incidence matrix (``Morphism.incidence``), as the sparse rows that
``linalg`` takes, built from the images without an r x r table.  Fixed
points of prolongable morphisms are generated lazily, by expanding a
growing prefix in place, so producing ``n`` letters costs O(n) time and
memory.

Letters are whitespace-free token strings, not single characters, so
alphabets like ``{1, 1*, 2, 2*}`` work throughout.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

# a tuple of ints, or bytes for a prefix over at most 256 letters
Word = tuple[int, ...] | bytes


class MorphParseError(ValueError):
    """Malformed ``.morph`` input.  Carries 1-based line/column positions."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SpecError(ValueError):
    """A morphic spec cannot do what was asked of it (e.g. no fixed point)."""


class InternalCheckError(AssertionError):
    """A certified construction failed its own consistency check."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered alphabet of distinct letter tokens.

    The declaration order is canonical: every matrix and vector in the
    package indexes letters in this order.
    """

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("alphabet must not be empty")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("alphabet letters must be distinct")
        for tok in self.letters:
            # str.split() cuts at exactly the characters str.isspace()
            # accepts, so this rejects an empty token or one with whitespace
            if tok.split() != [tok]:
                raise ValueError(f"bad letter token {tok!r}")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.letters)}

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise ValueError(f"unknown letter {token!r}") from None

    @property
    def packed(self) -> bool:
        """Whether prefixes over this alphabet are ``bytes``, one byte per
        letter: at most 256 letters.  Larger alphabets use tuples."""
        return len(self.letters) <= 256

    @cached_property
    def single_char(self) -> bool:
        return all(len(tok) == 1 for tok in self.letters)

    def split(self, text: str) -> list[str]:
        """The tokens of ``text`` as a ``.morph`` image writes them: every
        non-space character over a single-character alphabet, the
        whitespace-separated tokens otherwise."""
        return list("".join(text.split())) if self.single_char else text.split()

    def render(self, word: Word) -> str:
        sep = "" if self.single_char else " "
        return sep.join([self.letters[i] for i in word])

    def tokens(self, word: Word) -> tuple[str, ...]:
        return tuple(self.letters[i] for i in word)


@dataclass(frozen=True)
class Morphism:
    """A map letter -> word over a fixed alphabet.

    Erasing images (empty words) are representable; operations that need a
    non-erasing morphism check for themselves.
    """

    alphabet: Alphabet
    images: tuple[Word, ...]

    def __post_init__(self):
        if len(self.images) != len(self.alphabet):
            raise ValueError("one image per letter is required")
        used = set(chain.from_iterable(self.images))
        if used and (min(used) < 0 or max(used) >= len(self.alphabet)):
            raise ValueError("image letter out of range")

    def __repr__(self):
        return f"Morphism({self.rules_text()})"

    def rules_text(self) -> str:
        """The rules, as ``a->ab, b->a``."""
        return ", ".join(
            f"{tok}->{self.alphabet.render(img)}" for tok, img in zip(self.alphabet.letters, self.images)
        )

    def image(self, letter: int) -> Word:
        return self.images[letter]

    @cached_property
    def lengths(self) -> tuple[int, ...]:
        return tuple(map(len, self.images))

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The incidence matrix M, as the sparse rows that ``linalg`` takes:
        row i holds a pair (j, M_ij) for every image j that contains letter
        i, j ascending, and no pair for a zero entry.

        Convention: entry (i, j) counts the occurrences of letter i in the
        image of letter j, so column j is the Parikh vector of that image,
        columns are indexed by source letters and column sums equal the
        image lengths.  Built from the images in one pass over their
        letters: the pairs number at most the total image length."""
        rows: list[list[tuple[int, int]]] = [[] for _ in self.images]
        for j, img in enumerate(self.images):
            for c in img:
                row = rows[c]
                if row and row[-1][0] == j:
                    row[-1] = (j, row[-1][1] + 1)
                else:
                    row.append((j, 1))
        return tuple(map(tuple, rows))

    @property
    def is_erasing(self) -> bool:
        return not all(self.images)

    @cached_property
    def uniform_length(self) -> int | None:
        """The common image length if the morphism is uniform, else None."""
        ls = set(self.lengths)
        return ls.pop() if len(ls) == 1 else None

    def apply(self, word: Word) -> Word:
        out: list[int] = []
        for c in word:
            out.extend(self.images[c])
        return tuple(out)

    @cached_property
    def mortal_letters(self) -> frozenset[int]:
        """Letters whose iterated image eventually becomes empty."""
        if not self.is_erasing:
            return frozenset()
        dead = {i for i, img in enumerate(self.images) if not img}
        changed = True
        while changed:
            changed = False
            for i, img in enumerate(self.images):
                if i not in dead and img and all(c in dead for c in img):
                    dead.add(i)
                    changed = True
        return frozenset(dead)

    def is_prolongable(self, letter: int) -> bool:
        """Whether iterating from ``letter`` yields an infinite fixed point.

        Requires the image to start with the letter, to have length at least
        two, and the tail to contain a letter that never dies out.  For
        non-erasing morphisms the last condition is automatic.
        """
        if not 0 <= letter < len(self.alphabet):
            raise ValueError("unknown letter")
        img = self.images[letter]
        if len(img) < 2 or img[0] != letter:
            return False
        return not self.mortal_letters.issuperset(img[1:])

    def prolongable_letters(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.alphabet)) if self.is_prolongable(i))

    def closure(self, letters: Iterable[int]) -> tuple[int, ...]:
        """The letters reachable from ``letters`` through images, those
        included, in sorted order: the least subalphabet that contains them
        and is closed under the morphism."""
        seen = set(letters)
        frontier = list(seen)
        while frontier:
            for c in self.images[frontier.pop()]:
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
        return tuple(sorted(seen))

    def restrict(self, letters: Sequence[int]) -> "Morphism":
        """Restriction to an invariant subalphabet (original letter order)."""
        subset = sorted(set(letters))
        remap = {old: new for new, old in enumerate(subset)}
        images = []
        for old in subset:
            img = self.images[old]
            if any(c not in remap for c in img):
                raise ValueError("subalphabet is not closed under the morphism")
            images.append(tuple(remap[c] for c in img))
        alpha = Alphabet(tuple(self.alphabet.letters[old] for old in subset))
        return Morphism(alpha, tuple(images))


@dataclass(frozen=True)
class Coding:
    """A letter-to-letter map between alphabets, total on the source."""

    source: Alphabet
    target: Alphabet
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != len(self.source):
            raise ValueError("coding must be total on its source alphabet")
        if min(self.table) < 0 or max(self.table) >= len(self.target):
            raise ValueError("coding target letter out of range")

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Coding":
        return cls(alphabet, alphabet, tuple(range(len(alphabet))))

    @property
    def is_identity(self) -> bool:
        return all(
            self.target.letters[self.table[i]] == tok for i, tok in enumerate(self.source.letters)
        )

    @property
    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def apply(self, word: Word) -> Word:
        """The coded word, in the format of the target alphabet: ``bytes``
        when it has at most 256 letters, coded by one ``bytes.translate``
        when ``word`` is packed too, else a tuple of ints."""
        if not self.target.packed:
            return tuple(map(self.table.__getitem__, word))
        if isinstance(word, bytes):
            return word.translate(bytes(self.table).ljust(256, b"\0"))
        return bytes(map(self.table.__getitem__, word))


_POWER_IMAGE = 32  # prefixes longer than this per letter expand with a power


def _list_join(parts: Iterable[Sequence[int]]) -> list[int]:
    return list(chain.from_iterable(parts))


def _bounded_power(images: list, seed: int, reach: Sequence[int], bound: int, join) -> list:
    """The images of sigma^t for the largest power of two t such that every
    letter in ``reach``, the letters reachable from the seed, has an image
    of at most ``bound`` letters (t = 1 when none has).  ``images`` are
    those of sigma and ``join`` concatenates images in their format.
    Letters outside ``reach`` keep their images under sigma: the fixed point
    never holds them, and their images may grow much faster.

    sigma^(2t)(a) is sigma^t applied to the letters of sigma^t(a); its length
    is checked against the bound before it is built.  Doubling t reaches the
    bound in O(log bound) steps even where images grow only linearly in t,
    like a -> ab, b -> b.  When the seed is prolongable its image grows with
    t, so the loop ends; an image of the seed that stops growing means a
    finite fixed point, and the power reached so far is returned for the
    caller's stall check.  On the tuple path the images are lists: CPython
    keeps freed tuples of fewer than 20 items on free lists instead of
    releasing them, and a power built on every call as tuples raised the
    peak RSS of a long run of ``analyze`` calls by 1.1 to 1.8 MB.
    """
    power = images
    while True:
        lengths = list(map(len, power))
        # |sigma^(2t)(a)| is at least |sigma^t(a)| times the shortest image
        if max(map(lengths.__getitem__, reach)) * min(map(lengths.__getitem__, reach)) > bound:
            return power
        squared = {a: sum(map(lengths.__getitem__, power[a])) for a in reach}
        if max(squared.values()) > bound or squared[seed] == lengths[seed]:
            return power
        power = [
            join(map(power.__getitem__, img)) if a in squared else img
            for a, img in enumerate(power)
        ]


@dataclass(frozen=True)
class MorphicSpec:
    """A morphism with a start letter and an optional output coding.

    The object of study is the coded iterative fixed point: the infinite
    word obtained by iterating the morphism from the seed, sent through the
    coding when one is present.
    """

    morphism: Morphism
    seed: int
    coding: Coding | None = None

    def __post_init__(self):
        if not 0 <= self.seed < len(self.morphism.alphabet):
            raise ValueError("seed letter out of range")
        if self.coding is not None and self.coding.source != self.morphism.alphabet:
            raise ValueError("coding source must match the morphism alphabet")

    @property
    def output_alphabet(self) -> Alphabet:
        return self.coding.target if self.coding is not None else self.morphism.alphabet

    @property
    def seed_token(self) -> str:
        return self.morphism.alphabet.letters[self.seed]

    def uncoded_prefix(self, n: int) -> Word:
        """First ``n`` letters of the fixed point, before any coding: packed
        ``bytes`` when the morphism's alphabet has at most 256 letters, else
        a tuple of ints.

        The fixed point x of a prolongable morphism sigma is also the fixed
        point of every power sigma^t, so x = sigma^t(x[0]) sigma^t(x[1]) ...
        and one step expands a letter into up to B letters instead of
        |sigma(letter)|.  The power (``_bounded_power``) is built afresh on
        every call, with B = max(``_POWER_IMAGE``, n / 8 per letter reachable
        from the seed), so that building it costs less than the prefix.  Only
        a prefix longer than ``_POWER_IMAGE`` letters per alphabet letter is
        expanded with it; a shorter one, like the kmax letters that the block
        stage expands once and reads every k's first block from, is expanded
        with sigma itself.  The images are packed like the prefix, also on
        every call.

        Expansion is lazy: one growing buffer ``out`` holds the prefix, and
        ``out[:done]`` are the letters already expanded, so that ``out`` is
        their image.  A round appends the images of the letters
        ``out[done:stop]`` with one join.  It expands as many letters as
        reach ``n`` at the mean image length so far, len(out) / done (at
        least one letter, at most all of ``out[done:]``), so that the last
        round overshoots ``n`` by about as much as the mean differs from the
        mean of the letters it expands.
        """
        packed = self.morphism.alphabet.packed
        if n <= 0:
            return b"" if packed else ()
        m = self.morphism
        if not m.is_prolongable(self.seed):
            raise SpecError(
                f"seed {self.seed_token!r} is not prolongable; the spec has no infinite fixed point"
            )
        # a list: its __getitem__ maps letters to images faster than a tuple's
        if packed:
            images, join = [bytes(img) for img in m.images], b"".join
        else:
            images, join = list(m.images), _list_join
        if n > _POWER_IMAGE * len(images):
            reach = m.closure((self.seed,))
            bound = max(_POWER_IMAGE, n // (8 * len(reach)))
            images = _bounded_power(images, self.seed, reach, bound, join)
        out = bytearray(images[self.seed]) if packed else list(images[self.seed])
        done = 1  # position 0 is the seed, whose image is the buffer
        while len(out) < n:
            if done >= len(out):
                raise InternalCheckError("fixed-point expansion stalled")
            # as many letters as reach n at the mean image length len(out) / done
            stop = min(len(out), done - (len(out) - n) * done // len(out))
            out += join(map(images.__getitem__, out[done:stop]))
            done = stop
        del out[n:]
        return bytes(out) if packed else tuple(out)

    def coded_prefix(self, n: int) -> Word:
        """First ``n`` output letters, as indices into the output alphabet,
        in that alphabet's format: ``bytes`` when it has at most 256
        letters (see ``Coding.apply``), else a tuple of ints."""
        w = self.uncoded_prefix(n)
        return w if self.coding is None else self.coding.apply(w)

    def prefix(self, n: int) -> tuple[str, ...]:
        """First ``n`` output letters, as tokens of the output alphabet."""
        return self.output_alphabet.tokens(self.coded_prefix(n))

    def to_morph_text(self, comments: Iterable[str] = ()) -> str:
        """Serialise back to the ``.morph`` format (re-ingestible)."""
        a = self.morphism.alphabet
        lines = [f"# {c}" for c in comments]
        lines.append("letters: " + " ".join(a.letters))
        for tok, img in zip(a.letters, self.morphism.images):
            lines.append(f"{tok} -> {a.render(img)}".rstrip())
        lines.append(f"seed: {self.seed_token}")
        if self.coding is not None:
            pairs = ", ".join(
                f"{src}->{self.coding.target.letters[t]}"
                for src, t in zip(a.letters, self.coding.table)
            )
            lines.append("coding: " + pairs)
        return "\n".join(lines) + "\n"


def _parse_image(rhs: str, alphabet: Alphabet, lineno: int, raw_line: str) -> Word:
    tokens = alphabet.split(rhs)
    try:
        return tuple(map(alphabet._index.__getitem__, tokens))
    except KeyError as exc:
        (tok,) = exc.args  # the first undeclared token
    # its first whole-token match in rhs, as the tokens before it are
    # declared; rhs starts after the first "->" of raw_line
    if alphabet.single_char:
        at = rhs.find(tok)
    else:
        at = re.search(rf"(?<!\S){re.escape(tok)}(?!\S)", rhs).start()
    column = raw_line.index("->") + 3 + at
    raise MorphParseError(f"undeclared letter {tok!r}", lineno, column)


def parse_morphism(text: str) -> MorphicSpec:
    """Parse the ``.morph`` file format.

    Grammar (line oriented, ``#`` starts a comment)::

        letters: <tok> <tok> ...
        <tok> -> <image tokens>
        seed: <tok>                # optional
        coding: <tok>-><tok>, ...  # optional, total on the letters

    Letters hold no whitespace, ``->`` or ``,``.  Image tokens are
    whitespace separated; when every letter is a single character they may
    also be written concatenated (``a -> aca``).  A missing seed defaults
    to the first letter with a prolongable rule, or failing that to the
    first letter.  One leading byte-order mark, which some editors write
    at the start of a UTF-8 file, is dropped.
    """
    text = text.removeprefix("\ufeff")
    declared: dict[str, tuple[int, object]] = {}  # header -> (line, value)
    rules: dict[str, tuple[int, Word]] = {}  # letter -> (line, image)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, body = line.partition(":")
        if key in ("letters", "seed", "coding"):
            if key in declared:
                raise MorphParseError(f"duplicate {key} declaration", lineno)
            if key == "letters":
                toks = body.split()
                if not toks:
                    raise MorphParseError("empty letters declaration", lineno)
                if len(set(toks)) != len(toks):
                    raise MorphParseError("duplicate letter in declaration", lineno)
                # a rule splits at its first "->" and a coding at ",", so
                # such a letter could get neither
                for tok in toks:
                    if "->" in tok or "," in tok:
                        raise MorphParseError(f"letter {tok!r} holds '->' or ','", lineno)
                value = Alphabet(tuple(toks))
            elif key == "seed":
                if len(body.split()) != 1:
                    raise MorphParseError("seed wants exactly one letter", lineno)
                value = body.strip()
            else:
                value = []
                for item in filter(None, map(str.strip, body.split(","))):
                    src, arrow, dst = map(str.strip, item.partition("->"))
                    if not (arrow and src) or len(dst.split()) != 1:
                        raise MorphParseError(f"bad coding pair {item!r}", lineno)
                    value.append((src, dst))
            declared[key] = lineno, value
        elif "->" in line:
            if "letters" not in declared:
                raise MorphParseError("rule before letters declaration", lineno)
            alphabet = declared["letters"][1]
            lhs, rhs = line.split("->", 1)
            lhs = lhs.strip()
            if lhs not in alphabet:
                raise MorphParseError(f"rule for undeclared letter {lhs!r}", lineno)
            if lhs in rules:
                raise MorphParseError(
                    f"duplicate rule for {lhs!r} (first at line {rules[lhs][0]})", lineno
                )
            rules[lhs] = lineno, _parse_image(rhs, alphabet, lineno, raw)
        else:
            raise MorphParseError(f"unrecognised line {line!r}", lineno)

    if "letters" not in declared:
        raise MorphParseError("missing letters declaration")
    alphabet = declared["letters"][1]
    missing = [tok for tok in alphabet.letters if tok not in rules]
    if missing:
        raise MorphParseError(f"missing rule for letter {missing[0]!r}")
    morphism = Morphism(alphabet, tuple(rules[tok][1] for tok in alphabet.letters))

    if "seed" in declared:
        seed_line, seed_token = declared["seed"]
        if seed_token not in alphabet:
            raise MorphParseError(f"seed {seed_token!r} is not a declared letter", seed_line)
        seed = alphabet.index(seed_token)
    else:
        seed = (morphism.prolongable_letters() or (0,))[0]

    coding = None
    if "coding" in declared:
        coding_line, pairs = declared["coding"]
        mapping: dict[str, str] = {}
        for src, dst in pairs:
            if src not in alphabet:
                raise MorphParseError(f"coding maps undeclared letter {src!r}", coding_line)
            if src in mapping:
                raise MorphParseError(f"coding maps {src!r} twice", coding_line)
            mapping[src] = dst
        absent = [tok for tok in alphabet.letters if tok not in mapping]
        if absent:
            raise MorphParseError(f"coding is missing letter {absent[0]!r}", coding_line)
        target = Alphabet(tuple(dict.fromkeys(mapping.values())))  # first-seen order
        coding = Coding(alphabet, target, tuple(target.index(mapping[tok]) for tok in alphabet.letters))

    return MorphicSpec(morphism, seed, coding)
