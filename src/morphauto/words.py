"""Alphabets, words, morphisms and codings, plus the ``.morph`` file format.

A word is a tuple of letter indices into an :class:`Alphabet`.  A morphism
maps every letter to a word over the same alphabet and extends to words by
concatenation.  Fixed points of prolongable morphisms are generated lazily,
by expanding a growing prefix in place, so producing ``n`` letters costs
O(n) time and memory.

Letters are whitespace-free token strings, not single characters, so
alphabets like ``{1, 1*, 2, 2*}`` work throughout.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import length_hint

Word = tuple[int, ...]


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
            if not tok or any(ch.isspace() for ch in tok):
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
    def single_char(self) -> bool:
        return all(len(tok) == 1 for tok in self.letters)

    def word(self, text: str) -> Word:
        """Build a word from a string of tokens.

        The string is split on whitespace; a whitespace-free string over a
        single-character alphabet is read letter by letter.
        """
        parts = text.split()
        if len(parts) == 1 and self.single_char and len(parts[0]) > 1:
            parts = list(parts[0])
        return tuple(self.index(tok) for tok in parts)

    def render(self, word: Word) -> str:
        sep = "" if self.single_char else " "
        return sep.join(self.letters[i] for i in word)

    def tokens(self, word: Word) -> tuple[str, ...]:
        return tuple(self.letters[i] for i in word)


def parikh_vector(word: Word, alphabet: Alphabet | int) -> tuple[int, ...]:
    """Occurrence count of every letter in ``word``, in alphabet order."""
    size = len(alphabet) if isinstance(alphabet, Alphabet) else alphabet
    counts = [0] * size
    for c in word:
        counts[c] += 1
    return tuple(counts)


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
        r = len(self.alphabet)
        for img in self.images:
            if any(not (0 <= c < r) for c in img):
                raise ValueError("image letter out of range")

    def __repr__(self):
        rules = ", ".join(
            f"{tok}->{self.alphabet.render(img)}" for tok, img in zip(self.alphabet.letters, self.images)
        )
        return f"Morphism({rules})"

    def image(self, letter: int) -> Word:
        return self.images[letter]

    @cached_property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(img) for img in self.images)

    @property
    def is_erasing(self) -> bool:
        return any(not img for img in self.images)

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

    def compose(self, inner: "Morphism") -> "Morphism":
        """self after inner: result(letter) = self(inner(letter))."""
        if inner.alphabet != self.alphabet:
            raise ValueError("cannot compose morphisms over different alphabets")
        return Morphism(self.alphabet, tuple(self.apply(img) for img in inner.images))

    def power(self, k: int) -> "Morphism":
        if k < 1:
            raise ValueError("power requires k >= 1")
        result = self
        for _ in range(k - 1):
            result = result.compose(self)
        return result

    @cached_property
    def mortal_letters(self) -> frozenset[int]:
        """Letters whose iterated image eventually becomes empty."""
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
        return any(c not in self.mortal_letters for c in img[1:])

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
        t = len(self.target)
        if any(not (0 <= c < t) for c in self.table):
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
        table = self.table
        return tuple([table[c] for c in word])

    def after(self, inner: "Coding") -> "Coding":
        """self composed after inner (inner's target feeds self's source)."""
        if tuple(inner.target.letters) != tuple(self.source.letters):
            raise ValueError("codings do not chain: alphabets differ")
        return Coding(inner.source, self.target, tuple(self.table[c] for c in inner.table))


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
        """First ``n`` letters of the fixed point, before any coding.

        Expansion is lazy: a single growing buffer is expanded in place,
        never materialising a full power of the morphism.  A list iterator
        also yields the letters appended to its list while it runs, so
        ``pending`` walks the letters still to expand.  Each step expands as
        many of them as cannot overshoot ``n`` (at least one), so the buffer
        never holds more than ``n`` plus the longest image.
        """
        if n <= 0:
            return ()
        m = self.morphism
        if not m.is_prolongable(self.seed):
            raise SpecError(
                f"seed {self.seed_token!r} is not prolongable; the spec has no infinite fixed point"
            )
        images = m.images
        longest = max(m.lengths)
        buf = list(images[self.seed])
        extend = buf.extend
        pending = iter(buf)
        next(pending)  # position 0 is the seed, whose image is the buffer
        while len(buf) < n:
            if not length_hint(pending):
                raise InternalCheckError("fixed-point expansion stalled")
            for letter in islice(pending, max(1, (n - len(buf)) // longest)):
                extend(images[letter])
        return tuple(buf[:n])

    def coded_prefix(self, n: int) -> Word:
        """First ``n`` output letters, as indices into the output alphabet."""
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
    def column_of(text: str) -> int | None:
        at = raw_line.find(text)
        return at + 1 if at >= 0 else None

    out: list[int] = []
    for chunk in rhs.split():
        if chunk in alphabet:
            out.append(alphabet.index(chunk))
        elif alphabet.single_char:
            for ch in chunk:
                if ch not in alphabet:
                    raise MorphParseError(f"undeclared letter {ch!r}", lineno, column_of(ch))
                out.append(alphabet.index(ch))
        else:
            raise MorphParseError(f"undeclared letter {chunk!r}", lineno, column_of(chunk))
    return tuple(out)


def parse_morphism(text: str) -> MorphicSpec:
    """Parse the ``.morph`` file format.

    Grammar (line oriented, ``#`` starts a comment)::

        letters: <tok> <tok> ...
        <tok> -> <image tokens>
        seed: <tok>                # optional
        coding: <tok>-><tok>, ...  # optional, total on the letters

    Image tokens are whitespace separated; when every letter is a single
    character they may also be written concatenated (``a -> aca``).  A
    missing seed defaults to the first letter with a prolongable rule, or
    failing that to the first letter.
    """
    alphabet: Alphabet | None = None
    rules: dict[int, Word] = {}
    rule_lines: dict[int, int] = {}
    seed_token: str | None = None
    seed_line: int | None = None
    coding_pairs: list[tuple[str, str]] | None = None
    coding_line: int | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("letters:"):
            if alphabet is not None:
                raise MorphParseError("duplicate letters declaration", lineno)
            toks = line[len("letters:"):].split()
            if not toks:
                raise MorphParseError("empty letters declaration", lineno)
            if len(set(toks)) != len(toks):
                raise MorphParseError("duplicate letter in declaration", lineno)
            alphabet = Alphabet(tuple(toks))
            continue
        if line.startswith("seed:"):
            if seed_token is not None:
                raise MorphParseError("duplicate seed declaration", lineno)
            parts = line[len("seed:"):].split()
            if len(parts) != 1:
                raise MorphParseError("seed wants exactly one letter", lineno)
            seed_token, seed_line = parts[0], lineno
            continue
        if line.startswith("coding:"):
            if coding_pairs is not None:
                raise MorphParseError("duplicate coding declaration", lineno)
            coding_pairs, coding_line = [], lineno
            body = line[len("coding:"):]
            for item in body.split(","):
                item = item.strip()
                if not item:
                    continue
                if "->" not in item:
                    raise MorphParseError(f"bad coding pair {item!r}", lineno)
                src, dst = (part.strip() for part in item.split("->", 1))
                if not src or not dst:
                    raise MorphParseError(f"bad coding pair {item!r}", lineno)
                coding_pairs.append((src, dst))
            continue
        if "->" in line:
            if alphabet is None:
                raise MorphParseError("rule before letters declaration", lineno)
            lhs, rhs = line.split("->", 1)
            lhs = lhs.strip()
            if lhs not in alphabet:
                raise MorphParseError(f"rule for undeclared letter {lhs!r}", lineno)
            idx = alphabet.index(lhs)
            if idx in rules:
                raise MorphParseError(
                    f"duplicate rule for {lhs!r} (first at line {rule_lines[idx]})", lineno
                )
            rules[idx] = _parse_image(rhs, alphabet, lineno, raw)
            rule_lines[idx] = lineno
            continue
        raise MorphParseError(f"unrecognised line {line!r}", lineno)

    if alphabet is None:
        raise MorphParseError("missing letters declaration")
    missing = [tok for i, tok in enumerate(alphabet.letters) if i not in rules]
    if missing:
        raise MorphParseError(f"missing rule for letter {missing[0]!r}")
    morphism = Morphism(alphabet, tuple(rules[i] for i in range(len(alphabet))))

    if seed_token is not None:
        if seed_token not in alphabet:
            raise MorphParseError(f"seed {seed_token!r} is not a declared letter", seed_line)
        seed = alphabet.index(seed_token)
    else:
        prolongable = morphism.prolongable_letters()
        seed = prolongable[0] if prolongable else 0

    coding = None
    if coding_pairs is not None:
        mapping: dict[str, str] = {}
        targets: list[str] = []
        for src, dst in coding_pairs:
            if src not in alphabet:
                raise MorphParseError(f"coding maps undeclared letter {src!r}", coding_line)
            if src in mapping:
                raise MorphParseError(f"coding maps {src!r} twice", coding_line)
            mapping[src] = dst
            if dst not in targets:
                targets.append(dst)
        absent = [tok for tok in alphabet.letters if tok not in mapping]
        if absent:
            raise MorphParseError(f"coding is missing letter {absent[0]!r}", coding_line)
        target = Alphabet(tuple(targets))
        table = tuple(target.index(mapping[tok]) for tok in alphabet.letters)
        coding = Coding(alphabet, target, table)

    return MorphicSpec(morphism, seed, coding)
