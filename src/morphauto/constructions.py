"""Certificate-producing constructions.

* eigenvector_criterion / reshuffle_uniformize: the left-eigenvector test,
  |m(m(a))| = q |m(a)| for every letter a, and the certificate of a spec
  that passes it (a UniformRepresentation: a uniform MorphicSpec, coded
  onto the spec's output alphabet).
* minimize_uniform: merge indistinguishable letters of such a certificate.
* block_morphism: induce a morphism on the non-overlapping k-blocks of a
  fixed point.
* cup_transform: rewrite a uniform representation into a deliberately
  non-uniform one by splitting one pair of letters; verify_back checks that
  the length vector of the result is still a left eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .words import (
    Alphabet,
    Coding,
    InternalCheckError,
    Morphism,
    MorphicSpec,
    SpecError,
    Word,
)


class CriterionNotSatisfied(ValueError):
    """The left-eigenvector criterion does not hold for this morphism."""


@dataclass(frozen=True)
class UniformRepresentation(MorphicSpec):
    """A morphic spec with a uniform morphism and a given coding: a
    certificate whose coded fixed point is the sequence it certifies."""

    coding: Coding

    def __post_init__(self):
        super().__post_init__()
        if self.coding is None:
            raise ValueError("a uniform representation needs a coding")
        if self.morphism.uniform_length is None or self.morphism.uniform_length < 1:
            raise ValueError("representation morphism must be uniform")

    @property
    def q(self) -> int:
        return self.morphism.uniform_length


def representation_from_spec(spec: MorphicSpec) -> UniformRepresentation:
    """View a parsed spec as a uniform representation (identity coding when
    the spec carries none)."""
    coding = spec.coding if spec.coding is not None else Coding.identity(spec.morphism.alphabet)
    return UniformRepresentation(morphism=spec.morphism, seed=spec.seed, coding=coding)


# ---------------------------------------------------------------------------
# the left-eigenvector criterion and its uniform certificate

def _length_products(m: Morphism):
    """The entries of L*M for the length vector L and incidence matrix M of
    m, one at a time: entry j is |m(m(j))|, the sum of |m(c)| over the
    letters c of m(j)."""
    lengths = m.lengths
    return (sum(map(lengths.__getitem__, img)) for img in m.images)


def length_product(m: Morphism) -> tuple[int, ...]:
    """L*M, read off the images."""
    return tuple(_length_products(m))


def verify_back(m: Morphism) -> Fraction | None:
    """lambda when the left-eigenvector identity L M = lambda L holds, with
    L M read off the images, else None; an erasing morphism fails, as its L
    is not positive.  The entries of L M are summed only up to the first
    one that breaks the identity.  On the morphism of a
    :func:`cup_transform` output, lambda is the uniform length it came
    from."""
    if m.is_erasing:
        return None
    lengths, products = m.lengths, _length_products(m)
    first = next(products)
    if any(p * lengths[0] != first * n for p, n in zip(products, lengths[1:])):
        return None
    return Fraction(first, lengths[0])


def eigenvector_criterion(m: Morphism) -> int | None:
    """Return q >= 2 when the length vector is a left eigenvector of the
    incidence matrix with eigenvalue q (|m(m(a))| = q |m(a)| for every
    letter a); the fixed points are then q-automatic.  None otherwise."""
    if m.is_erasing:
        raise ValueError("eigenvector criterion requires a non-erasing morphism")
    lam = verify_back(m)
    if lam is None:
        return None
    if lam.denominator != 1:
        # a positive integer eigenvector of an integer matrix forces an
        # integer eigenvalue; anything else is a bug worth failing loudly on
        raise InternalCheckError(f"non-integer eigenvalue {lam} for integer data")
    q = int(lam)
    return q if q >= 2 else None


def reshuffle_uniformize(spec: MorphicSpec) -> UniformRepresentation:
    """Build the uniform certificate of a spec whose morphism m passes the
    left-eigenvector criterion.

    Every letter i is split into position letters (i, j) for j = 1..|m(i)|.
    Expanding each letter of m(i) into its full run of position letters
    yields a word E_i of length exactly q * |m(i)|; the new morphism sends
    (i, j) to the j-th consecutive q-slice of E_i.  The coding sends (i, j)
    to the spec's output letter for the j-th letter of m(i), so the coded
    fixed point reproduces the spec's coded fixed point letter for letter.
    """
    m, seed = spec.morphism, spec.seed
    if m.is_erasing:
        raise CriterionNotSatisfied("reshuffle requires a non-erasing morphism")
    if not m.is_prolongable(seed):
        raise SpecError("seed is not prolongable")
    q = eigenvector_criterion(m)
    if q is None:
        raise CriterionNotSatisfied("length vector is not a left eigenvector")
    letters, lengths = m.alphabet.letters, m.lengths
    names = tuple(f"{tok}.{j}" for tok, n in zip(letters, lengths) for j in range(1, n + 1))
    if len(set(names)) != len(names):
        raise InternalCheckError("expanded letter names collide")
    alpha = Alphabet(names)
    first = [0]  # first[i]: the position letter (i, 1)
    for n in lengths:
        first.append(first[-1] + n)
    runs = [range(f, f + n) for f, n in zip(first, lengths)]  # i -> its position letters
    output = spec.coding.table if spec.coding is not None else range(len(letters))

    images: list[Word] = []
    for i, img in enumerate(m.images):
        expanded = list(chain.from_iterable(map(runs.__getitem__, img)))
        if len(expanded) != q * lengths[i]:
            raise InternalCheckError("expansion length disagrees with the eigenvalue")
        images.extend(zip(*[iter(expanded)] * q))  # its consecutive q-slices
    table = [output[c] for img in m.images for c in img]

    rep = UniformRepresentation(
        morphism=Morphism(alpha, tuple(images)),
        seed=first[seed],
        coding=Coding(alpha, spec.output_alphabet, tuple(table)),
    )
    if not rep.morphism.is_prolongable(rep.seed):
        raise InternalCheckError("reshuffled seed lost prolongability")
    return rep


# ---------------------------------------------------------------------------
# minimization (Moore-style partition refinement on the reachable part)

def minimize_uniform(u: UniformRepresentation) -> UniformRepresentation:
    """Coarsest merge of letters that agree on coding output and, position
    by position, on the classes of their images.  The coded fixed point is
    unchanged; the result is a fixpoint of the construction."""
    m, coding = u.morphism, u.coding
    order = m.closure((u.seed,))

    def renumber(keys):
        # the letter order[i] gets the first-seen rank of keys[i]
        fresh: dict = {}
        return {letter: fresh.setdefault(k, len(fresh)) for letter, k in zip(order, keys)}

    classes = renumber([coding.table[letter] for letter in order])
    while True:
        refined = renumber(
            [(classes[letter], *map(classes.__getitem__, m.images[letter])) for letter in order]
        )
        if refined == classes:
            break
        classes = refined

    count = len(set(classes.values()))
    reps = [None] * count
    for letter in order:
        c = classes[letter]
        if reps[c] is None:
            reps[c] = letter
    letters = m.alphabet.letters
    alpha = Alphabet(tuple([letters[rep] for rep in reps]))
    images = tuple(tuple(map(classes.__getitem__, m.images[rep])) for rep in reps)
    table = tuple([coding.table[rep] for rep in reps])
    return UniformRepresentation(
        morphism=Morphism(alpha, images),
        seed=classes[u.seed],
        coding=Coding(alpha, coding.target, table),
    )


# ---------------------------------------------------------------------------
# non-overlapping k-block morphisms

class BlockConstructionError(ValueError):
    def __init__(self, message: str, block: str | None = None):
        self.block = block
        super().__init__(message)


@dataclass(frozen=True)
class BlockMorphism:
    """The induced morphism on k-blocks read at positions 0 mod k."""

    k: int
    morphism: Morphism          # over the block alphabet
    blocks: tuple[Word, ...]    # block letter -> its k source letters
    seed_block: int
    source: Morphism

    def flatten_prefix(self, n: int) -> Word:
        """First n letters of the flattened block fixed point, in the format
        of the source alphabet (``bytes`` up to 256 letters).

        Letter j of every block is one coding of the block word, the
        block -> j-th letter table, written to every k-th letter of the
        output: a packed block word is coded by one byte translation.
        (``bytes.join`` of the blocks would keep an 80-byte record per
        block.)"""
        k, source = self.k, self.source.alphabet
        block_word = MorphicSpec(self.morphism, self.seed_block).uncoded_prefix(-(-n // k))
        out = bytearray(k * len(block_word)) if source.packed else [0] * (k * len(block_word))
        for j in range(k):
            lane = Coding(self.morphism.alphabet, source, tuple(b[j] for b in self.blocks))
            out[j::k] = lane.apply(block_word)
        del out[n:]
        return bytes(out) if source.packed else tuple(out)


def _block_token(alphabet: Alphabet, block: Word) -> str:
    sep = "" if alphabet.single_char else "+"
    return sep.join([alphabet.letters[c] for c in block])


_MAX_BLOCKS = 20_000  # the closure bound on distinct blocks
_SHOWN_LETTERS = 16  # a longer block is named by its first letters and length


def block_morphism(spec: MorphicSpec, k: int, prefix: Word | None = None) -> BlockMorphism:
    """Discover the k-blocks at positions 0 mod k of the fixed point.

    Closure: start from the first k letters; for every discovered block b
    the image of b must cut evenly into k-blocks, which are discovered in
    turn.  Raises BlockConstructionError when an image length is not a
    multiple of k or the closure exceeds ``_MAX_BLOCKS`` blocks.

    ``prefix``, when given, is a prefix of ``spec.uncoded_prefix`` at least
    k letters long, from which the first block is read: the block stage
    expands the fixed point once for every k it tries.  Without it the
    first k letters are expanded here.
    """
    if k < 2:
        raise ValueError("block length must be at least 2")
    m = spec.morphism
    if prefix is None:
        prefix = spec.uncoded_prefix(k)
    seed_block = tuple(prefix[:k])  # block keys are tuples, like Morphism.apply's
    blocks: dict[Word, int] = {seed_block: 0}
    order: list[Word] = [seed_block]
    images: list[Word] = []
    for block in order:  # visits the blocks appended below too
        img = m.apply(block)
        if len(img) % k:
            token = _block_token(m.alphabet, block)
            name = repr(token)
            if len(block) > _SHOWN_LETTERS:
                shown = _block_token(m.alphabet, block[:_SHOWN_LETTERS]) + "…"
                name = f"{shown!r} ({len(block)} letters)"
            raise BlockConstructionError(
                f"image of block {name} has length {len(img)}, not a multiple of {k}", token
            )
        row = []
        for start in range(0, len(img), k):
            piece = img[start : start + k]
            if piece not in blocks:
                if len(blocks) >= _MAX_BLOCKS:
                    raise BlockConstructionError("block closure exceeded its bound")
                blocks[piece] = len(order)
                order.append(piece)
            row.append(blocks[piece])
        images.append(tuple(row))
    # blocks that render alike, as (a+b, c) and (a, b+c) do, get primes
    tokens: dict[str, None] = {}
    for b in order:
        tokens[_fresh_token(tokens, _block_token(m.alphabet, b))] = None
    alpha = Alphabet(tuple(tokens))
    return BlockMorphism(
        k=k,
        morphism=Morphism(alpha, tuple(images)),
        blocks=tuple(order),
        seed_block=0,
        source=m,
    )


# ---------------------------------------------------------------------------
# CUP transform: uniform -> deliberately non-uniform, and the way back

def _fresh_token(taken, base: str) -> str:
    tok = base
    while tok in taken:
        tok += "'"
    return tok


_CUP_CHECK_DEPTH = 512  # letters of the fixed point compared after the rewrite


def cup_transform(
    u: UniformRepresentation, pair_position: int = 1, split_index: int = 1
) -> MorphicSpec:
    """Represent the fixed point of a uniform morphism non-uniformly.

    Two fresh letters b', c' replace one occurrence of the pair b c inside
    the seed's image; b' expands to z and c' to t where z t is the image of
    b c.  Projecting b' -> b, c' -> c recovers the original fixed point,
    which is verified on a prefix before returning.  ``pair_position`` p
    picks the pair at positions p, p+1 of the seed's image (p >= 1 keeps
    the seed prolongable); ``split_index`` s cuts the image of that pair
    into non-empty halves z, t with |z| = s.

    Only uncoded representations are supported; the construction certifies
    the fixed point itself, not a coded image of it.
    """
    if not u.coding.is_identity:
        raise ValueError("cup transform requires an uncoded uniform representation")
    k = u.q
    p, s = pair_position, split_index
    if not 1 <= p <= k - 2:
        raise ValueError(f"pair position must lie in [1, {k - 2}]")
    if not 1 <= s <= 2 * k - 1:
        raise ValueError("split index must leave both halves non-empty")

    seed_img = u.morphism.image(u.seed)
    b, c = seed_img[p], seed_img[p + 1]
    letters = u.morphism.alphabet.letters
    b_tok = _fresh_token(letters, letters[b] + "'")
    c_tok = _fresh_token(letters + (b_tok,), letters[c] + "'")
    alpha = Alphabet(letters + (b_tok, c_tok))
    b_new, c_new = len(letters), len(letters) + 1

    pair_image = u.morphism.image(b) + u.morphism.image(c)
    z, t = pair_image[:s], pair_image[s:]
    images = list(u.morphism.images)
    images[u.seed] = seed_img[:p] + (b_new, c_new) + seed_img[p + 2 :]
    images.extend([z, t])

    projection = Coding(
        alpha, u.morphism.alphabet, tuple(range(len(letters))) + (b, c)
    )
    spec = MorphicSpec(Morphism(alpha, tuple(images)), u.seed, projection)
    if spec.prefix(_CUP_CHECK_DEPTH) != u.prefix(_CUP_CHECK_DEPTH):
        raise InternalCheckError("cup transform changed the coded fixed point")
    return spec
