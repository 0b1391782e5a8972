"""Independent brute-force oracles used to freeze expected test values.

The oracles take dense matrices, tuples of rows of every entry; ``sparse``
and ``dense`` convert to and from the package's sparse rows, a pair
(j, m_ij) for every nonzero entry of row i.  Everything here is
deliberately naive and shares no code path with the package: token-level
string rewriting, the position-letter form of a uniform block morphism,
composition and powers of a ``Morphism`` by concatenating its images
and its restriction to an invariant subalphabet, cofactor-expansion
determinants, the Faddeev-LeVerrier recursion, primitivity from Boolean
matrix powers, set-based factor counting, strongly connected components
from set-based reachability and the diagonal blocks they cut out, the
spectral-radius bracket on dense rows,
Newton's bracket started from the row and column sums with chi evaluated
term by term, the sign of rho(B) - c from the leading principal minors
of cI - B, dense matrix products, the left-eigenvector check in
fractions, Perron vectors from a scan of the column-sum range
with rational kernels, and the paper's anagram method (which reads the
package's ``Morphism``) with the Parikh vectors it compares.  ``word``
reads text through the package's own ``Alphabet.split``, and the
comparisons of two generated words (``prefix_equal``, ``iso_equivalent`` and
``empirical_frequencies``) read the words through the package's own
``prefix`` and ``coded_prefix``.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from morphauto import Alphabet, InternalCheckError, Morphism, Word


def sparse(matrix):
    """Dense rows as sparse rows: row i holds (j, m_ij) for every nonzero
    m_ij, j ascending."""
    return tuple(tuple((j, m) for j, m in enumerate(row) if m) for row in matrix)


def dense(rows):
    """Sparse rows as the dense n x n matrix, n the number of rows."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, m in row:
            out[i][j] = m
    return tuple(map(tuple, out))


def naive_apply(rules: dict[str, list[str]], word: list[str]) -> list[str]:
    out: list[str] = []
    for tok in word:
        out.extend(rules[tok])
    return out


def naive_iterate(rules: dict[str, list[str]], seed: str, n: int) -> list[str]:
    """Fixed-point prefix by full rewriting until the prefix is long enough."""
    word = [seed]
    for _ in range(200):
        if len(word) >= n:
            return word[:n]
        nxt = naive_apply(rules, word)
        if nxt == word:
            raise AssertionError("oracle: word stopped growing")
        word = nxt
    raise AssertionError("oracle: prefix did not reach the requested length")


def rules_of(spec) -> dict[str, list[str]]:
    a = spec.morphism.alphabet
    return {
        tok: [a.letters[c] for c in img] for tok, img in zip(a.letters, spec.morphism.images)
    }


def word(alphabet: Alphabet, text: str) -> Word:
    """The word that ``text`` spells, its tokens read as a ``.morph`` image
    reads them (``Alphabet.split``)."""
    return tuple(alphabet.index(tok) for tok in alphabet.split(text))


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """outer after inner: letter -> outer(inner(letter)), by concatenating
    outer's images letter by letter."""
    if inner.alphabet != outer.alphabet:
        raise ValueError("cannot compose morphisms over different alphabets")
    images = outer.images
    return Morphism(outer.alphabet, tuple(tuple(c for i in img for c in images[i]) for img in inner.images))


def power(m: Morphism, k: int) -> Morphism:
    """m composed with itself k times, k >= 1."""
    if k < 1:
        raise ValueError("power requires k >= 1")
    result = m
    for _ in range(k - 1):
        result = compose(result, m)
    return result


def restrict(m: Morphism, letters) -> Morphism:
    """m on an invariant subalphabet, its letters in their order in m."""
    subset = sorted(set(letters))
    remap = {old: new for new, old in enumerate(subset)}
    images = []
    for old in subset:
        img = m.images[old]
        if any(c not in remap for c in img):
            raise ValueError("subalphabet is not closed under the morphism")
        images.append(tuple(remap[c] for c in img))
    return Morphism(Alphabet(tuple(m.alphabet.letters[old] for old in subset)), tuple(images))


def block_to_uniform(blk, coding: dict[str, str] | None = None):
    """The q-uniform morphism on the letters (B, j), j < k, of a q-uniform
    k-block morphism tau: (B, j) -> (tau(B)[(qj+t) div k], (qj+t) mod k)
    for t < q.  With y the fixed point of tau, its fixed point from
    (seed block, 0) is z[m] = (y[m div k], m mod k), so sending (B, j) to
    letter j of block B, then through ``coding``, gives the input back.

    Returns token-level rules, the seed token and the output of each letter.
    """
    k, images, letters = blk.k, blk.morphism.images, blk.source.alphabet.letters
    q = len(images[blk.seed_block])

    def name(b, j):
        return f"{b}.{j}"

    rules, output = {}, {}
    for b, block in enumerate(blk.blocks):
        assert len(images[b]) == q, "oracle: the block morphism is not uniform"
        for j in range(k):
            rules[name(b, j)] = [name(images[b][(q * j + t) // k], (q * j + t) % k) for t in range(q)]
            token = letters[block[j]]
            output[name(b, j)] = token if coding is None else coding[token]
    return rules, name(blk.seed_block, 0), output


# --- polynomials as ascending integer coefficient lists ---------------------

def _poly_add(p, q):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_neg(p):
    return [-c for c in p]


def _det_poly(mat):
    """Determinant of a matrix of polynomials, by cofactor expansion."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = [0]
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = _poly_mul(mat[0][j], _det_poly(minor))
        total = _poly_add(total, term if j % 2 == 0 else _poly_neg(term))
    return total


def naive_charpoly(matrix) -> list[int]:
    """det(xI - M), returned with the leading coefficient first."""
    n = len(matrix)
    entries = [
        [([-matrix[i][j], 1] if i == j else [-matrix[i][j]]) for j in range(n)]
        for i in range(n)
    ]
    asc = _det_poly(entries)
    return list(reversed(asc))


def faddeev_leverrier_charpoly(matrix) -> list[int]:
    """det(xI - M), leading coefficient first, by the Faddeev-LeVerrier
    recursion: A_1 = M, c_k = -tr(A_k) / k, A_(k+1) = M (A_k + c_k I)."""
    n = len(matrix)
    coeffs = [1]
    aux = [list(row) for row in matrix]
    for k in range(1, n + 1):
        trace = sum(aux[i][i] for i in range(n))
        assert trace % k == 0, "oracle: Faddeev-LeVerrier division failed"
        c = -(trace // k)
        coeffs.append(c)
        if k < n:
            shifted = [[aux[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
            aux = mat_mul(matrix, shifted)
    return coeffs


def naive_bool_power_positive(matrix, exponent: int) -> bool:
    n = len(matrix)
    a = [[matrix[i][j] > 0 for j in range(n)] for i in range(n)]
    acc = [[i == j for j in range(n)] for i in range(n)]
    for _ in range(exponent):
        acc = [
            [any(acc[i][t] and a[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return all(all(row) for row in acc)


def primitive_by_squaring(matrix) -> bool:
    """Primitivity by Wielandt's bound: a nonnegative n x n M is primitive
    iff some power of M is positive, and then every power from
    (n - 1)^2 + 1 on is (Horn-Johnson §8.5).  The 0/1 pattern of M is
    squared until its exponent reaches that bound, so a 64 x 64 matrix
    needs 12 dense products instead of 3970."""
    pattern = tuple(tuple(int(entry > 0) for entry in row) for row in matrix)
    exponent = 1
    while exponent < (len(matrix) - 1) ** 2 + 1:
        pattern = tuple(tuple(int(entry > 0) for entry in row) for row in mat_mul(pattern, pattern))
        exponent *= 2
    return bool(matrix) and all(map(all, pattern))


def naive_components(matrix) -> list[list[int]]:
    """Strongly connected components of the support digraph, with an edge
    i -> j when m_ij > 0: i and j share one when each reaches the other,
    found by growing a set of reached letters from every letter.  Listed
    by their lowest letter, each in increasing order."""
    n = len(matrix)
    succ = [{j for j in range(n) if matrix[i][j] > 0} for i in range(n)]
    reach = []
    for i in range(n):
        seen, todo = {i}, [i]
        while todo:
            new = succ[todo.pop()] - seen
            seen |= new
            todo.extend(new)
        reach.append(seen)
    comps: list[list[int]] = []
    for i in range(n):
        if not any(i in comp for comp in comps):
            comps.append(sorted(j for j in reach[i] if i in reach[j]))
    return comps


def _dense_blocks(matrix):
    """The irreducible diagonal blocks of a dense matrix, one per component
    of ``naive_components``, each in the component's order."""
    return [tuple(tuple(matrix[i][j] for j in comp) for i in comp) for comp in naive_components(matrix)]


def diagonal_blocks(rows):
    """``_dense_blocks`` of sparse rows, as sparse rows."""
    return [sparse(block) for block in _dense_blocks(dense(rows))]


def naive_factor_count(word, n: int) -> int:
    return len({tuple(word[i : i + n]) for i in range(len(word) - n + 1)})


def bisect_root(poly_desc, lo: float, hi: float, steps: int = 80) -> float:
    """Largest-root isolation helper: plain float bisection of a sign change."""

    def ev(x):
        acc = 0.0
        for c in poly_desc:
            acc = acc * x + c
        return acc

    flo = ev(lo)
    assert flo * ev(hi) <= 0, "oracle: no sign change in the bisection interval"
    for _ in range(steps):
        mid = (lo + hi) / 2
        if flo * ev(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = ev(lo)
    return (lo + hi) / 2


def golden_ratio_frequencies() -> tuple[Fraction, Fraction]:
    """High-precision rational approximations of (1/phi, 1 - 1/phi)."""
    # 1/phi = (sqrt(5) - 1) / 2; continued-fraction convergent F(39)/F(40)
    a, b = 1, 1
    for _ in range(38):
        a, b = b, a + b
    return Fraction(a, b), 1 - Fraction(a, b)


def _dense_round_up(rows, prec: int):
    shift = max(0, max(map(max, rows)).bit_length() - prec)
    if not shift:
        return rows
    return tuple(tuple(-(-entry >> shift) for entry in row) for row in rows)


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def left_eigencheck(vector, matrix) -> Fraction | None:
    """The rational lambda with ``vector @ matrix == lambda * vector``, or
    None when there is none.

    The vector must be strictly positive; for a nonnegative matrix any such
    eigenvalue is then the spectral radius.
    """
    if len(vector) != len(matrix):
        raise ValueError("dimension mismatch")
    if any(v <= 0 for v in vector):
        raise ValueError("left eigenvector check requires a positive vector")
    (product,) = mat_mul((vector,), matrix)
    lam = Fraction(product[0], vector[0])
    for vm, v in zip(product, vector):
        if Fraction(vm, v) != lam:
            return None
    return lam


# --- the paper's anagram method ---------------------------------------------
#
# Anagram blocks of degree d give L*M = d*L: every block u has |m(u)| = d*|u|
# (one shared Parikh vector), so |m(m(a))| = d*|m(a)| for every letter a.  The
# method is a special case of the left-eigenvector criterion and an independent
# reference for ``eigenvector_criterion``.

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


def parikh_vector(word: Word, size: int) -> tuple[int, ...]:
    """Occurrence count of every letter in ``word``, for an alphabet of
    ``size`` letters, in alphabet order."""
    counts = [0] * size
    for c in word:
        counts[c] += 1
    return tuple(counts)


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


def dense_irreducible_bracket(block, tol: Fraction, prec: int, max_squarings: int):
    """Collatz-Wielandt bounds min_i (Bx)_i / x_i <= rho(B) <= max_i (Bx)_i / x_i
    for an irreducible block B, on dense rows with Fraction bounds: x
    starts at all ones and is multiplied by P = B + I, P is squared every n
    steps, and x and every square are rounded up to ``prec`` bits.
    Returns (lo, hi, loose)."""
    n = len(block)
    power = tuple(
        tuple(entry + (i == j) for j, entry in enumerate(row)) for i, row in enumerate(block)
    )
    x = (1,) * n
    lo, hi = Fraction(0), None
    squarings = steps = 0
    while True:
        bx = [sum(map(mul, row, x)) for row in block]
        i_lo = i_hi = 0
        for i in range(1, n):
            if bx[i] * x[i_lo] < bx[i_lo] * x[i]:
                i_lo = i
            elif bx[i] * x[i_hi] > bx[i_hi] * x[i]:
                i_hi = i
        lo = max(lo, Fraction(bx[i_lo], x[i_lo]))
        top = Fraction(bx[i_hi], x[i_hi])
        hi = top if hi is None else min(hi, top)
        if hi - lo <= tol:
            return lo, hi, False
        steps += 1
        if steps % n == 0:
            if squarings >= max_squarings:
                return lo, hi, True
            power = _dense_round_up(mat_mul(power, power), prec)
            squarings += 1
        x = _dense_round_up((tuple(sum(map(mul, row, x)) for row in power),), prec)[0]


def _scaled_chi(coeffs, s: int, a: int) -> tuple[int, int]:
    # 2^(sn) chi(t) and 2^(s(n-1)) chi'(t) at t = a / 2^s, term by term
    n = len(coeffs) - 1
    value = sum(c * a ** (n - k) << s * k for k, c in enumerate(coeffs))
    slope = sum((n - k) * c * a ** (n - k - 1) << s * k for k, c in enumerate(coeffs[:-1]))
    return value, slope


def row_sum_start_bracket(block, tol: Fraction, coeffs, grid_bits: int, max_grid_bits: int):
    """Newton's bracket of rho(B) for an irreducible block B with
    characteristic polynomial ``coeffs``, started from the smaller of the
    largest row sum and the largest column sum.

    The lower end starts at the larger of the two smallest sums, and both
    ends are pinned when they are within tol.  On a grid of step 2^-s, s
    the smallest with 2^-s <= tol but at most ``grid_bits``, the upper end
    a steps to a - P // Q, P and Q being chi and chi' at a scaled to
    integers, while P >= Q; then a - 1 becomes the lower end if chi is not
    positive there, and the grid is refined by max(s, grid_bits) bits
    while the bracket is wider than tol, up to ``max_grid_bits``.  Returns
    (lo, hi, loose)."""
    row_sums = [sum(row) for row in block]
    col_sums = [sum(col) for col in zip(*block)]
    low = max(min(row_sums), min(col_sums))
    high = min(max(row_sums), max(col_sums))
    if high - low <= tol:
        return Fraction(low), Fraction(high), False
    s = 0
    while Fraction(1, 2**s) > tol and s < grid_bits:
        s += 1
    a, lo = high * 2**s, low * 2**s
    while True:
        value, slope = _scaled_chi(coeffs, s, a)
        assert value > 0 and slope > 0, "oracle: Newton iterate is not above the Perron root"
        if value >= slope:
            a -= value // slope
            continue
        if lo < a - 1 and _scaled_chi(coeffs, s, a - 1)[0] <= 0:
            lo = a - 1
        if Fraction(a - lo, 2**s) <= tol:
            return Fraction(lo, 2**s), Fraction(a, 2**s), False
        if s >= max_grid_bits:
            return Fraction(lo, 2**s), Fraction(a, 2**s), True
        extra = max(s, grid_bits)
        s, a, lo = s + extra, a * 2**extra, lo * 2**extra


def radius_sign(block, c: int) -> int:
    """The sign of rho(B) - c for an irreducible nonnegative block B.

    A = cI - B is a Z-matrix, and it is a nonsingular M-matrix (c > rho(B))
    exactly when its leading principal minors D_1..D_n are all positive
    (Berman-Plemmons, ch. 6).  D_k <= 0 for some k < n means c <= rho of a
    proper principal block, which is < rho(B) since B is irreducible.  With
    D_1..D_(n-1) > 0 the Schur complement of the leading block is strictly
    increasing in c and vanishes at rho(B), so D_n has the sign of c - rho(B).
    Bareiss elimination without pivoting produces the D_k as its pivots.
    """
    n = len(block)
    a = [[(c if i == j else 0) - block[i][j] for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        pivot = a[k][k]
        if pivot <= 0:
            return 1
        for row in a[k + 1 :]:
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - factor * a[k][j]) // prev
        prev = pivot
    last = a[n - 1][n - 1]
    return (last < 0) - (last > 0)


def integer_radius(matrix) -> int | None:
    """The spectral radius of a nonnegative matrix if it is an integer, else
    None.  rho lies between the smallest and the largest column sum, and
    rho = max rho(B) over the irreducible diagonal blocks B; the first c
    from the smallest column sum up with no block of radius above c, by
    ``radius_sign``, is the ceiling of rho."""
    n = len(matrix)
    blocks = _dense_blocks(matrix)
    sums = [sum(row[j] for row in matrix) for j in range(n)]
    for c in range(min(sums), max(sums) + 1):
        sign = max(radius_sign(block, c) for block in blocks)
        if sign <= 0:
            return c if sign == 0 else None
    raise AssertionError("oracle: the radius exceeds the largest column sum")


def _rational_kernel(rows) -> list[list[Fraction]]:
    """A basis of the right kernel of a square matrix, by Gauss-Jordan
    elimination over the rationals."""
    rows = [[Fraction(entry) for entry in row] for row in rows]
    n = len(rows)
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rows[i][free]
        basis.append(v)
    return basis


def column_sum_scan_perron(matrix) -> tuple[Fraction, ...] | None:
    """Normalized right Perron vector of a primitive matrix whose spectral
    radius is an integer, else None.

    rho lies between the smallest and the largest column sum.  Each integer
    q there is tried: by Perron-Frobenius only rho has a positive
    eigenvector, and its eigenspace is a line, so q = rho exactly when the
    kernel of M - qI is one-dimensional and spanned by a vector of one sign.
    """
    n = len(matrix)
    sums = [sum(row[j] for row in matrix) for j in range(n)]
    for q in range(min(sums), max(sums) + 1):
        shifted = [[matrix[i][j] - (q if i == j else 0) for j in range(n)] for i in range(n)]
        kernel = _rational_kernel(shifted)
        if len(kernel) == 1:
            total = sum(kernel[0])
            v = tuple(x / total for x in kernel[0]) if total else None
            if v is not None and all(x > 0 for x in v):
                return v
    return None


def prefix_equal(first, second, n: int) -> bool:
    """Whether two generators agree on their first n output letters.

    Accepts anything with a ``prefix(n) -> tuple[str, ...]`` method
    (morphic specs, uniform representations among them, block morphisms).
    """
    return first.prefix(n) == second.prefix(n)


def empirical_frequencies(spec, prefix_length: int) -> tuple[Fraction, ...]:
    """Letter counts over a coded prefix, divided by its length, in
    output-alphabet order."""
    if prefix_length < 1:
        raise ValueError("prefix length must be positive")
    word = spec.coded_prefix(prefix_length)
    return tuple(Fraction(word.count(i), prefix_length) for i in range(len(spec.output_alphabet)))


def iso_equivalent(u1, u2) -> dict[str, str] | None:
    """Letter bijection between two uniform representations, or None.

    Synchronized breadth-first traversal from both seeds, matching images
    position by position and coding outputs token by token.  Both alphabets
    must be fully reachable from their seeds (minimize first if unsure).
    """
    if u1.q != u2.q:
        return None
    if set(u1.coding.target.letters) != set(u2.coding.target.letters):
        return None
    if len(u1.morphism.alphabet) != len(u2.morphism.alphabet):
        return None
    out1, out2 = u1.coding.target.letters, u2.coding.target.letters
    forward = {u1.seed: u2.seed}
    used = {u2.seed}
    queue = [u1.seed]
    while queue:
        x = queue.pop(0)
        y = forward[x]
        if out1[u1.coding.table[x]] != out2[u2.coding.table[y]]:
            return None
        for a, b in zip(u1.morphism.image(x), u2.morphism.image(y)):
            if a in forward:
                if forward[a] != b:
                    return None
            else:
                if b in used:
                    return None
                forward[a] = b
                used.add(b)
                queue.append(a)
    if len(forward) != len(u1.morphism.alphabet):
        return None
    return {
        u1.morphism.alphabet.letters[a]: u2.morphism.alphabet.letters[b]
        for a, b in forward.items()
    }
