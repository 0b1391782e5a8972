"""Exact integer and rational linear algebra for nonnegative integer
matrices, given as sparse rows, such as the incidence matrix
``Morphism.incidence``: row i of an n x n matrix M holds a pair (j, m_ij)
for every nonzero entry, j ascending, and no pair for a zero entry.  Every
function here reads only these pairs, so none costs n^2 for a matrix with
few nonzeros.  A column index outside 0..n-1, a negative entry and a zero
pair are each a ValueError, raised by a scan that reads the pairs anyway.

Everything here is decided exactly, so no verdict ever depends on floating
point.  Characteristic polynomials come from the power sums tr(M^k) by
Newton's identities over Z (Le Verrier's method), each row of M^k packed
into one integer of fixed-width slots.  Whether the spectral radius is an
integer is read off chi alone: only the largest non-negative integer root
c can be it, and it is exactly when the Taylor coefficients of chi at c
after the zero ones, those of chi(x + c) / x^m for the multiplicity m, are
all positive.  A matrix is primitive when letter 0 reaches every letter
along the rows and along the columns and its breadth-first levels give
period 1; the same breadth-first sweep over bitmasks splits a matrix into
the strongly connected components of its support digraph.

Spectral-radius brackets come from Newton's method on the exact
characteristic polynomial chi of one irreducible block B, in scaled
integer arithmetic on a grid of step 2^-s; a caller with a reducible
matrix brackets each of its diagonal blocks.  Why every bracket holds:
  1. rho = rho(B) is a simple root of chi and every root has |lambda| <= rho
     (Perron-Frobenius; Horn-Johnson, Matrix Analysis, §8.4).
  2. No derivative of chi has a real root above rho (Gauss-Lucas), so chi
     is positive, increasing and convex on (rho, oo).
  3. A Newton step from u > rho therefore lands in [rho, u), and rounding
     it up onto the grid keeps it an upper bound.  The first u is the
     smaller of the largest row sum and the largest column sum, each of
     which is >= rho since rho(B) = rho(B^T), or, when lower, the first
     grid point strictly above chi's ``root_bound``: the Collatz-Wielandt
     bound from the column sums of B^(n-1) and B^n, which ``char_poly``
     reads off its last two powers.  Above, not at, since that bound is
     rho itself when L B = q L.
  4. A real t with chi(t) <= 0 is <= rho: by 2 if chi(t) < 0, and by 1 if
     t is a root.  So each proven lower end costs one evaluation.
  5. The larger of the smallest row sum and the smallest column sum is
     <= rho too, by the same transpose, and an iterate below it, or one
     where chi or chi' is not positive, is an internal error.
Steps 2-4 hold for any nonnegative matrix, reducible or not.  What
irreducibility adds is that rho is a simple root and that the start lies
strictly above it.  On a reducible block an iterate can land on rho,
where chi or chi' is 0, or creep towards a multiple root until the first
grid is too coarse for tol.  Only at those two places is the block split
into the components of its support digraph, and more than one is a
ValueError; a bracket that reaches neither holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, dropwhile, repeat, takewhile
from operator import and_, mul, not_, rshift


# ---------------------------------------------------------------------------
# matrices

def _bad_pair(j: int, m: int, n: int) -> ValueError:
    # the error for a pair (j, m) of an n x n matrix that some scan found
    # with m <= 0 or j outside 0..n-1
    if not 0 <= j < n:
        return ValueError(f"column index {j} outside 0..{n - 1}")
    if m < 0:
        return ValueError("matrix must be nonnegative")
    return ValueError("sparse rows hold no zero entry")


# ---------------------------------------------------------------------------
# characteristic polynomial and integer roots

@dataclass(frozen=True)
class IntPolynomial:
    """A monic polynomial with integer coefficients, leading term first.

    ``root_bound``, which ``char_poly`` fills in, is an upper bound on the
    spectral radius of the matrix the polynomial came from, or None for a
    matrix of two or more letters with a zero column.  It takes no part in
    equality, hashing or repr."""

    coeffs: tuple[int, ...]
    root_bound: Fraction | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    def __str__(self):
        return self._text

    @cached_property
    def _text(self) -> str:
        # rendered once: a verdict prints chi in its summary, its stage
        # detail and its report
        parts = []
        n = self.degree
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            power = n - i
            mag = abs(c)
            if power == 0:
                term = str(mag)
            elif power == 1:
                term = "x" if mag == 1 else f"{mag}*x"
            else:
                term = f"x^{power}" if mag == 1 else f"{mag}*x^{power}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"


def char_poly(rows) -> IntPolynomial:
    """det(xI - M), exactly over Z, from the power sums p_k = tr(M^k).

    Row i of M^k is kept as one integer whose W-bit slot j holds (M^k)_ij,
    W = bits(L^n) + 2 with L the largest column sum: (M^k)_ij <= ||M||_1^k
    <= L^n for k <= n, so a slot holds any entry.  The scan that sums the
    columns also checks every pair, so a negative entry, a zero pair or a
    column index outside 0..n-1 is a ValueError before any slot is sized.
    Row i of M^(k+1) is the sum of the rows of M^k named by the pairs of
    row i of M, unit entries added without a product.  The sum starts from
    its first term, not from 0, whose sum with it would copy a whole packed
    row, so a row of M with a single unit entry costs no big-integer
    operation; a zero row starts from row 0 times 0.  p_k is the sum of the
    diagonal slots.  Newton's identities then give k c_k = -(p_k + c_1
    p_(k-1) + ... + c_(k-1) p_1), and a division that leaves a remainder is
    an internal error.

    The result's ``root_bound`` is max_j (1^T M^n)_j / (1^T M^(n-1))_j,
    an upper bound on rho(M) by Collatz-Wielandt for the positive vector
    1^T M^(n-1) (Horn-Johnson, Matrix Analysis, §8.1).  The column sums
    1^T M^k are the sum of the packed rows of M^k, with no carry between
    slots, as they are at most L^n < 2^(W-2).  It is None when some column
    sum of M^(n-1) is 0, which for n >= 2 happens exactly when M has a
    zero column.
    """
    n = len(rows)
    col_sums = [0] * n
    for j, m in chain.from_iterable(rows):
        if m <= 0 or not 0 <= j < n:
            raise _bad_pair(j, m, n)
        col_sums[j] += m
    width = (max(col_sums, default=0) ** n).bit_length() + 2
    mask = (1 << width) - 1
    shifts = range(0, width * n, width)
    power = [sum(m << width * j for j, m in row) for row in rows]
    # each row's first nonzero (j0, m0) and the rest
    steps = [(row[0][0], row[0][1], row[1:]) if row else (0, 0, ()) for row in rows]
    before = ((1 << width * n) - 1) // mask  # 1 in every slot: 1^T M^0
    sums = []
    for k in range(n):
        sums.append(sum(map(and_, map(rshift, power, shifts), repeat(mask))))
        if k < n - 1:
            nxt = []
            for j0, m0, rest in steps:
                acc = power[j0] if m0 == 1 else power[j0] * m0
                for j, m in rest:
                    acc += power[j] if m == 1 else power[j] * m
                nxt.append(acc)
            if k == n - 2:
                before = sum(power)
            power = nxt
    coeffs = [1]
    for k in range(1, n + 1):
        c, rem = divmod(-sum(map(mul, coeffs, sums[k - 1 :: -1])), k)
        if rem:
            raise InternalArithmeticError(f"power sums fail Newton's identity at c_{k}")
        coeffs.append(c)
    return IntPolynomial(tuple(coeffs), _column_ratio_bound(sum(power), before, shifts, mask))


def _column_ratio_bound(after: int, before: int, shifts, mask: int) -> Fraction | None:
    # the largest slot ratio after_j / before_j, None if some before_j is 0
    p, q = 0, 1
    for shift in shifts:
        b = before >> shift & mask
        if not b:
            return None
        a = after >> shift & mask
        if a * q > p * b:
            p, q = a, b
    return Fraction(p, q)


class InternalArithmeticError(AssertionError):
    pass


def _deflate(coeffs: tuple[int, ...], root: int) -> tuple[tuple[int, ...], int]:
    # synthetic division by (x - root): the quotient and the remainder
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + root * out[-1])
    return tuple(out[:-1]), out[-1]


def _taylor(coeffs: tuple[int, ...], c: int):
    """The Taylor coefficients a_0, a_1, ..., a_n of a polynomial at c,
    p(x) = sum a_k (x - c)^k, lazily: a_k is the remainder of the
    (k + 1)-th synthetic division by (x - c), and at 0 the coefficient of
    x^k itself."""
    if not c:
        yield from reversed(coeffs)
        return
    while coeffs:
        coeffs, rem = _deflate(coeffs, c)
        yield rem


def integer_roots(p: IntPolynomial) -> tuple[tuple[int, int], ...]:
    """All integer roots with multiplicities.

    Rational roots of a monic integer polynomial are integers, so this is
    the full list of rational eigenvalues when ``p`` is a characteristic
    polynomial.  Candidates are 0 and the divisors of the lowest nonzero
    coefficient no larger than B = 2 * max_i 2^ceil(bits(c_i) / i), which
    bounds every root from above by Fujiwara's bound 2 * max_i |c_i|^(1/i).
    A root's multiplicity is the number of its leading zero Taylor
    coefficients.

    At most B divisors are tried, and B <= 8 n rho for degree n and largest
    root modulus rho, since |c_i| <= C(n, i) rho^i and 2^ceil(bits(c_i) / i)
    <= 4 |c_i|^(1/i).  An incidence matrix has rho <= its longest image, so
    on a characteristic polynomial the cost grows with the size of the
    ``.morph`` input, not exponentially in its bit length.
    """
    coeffs = p.coeffs
    # the nonzero roots are those of p / x^m, whose constant term is this
    const = abs(next(c for c in reversed(coeffs) if c))
    bound = 2 * max((1 << -(-abs(c).bit_length() // i) for i, c in enumerate(coeffs[1:], 1)),
                    default=0)
    candidates = {0}
    for d in range(1, min(bound, math.isqrt(const)) + 1):
        if const % d == 0:
            candidates |= {d, -d}
            if const // d <= bound:
                candidates |= {const // d, -(const // d)}
    # Horner's rule first: a candidate that is not a root is not expanded
    return tuple(sorted(
        (cand, sum(1 for _ in takewhile(not_, _taylor(coeffs, cand))))
        for cand in candidates if not p(cand)
    ))


# ---------------------------------------------------------------------------
# the support digraph: components and primitivity

def _support(rows) -> tuple[list[int], list[int]]:
    """Rows and columns of M as bitmasks, bit j of row i and bit i of
    column j set for every pair (j, m_ij), after checking the pair."""
    n = len(rows)
    masks, cols = [], [0] * n
    for i, row in enumerate(rows):
        mask, bit = 0, 1 << i
        for j, m in row:
            if m <= 0 or not 0 <= j < n:
                raise _bad_pair(j, m, n)
            mask |= 1 << j
            cols[j] |= bit
        masks.append(mask)
    return masks, cols


def _levels(masks, start: int, seen: int = 0) -> list[tuple[int, int]]:
    """Breadth-first sweep from ``start`` over successor bitmasks, never
    entering a letter of ``seen``: level t, the letters first reached in t
    steps, paired with its successors."""
    levels = []
    frontier = 1 << start
    seen |= frontier
    while frontier:
        succ, bits = 0, frontier
        while bits:
            low = bits & -bits
            succ |= masks[low.bit_length() - 1]
            bits ^= low
        levels.append((frontier, succ))
        frontier = succ & ~seen
        seen |= frontier
    return levels


def _reach(masks, start: int, seen: int = 0) -> int:
    return sum(level for level, _ in _levels(masks, start, seen))


def _strongly_connected_components(rows) -> list[list[int]]:
    # the component of v, the lowest letter not yet placed: the letters v
    # reaches along the rows that also reach v, found along the columns.
    # A path between two letters of one component stays inside it, so the
    # forward sweep skips the placed letters and the backward sweep keeps
    # to the letters the forward one reached
    r = len(rows)
    row_masks, col_masks = _support(rows)
    comps: list[list[int]] = []
    placed = 0
    for v in range(r):
        if not placed >> v & 1:
            comp = _reach(col_masks, v, ~_reach(row_masks, v, placed))
            placed |= comp
            comps.append([j for j in range(r) if comp >> j & 1])
    return comps


def is_primitive(rows) -> bool:
    """M is primitive iff it is irreducible with period 1 (Horn-Johnson §8.5).

    Irreducible: in the support digraph, with an edge u -> v when entry
    (u, v) is positive, letter 0 reaches every letter along the rows and
    along the columns.  The period is then the gcd of t + 1 - t' over the
    edges u -> v, u in level t and v in level t' of the breadth-first sweep
    from letter 0; all edges from level t into level t' give the same term,
    so the gcd runs over those level pairs, and stops once it is 1.
    ``_support`` checks the pairs as it reads them.
    """
    if not rows:
        return False
    row_masks, col_masks = _support(rows)
    levels, full = _levels(row_masks, 0), (1 << len(rows)) - 1
    if sum(level for level, _ in levels) != full or _reach(col_masks, 0) != full:
        return False
    terms = (t + 1 - t2 for t, (_, succ) in enumerate(levels)
             for t2, (level, _) in enumerate(levels[: t + 1]) if succ & level)
    return 1 in accumulate(terms, math.gcd)


# ---------------------------------------------------------------------------
# spectral radius bracketing

@dataclass(frozen=True)
class RadiusBracket:
    lo: Fraction
    hi: Fraction
    loose: bool = False

    def __contains__(self, value) -> bool:
        return self.lo <= value <= self.hi


_GRID_BITS = 32  # Newton starts on a grid no finer than 2^-32 ...
_MAX_GRID_BITS = 4096  # ... and a block still too wide on 2^-4096 is loose
_BRACKET_TOL = Fraction(1, 10**6)  # the width spectral_report asks for


def _scaled_values(scaled, a: int) -> tuple[int, int]:
    """2^(sn) chi(t) and 2^(s(n-1)) chi'(t) at t = a / 2^s, by Horner's
    rule on the coefficients c_k 2^(sk) of chi, leading term first."""
    p, d = 1, 0
    for c in scaled[1:]:
        d = d * a + p
        p = p * a + c
    return p, d


def _require_irreducible(block) -> None:
    # called only where a reducible block can show in the bracket
    if (k := len(_strongly_connected_components(block))) > 1:
        raise ValueError(f"radius_bracket needs an irreducible block, not one of {k} components")


def radius_bracket(block, tol, *, poly: IntPolynomial | None = None) -> RadiusBracket:
    """A rational interval of width <= tol containing the spectral radius
    rho of one irreducible block B, by Newton's method from above on
    chi = det(xI - B), ``poly`` if given.

    The row sums bound rho, min <= rho <= max, and so do the column sums,
    as rho(B) = rho(B^T); the one scan that sums both checks every pair of
    B.  The lower end starts at the larger of the two minima, and the
    bracket is pinned when the row sums or the column sums are all equal.
    Otherwise, on a grid of step 2^-s, the upper end a starts at the
    smaller of the two maxima or, if lower, at the first grid point
    strictly above chi's ``root_bound`` p/q, floor(2^s p / q) + 1.
    It then steps to a - P // Q, P and Q being chi and chi' at a scaled to
    integers: Newton's iterate, rounded up.  Once a step would move a by
    less than one grid step, a - 1 becomes the lower end if
    chi(a - 1) <= 0, and the grid is refined while the bracket is still
    wider than tol.

    A reducible block is a ValueError where it can show: at an iterate
    where chi or chi' is not positive, and at the first refinement of the
    grid.  Only there is B split into its strongly connected components,
    so a bracket that needs neither never splits it.  A reducible block
    that reaches neither gets a bracket that holds all the same, by steps
    2-4 of the module docstring.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    n = len(block)
    row_sums, col_sums = [], [0] * n
    for row in block:
        total = 0
        for j, m in row:
            if m <= 0 or not 0 <= j < n:
                raise _bad_pair(j, m, n)
            total += m
            col_sums[j] += m
        row_sums.append(total)
    low, high = max(min(row_sums), min(col_sums)), min(max(row_sums), max(col_sums))
    tn, td = tol.numerator, tol.denominator
    if (high - low) * td <= tn:
        return RadiusBracket(Fraction(low), Fraction(high))
    poly = char_poly(block) if poly is None else poly
    s_tol = (-(-td // tn) - 1).bit_length()  # the coarsest grid with 2^-s <= tol
    s = s_first = min(s_tol, _GRID_BITS)
    a, lo = high << s, low << s  # the ends of the bracket, in units of 2^-s
    if poly.root_bound is not None:
        # strictly above the bound, which is rho itself when L B = q L
        a = min(a, (poly.root_bound.numerator << s) // poly.root_bound.denominator + 1)
    scaled = [c << s * k for k, c in enumerate(poly.coeffs)]
    while True:
        if a < low << s:
            raise InternalArithmeticError(
                "Newton iterate left the row-sum bounds or the column-sum bounds of its block"
            )
        p, d = _scaled_values(scaled, a)
        if p <= 0 or d <= 0:
            _require_irreducible(block)
            raise InternalArithmeticError("Newton iterate is not above the Perron root")
        if p >= d:
            a -= p // d
            continue
        if lo < a - 1 and _scaled_values(scaled, a - 1)[0] <= 0:
            lo = a - 1
        if (a - lo) * td <= tn << s:
            return RadiusBracket(Fraction(lo, 1 << s), Fraction(a, 1 << s))
        if s >= _MAX_GRID_BITS:
            return RadiusBracket(Fraction(lo, 1 << s), Fraction(a, 1 << s), True)
        if s == s_first:
            _require_irreducible(block)
        extra = max(s, _GRID_BITS)
        s += extra
        a, lo = a << extra, lo << extra
        scaled = [c << extra * k for k, c in enumerate(scaled)]


# ---------------------------------------------------------------------------
# spectral report

@dataclass(frozen=True)
class SpectralReport:
    char_poly: IntPolynomial
    integer_roots: tuple[tuple[int, int], ...]
    bracket: RadiusBracket
    dominant_value: int | None

    @property
    def dominant_is_integer(self) -> bool:
        return self.dominant_value is not None

    def to_json(self) -> dict:
        return {
            "char_poly": str(self.char_poly),
            "coefficients": [str(c) for c in self.char_poly.coeffs],
            "integer_roots": [[root, mult] for root, mult in self.integer_roots],
            "radius_bracket": {
                "lo": str(self.bracket.lo),
                "hi": str(self.bracket.hi),
                "loose": self.bracket.loose,
            },
            "dominant_is_integer": self.dominant_is_integer,
            "dominant_value": self.dominant_value,
        }


def spectral_report(block) -> SpectralReport:
    """Decide exactly whether the spectral radius of one irreducible block
    is an integer.

    For a nonnegative matrix the radius rho is itself an eigenvalue, so if
    it is an integer it is the largest non-negative integer root c of chi,
    the characteristic polynomial.  Let m be the multiplicity of c; then
    rho = c exactly when every Taylor coefficient of chi at c after the m
    zero ones is positive:
      1. if rho = c, every other root lambda has |lambda| <= c and
         lambda != c, so Re(lambda - c) < 0, and chi(x + c) / x^m, whose
         roots are these lambda - c, is Hurwitz-stable: a real product of
         factors x + a and x^2 + bx + d with a, b, d > 0;
      2. if all those coefficients are positive, chi(x + c) has no root
         x > 0, so the real root rho is <= c, and rho >= c as c is an
         eigenvalue.
    The decision holds for any nonnegative matrix, and ``char_poly``
    checks that the pairs are those of one.  The bracket, which gets chi
    as ``poly``, is what needs the block irreducible: ``radius_bracket``
    raises ValueError where a reducible one shows.  A primitive matrix is
    one irreducible block.
    """
    p = char_poly(block)
    roots = integer_roots(p)
    bracket = radius_bracket(block, _BRACKET_TOL, poly=p)
    candidate = max((root for root, _ in roots if root >= 0), default=None)
    if candidate is None or any(a <= 0 for a in dropwhile(not_, _taylor(p.coeffs, candidate))):
        return SpectralReport(p, roots, bracket, None)
    if candidate not in bracket:
        raise InternalArithmeticError(f"integer radius {candidate} lies outside its bracket")
    return SpectralReport(p, roots, bracket, candidate)
