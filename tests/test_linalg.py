import itertools
import random
from fractions import Fraction

import pytest

from morphauto import (
    IncidenceData,
    IntPolynomial,
    char_poly,
    incidence,
    integer_roots,
    is_primitive,
    left_eigencheck,
    parse_morphism,
    perron_frequencies,
    radius_bracket,
    spectral_report,
)
from morphauto import linalg
from morphauto.linalg import (
    _MAX_SQUARINGS,
    _PREC,
    InternalArithmeticError,
    _irreducible_bracket,
    _radius_sign,
    _strongly_connected_components,
)

from oracles import (
    bisect_root,
    column_sum_scan_perron,
    dense_irreducible_bracket,
    faddeev_leverrier_charpoly,
    naive_bool_power_positive,
    naive_charpoly,
)


class TestIncidence:
    def test_istrail(self, istrail):
        data = incidence(istrail.morphism)
        assert data.length_vector == (2, 3, 1)
        cols = [tuple(row[j] for row in data.matrix) for j in range(3)]
        assert cols[0] == (0, 1, 1)
        assert cols[1] == (1, 1, 1)
        assert cols[2] == (1, 0, 0)

    def test_identity_morphism(self):
        m = parse_morphism("letters: a b c\na -> a\nb -> b\nc -> c").morphism
        data = incidence(m)
        assert data.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert data.length_vector == (1, 1, 1)

    def test_lysenok(self, lysenok):
        data = incidence(lysenok.morphism)
        assert data.length_vector == (3, 1, 1, 1)
        cols = [tuple(row[j] for row in data.matrix) for j in range(4)]
        assert cols == [(2, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)]

    def test_column_sums_are_lengths(self, acaba, grig_aca_aba, xzy):
        for spec in (acaba, grig_aca_aba, xzy):
            data = incidence(spec.morphism)
            ones = (1,) * data.dim
            sums = tuple(
                sum(ones[i] * data.matrix[i][j] for i in range(data.dim))
                for j in range(data.dim)
            )
            assert sums == data.length_vector


class TestCharPoly:
    def test_grig_aca_aba_quartic(self, grig_aca_aba):
        p = char_poly(incidence(grig_aca_aba.morphism).matrix)
        assert p.coeffs == (1, -2, -2, -1, 2)
        assert str(p) == "x^4 - 2*x^3 - 2*x^2 - x + 2"

    def test_xzy_cubic(self, xzy):
        p = char_poly(incidence(xzy.morphism).matrix)
        assert p.coeffs == (1, -1, -2, -4)

    def test_zero_matrix(self):
        assert char_poly(((0, 0), (0, 0))).coeffs == (1, 0, 0)

    def test_against_cofactor_oracle(self, istrail, lysenok, acaba, grig_aca_aba, xzy):
        for spec in (istrail, lysenok, acaba, grig_aca_aba, xzy):
            m = incidence(spec.morphism).matrix
            assert list(char_poly(m).coeffs) == naive_charpoly(m)

    def test_cube_attribution(self):
        # the polynomial x^3 - 7x^2 + 12x - 8 belongs to the incidence matrix
        # of the CUBE of a->c, b->aba, c->b, not to the matrix itself
        base = parse_morphism("letters: a b c\na -> c\nb -> aba\nc -> b").morphism
        assert char_poly(incidence(base).matrix).coeffs == (1, -1, 0, -2)
        cubed = incidence(base.power(3)).matrix
        assert char_poly(cubed).coeffs == (1, -7, 12, -8)
        assert list(char_poly(cubed).coeffs) == naive_charpoly(cubed)

    def test_against_faddeev_leverrier(self):
        # signed entries, so the lift must produce negative and positive
        # coefficients; the 2^200 entries need several primes of the table
        rng = random.Random(31337)
        for n, span in [(1, 5), (2, 5), (3, 9), (5, 3), (8, 2**200), (13, 4), (21, 3), (32, 2)]:
            for _ in range(3):
                m = tuple(tuple(rng.randint(-span, span) for _ in range(n)) for _ in range(n))
                assert list(char_poly(m).coeffs) == faddeev_leverrier_charpoly(m)

    def test_singular_and_hessenberg_shapes(self):
        # zero columns below the diagonal make the Hessenberg reduction skip
        # steps; a nilpotent shift and a repeated row make it hit zero pivots
        shift = tuple(tuple(int(j == i + 1) for j in range(6)) for i in range(6))
        assert char_poly(shift).coeffs == (1, 0, 0, 0, 0, 0, 0)
        for m in (((1, 2, 3), (1, 2, 3), (4, 5, 6)), ((0, 0, 7), (0, 0, 0), (1, 0, 0))):
            assert list(char_poly(m).coeffs) == naive_charpoly(m)

    def test_hadamard_bound_reached_exactly(self):
        # 2^14 H_4 (Sylvester) has columns of norm 2^15 and determinant
        # (2^15)^4 = 2^60, Hadamard's bound itself; 2 (1 + 2^15)^4 exceeds
        # the first prime 2^61 - 1, and without the factor 2 that prime
        # alone would lift c_4 to -(2^60 - 1)
        h2 = ((1, 1), (1, -1))
        h4 = tuple(tuple(a * b for a in ra for b in rb) for ra in h2 for rb in h2)
        m = tuple(tuple(2**14 * entry for entry in row) for row in h4)
        coeffs = char_poly(m).coeffs
        assert coeffs[4] == 2**60
        assert list(coeffs) == faddeev_leverrier_charpoly(m)

    def test_four_ones_per_column_take_one_prime(self, monkeypatch):
        # columns of norm 2 bound |c_k| by 3^32 < 2^51, so the first prime
        # 2^61 - 1 suffices; the column-sum bound 5^32 needed two
        rng = random.Random(1032)
        cols = [rng.sample(range(32), 4) for _ in range(32)]
        m = tuple(tuple(int(i in cols[j]) for j in range(32)) for i in range(32))
        primes = []
        real = linalg._char_poly_mod

        def counted(matrix, p):
            primes.append(p)
            return real(matrix, p)

        monkeypatch.setattr(linalg, "_char_poly_mod", counted)
        assert list(char_poly(m).coeffs) == faddeev_leverrier_charpoly(m)
        assert primes == [2**61 - 1]

    def test_bound_beyond_the_prime_table_raises(self):
        # |c_1| <= 2^200000 needs more bits than the whole prime table holds
        with pytest.raises(InternalArithmeticError, match="bound"):
            char_poly(((2**200000, 0), (0, 1)))


class TestIntegerRoots:
    def test_grig_aca_aba_has_none(self, grig_aca_aba):
        p = char_poly(incidence(grig_aca_aba.morphism).matrix)
        assert integer_roots(p) == ()

    def test_double_root(self):
        assert integer_roots(IntPolynomial((1, -4, 4))) == ((2, 2),)

    def test_cube_polynomial_has_none(self):
        p = IntPolynomial((1, -7, 12, -8))
        assert p(1) == -2 and p(2) == -4 and p(4) == -8
        assert integer_roots(p) == ()

    def test_zero_root_multiplicity(self):
        assert integer_roots(IntPolynomial((1, -3, 0, 0))) == ((0, 2), (3, 1))

    def test_xzy_has_none(self, xzy):
        p = char_poly(incidence(xzy.morphism).matrix)
        assert integer_roots(p) == ()

    def test_huge_constant_term(self):
        # (x - 2)^50 (x + 3)^5 (x - 7) (x^2 - x - 1): trial division up to
        # sqrt|c_0| would take ~2^31 steps; the root bound keeps it to a few
        coeffs = [1]
        for factor in [(1, -2)] * 50 + [(1, 3)] * 5 + [(1, -7), (1, -1, -1)]:
            out = [0] * (len(coeffs) + len(factor) - 1)
            for i, a in enumerate(coeffs):
                for j, b in enumerate(factor):
                    out[i + j] += a * b
            coeffs = out
        p = IntPolynomial(tuple(coeffs))
        assert abs(p.coeffs[-1]) >= 2**60
        assert integer_roots(p) == ((-3, 5), (2, 50), (7, 1))


class TestLeftEigencheck:
    def test_istrail(self, istrail):
        data = incidence(istrail.morphism)
        assert left_eigencheck(data.length_vector, data.matrix) == 2

    def test_lysenok_fails(self, lysenok):
        data = incidence(lysenok.morphism)
        assert left_eigencheck(data.length_vector, data.matrix) is None

    def test_all_ones_on_uniform(self, tm_cube):
        data = incidence(tm_cube.morphism)
        assert left_eigencheck((1, 1), data.matrix) == 8

    def test_requires_positive_vector(self, istrail):
        data = incidence(istrail.morphism)
        with pytest.raises(ValueError):
            left_eigencheck((2, 0, 1), data.matrix)

    def test_eigenvalue_lies_in_every_bracket(self, istrail, anagram7):
        for spec in (istrail, anagram7):
            data = incidence(spec.morphism)
            lam = left_eigencheck(data.length_vector, data.matrix)
            for tol in (Fraction(1, 10), Fraction(1, 10**4), Fraction(1, 10**8)):
                assert lam in radius_bracket(data.matrix, tol)


class TestPrimitivity:
    def test_acaba_is_primitive(self, acaba):
        assert is_primitive(incidence(acaba.morphism).matrix)

    def test_identity_is_not(self):
        assert not is_primitive(((1, 0), (0, 1)))

    def test_lysenok_is_not(self, lysenok):
        m = incidence(lysenok.morphism).matrix
        assert not is_primitive(m)
        assert not naive_bool_power_positive(m, 12)

    def test_against_oracle_exponent(self, grig_aca_aba, xzy, fibonacci):
        for spec in (grig_aca_aba, xzy, fibonacci):
            m = incidence(spec.morphism).matrix
            r = len(m)
            assert is_primitive(m) == naive_bool_power_positive(m, r * r - 2 * r + 2)

    def test_scalar(self):
        assert is_primitive(((5,),))
        assert not is_primitive(((0,),))

    def test_random_against_oracle_exponent(self):
        rng = random.Random(2718)
        for _ in range(300):
            r = rng.randint(1, 6)
            m = tuple(tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(r)) for _ in range(r))
            assert is_primitive(m) == naive_bool_power_positive(m, r * r - 2 * r + 2)


def _from_edges(r, edges):
    """The 0/1 matrix with entry (u, v) set for every edge u -> v."""
    return tuple(tuple(int((u, v) in edges) for v in range(r)) for u in range(r))


def _wielandt(m):
    r = len(m)
    return naive_bool_power_positive(m, r * r - 2 * r + 2)


class TestPrimitivityByPeriod:
    @pytest.mark.parametrize("a, b, primitive", [(2, 4, False), (2, 3, True), (3, 6, False), (4, 5, True)])
    def test_two_cycles_through_letter_zero(self, a, b, primitive):
        # cycles of lengths a and b that share letter 0 have period gcd(a, b)
        r = a + b - 1
        first = [0, *range(1, a)]
        second = [0, *range(a, r)]
        edges = {(c[i], c[(i + 1) % len(c)]) for c in (first, second) for i in range(len(c))}
        rng = random.Random(a * 100 + b)
        for perm in [list(range(r))] + [_shuffled(rng, r) for _ in range(4)]:
            m = _from_edges(r, {(perm[u], perm[v]) for u, v in edges})
            assert is_primitive(m) == _wielandt(m) == primitive

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7, 8, 12, 16, 32])
    @pytest.mark.parametrize("loop", [False, True])
    def test_cycle_with_and_without_a_self_loop(self, r, loop):
        # an r-cycle has period r; one self-loop makes it primitive
        edges = {(i, (i + 1) % r) for i in range(r)} | ({(r // 2, r // 2)} if loop else set())
        m = _from_edges(r, edges)
        assert is_primitive(m) == _wielandt(m) == loop

    def test_reducible_with_a_primitive_component_reachable_from_zero(self):
        # letter 0 has a self-loop and leads into the primitive component
        # {1, 2, 3}, but nothing leads back: every level gap has gcd 1, yet
        # the matrix is reducible
        m = _from_edges(4, {(0, 0), (0, 1), (1, 2), (2, 3), (3, 1), (2, 1)})
        assert is_primitive(m) == _wielandt(m) is False


class TestRadiusBracket:
    def test_tm_cube_is_exact(self, tm_cube):
        br = radius_bracket(incidence(tm_cube.morphism).matrix, Fraction(1, 10**6))
        assert br.lo == br.hi == 8
        assert not br.loose

    def test_scalar_matrix(self):
        br = radius_bracket(((5,),), Fraction(1, 100))
        assert (br.lo, br.hi) == (5, 5)

    def test_grig_aca_aba_contains_perron_root(self, grig_aca_aba):
        # oracle: float bisection of x^4 - 2x^3 - 2x^2 - x + 2 on (2.5, 3)
        root = bisect_root([1, -2, -2, -1, 2], 2.5, 3.0)
        assert abs(root - 2.76062) < 1e-4
        br = radius_bracket(incidence(grig_aca_aba.morphism).matrix, Fraction(1, 10**6))
        assert br.width <= Fraction(1, 10**6)
        assert br.lo <= Fraction(root).limit_denominator(10**12) <= br.hi

    def test_reducible_lysenok(self, lysenok):
        br = radius_bracket(incidence(lysenok.morphism).matrix, Fraction(1, 10**6))
        assert br.lo <= 2 <= br.hi
        assert br.width <= Fraction(1, 10**6)

    def test_permutation_matrix(self):
        br = radius_bracket(((0, 1), (1, 0)), Fraction(1, 10**6))
        assert (br.lo, br.hi) == (1, 1)

    def test_tolerance_reached_for_primitive(self, fibonacci):
        m = incidence(fibonacci.morphism).matrix
        for tol in (Fraction(1, 10), Fraction(1, 10**9)):
            br = radius_bracket(m, tol)
            assert br.width <= tol and not br.loose

    def test_random_block_triangular_brackets_hold_exactly(self):
        # known irreducible blocks, some periodic, coupled above the
        # diagonal and permuted; rho is the largest block radius
        rng = random.Random(4242)
        tol = Fraction(1, 10**6)
        for _ in range(150):
            blocks, size = [], rng.randint(1, 10)
            while sum(map(len, blocks)) < size:
                blocks.append(_random_irreducible_block(rng))
            m = _permuted(_block_triangular(blocks, rng), _shuffled(rng, sum(map(len, blocks))))
            br = radius_bracket(m, tol)
            assert br.width <= tol and not br.loose
            _assert_bracket_holds(br, blocks)

    def test_small_gap_cycles(self):
        # the r-cycle is periodic with rho = 1; a self-loop makes it
        # primitive with a spectral gap that shrinks as r grows
        tol = Fraction(1, 10**6)
        for r in (2, 3, 5, 8, 13, 21, 32):
            cycle = tuple(tuple(int(i == (j + 1) % r) for j in range(r)) for i in range(r))
            looped = tuple(
                tuple(entry + (i == j == 0) for j, entry in enumerate(row))
                for i, row in enumerate(cycle)
            )
            for m in (cycle, looped):
                br = radius_bracket(m, tol)
                assert br.width <= tol and not br.loose
                _assert_bracket_holds(br, [m])

    def test_perron_vector_beyond_working_precision_stays_sound(self):
        # the Perron vector's entries differ by about 2^120, more than the
        # iterate keeps: the bracket is loose but holds, and the iterate's
        # small entries are rounded up rather than to zero
        m = ((2**120, 1), (1, 0))
        br = radius_bracket(m, Fraction(1, 10**6))
        assert br.loose
        _assert_bracket_holds(br, [m])


def _random_irreducible(rng, r, density, top):
    """Entries in 1..top at the given density, plus a random r-cycle."""
    rows = [
        [rng.randint(1, top) if rng.random() < density else 0 for _ in range(r)] for _ in range(r)
    ]
    perm = _shuffled(rng, r)
    for u, v in zip(perm, perm[1:] + perm[:1]):
        rows[u][v] = rows[u][v] or rng.randint(1, 3)
    return tuple(map(tuple, rows))


class TestBracketAgainstDense:
    """The sparse iteration returns exactly the (lo, hi, loose) of the dense
    one in ``oracles``: same iterates, same squarings, same rounding."""

    @staticmethod
    def _assert_same(block, tol):
        assert len(_strongly_connected_components(block)) == 1
        expected = dense_irreducible_bracket(block, tol, _PREC, _MAX_SQUARINGS)
        assert _irreducible_bracket(block, tol) == expected

    @pytest.mark.parametrize("tol", [Fraction(1, 10**6), Fraction(1, 3)])
    def test_random_blocks(self, tol):
        # entries up to 2^140 spread the Perron vector beyond the working
        # precision, so those blocks run all their squarings: kept small
        rng = random.Random(36 * tol.denominator)
        for _ in range(40):
            top = rng.choice((1, 1, 3, 9, 2**140))
            r = rng.randint(1, 12 if top == 2**140 else 36)
            density = rng.choice((0.05, 0.1, 0.2, 0.4, 0.8))
            self._assert_same(_random_irreducible(rng, r, density, top), tol)

    @pytest.mark.parametrize("tol", [Fraction(1, 10**6), Fraction(1, 3)])
    def test_squares_beyond_the_working_precision(self, tol):
        # entries near 2^50 give squares of about 2^100 and more, which are
        # rounded, and most of these small dense blocks converge within a few
        # squarings
        rng = random.Random(50)
        for _ in range(20):
            self._assert_same(_random_irreducible(rng, rng.randint(2, 6), 0.7, 2**50), tol)

    @pytest.mark.parametrize("tol", [Fraction(1, 10**6), Fraction(1, 3)])
    def test_cycles_with_and_without_a_self_loop(self, tol):
        for r in (1, 2, 3, 5, 8, 13, 21, 32, 36):
            cycle = _from_edges(r, {(i, (i + 1) % r) for i in range(r)})
            looped = _from_edges(r, {(i, (i + 1) % r) for i in range(r)} | {(r // 2, r // 2)})
            self._assert_same(cycle, tol)
            self._assert_same(looped, tol)

    @pytest.mark.parametrize("tol", [Fraction(1, 10**6), Fraction(1, 3)])
    def test_loose_case(self, tol):
        block = ((2**120, 1), (1, 0))
        self._assert_same(block, tol)
        assert _irreducible_bracket(block, tol)[2]


class TestSpectralReport:
    def test_xzy_not_integer(self, xzy):
        rep = spectral_report(incidence(xzy.morphism).matrix)
        assert rep.dominant_is_integer is False
        assert rep.dominant_value is None

    def test_istrail_dominant_two(self, istrail):
        rep = spectral_report(incidence(istrail.morphism).matrix)
        assert rep.dominant_is_integer and rep.dominant_value == 2
        assert rep.dominant_value in dict(rep.integer_roots)
        assert rep.dominant_value in rep.bracket

    def test_diagonal(self):
        rep = spectral_report(((3, 0), (0, 1)))
        assert rep.dominant_value == 3

    def test_lysenok_reducible_dominant_two(self, lysenok):
        rep = spectral_report(incidence(lysenok.morphism).matrix)
        assert rep.dominant_value == 2

    def test_integer_root_that_is_not_dominant(self):
        # 4x4 with charpoly (x^2 - 4x - 1)(x - 1)^2: root 1 exists but the
        # radius is 2 + sqrt(5)
        spec = parse_morphism(
            "letters: 1 1* 2 2*\n1 -> 2* 2 1\n1* -> 1* 2* 2\n2 -> 2 1 1* 2* 2\n2* -> 2* 2 1 1* 2*"
        )
        m = incidence(spec.morphism).matrix
        assert char_poly(m).coeffs == (1, -6, 8, -2, -1)
        rep = spectral_report(m)
        assert dict(rep.integer_roots) == {1: 2}
        assert rep.dominant_is_integer is False


FIB_PLUS_ONE = ((1, 1, 0), (1, 0, 0), (0, 0, 1))
TWO_PLUS_FIB = ((2, 0, 0), (0, 1, 1), (0, 1, 0))


def _permuted(m, perm):
    return tuple(tuple(m[perm[i]][perm[j]] for j in range(len(m))) for i in range(len(m)))


def _shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _random_irreducible_block(rng):
    n = rng.randint(1, 4)
    kind = rng.choice(("dense", "cycle", "bipartite"))
    if n == 1:
        return ((rng.randint(0, 3),),)
    if kind == "bipartite":
        # [[0, A], [B, 0]] with A, B positive: irreducible of period 2
        h = n // 2 + 1
        rows = [[0] * (2 * h) for _ in range(2 * h)]
        for i in range(h):
            for j in range(h):
                rows[i][h + j] = rng.randint(1, 3)
                rows[h + i][j] = rng.randint(1, 3)
        return tuple(map(tuple, rows))
    # a weighted n-cycle (period n, rho = the geometric mean of the
    # weights) or that cycle plus random entries
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[(j + 1) % n][j] = rng.randint(1, 3)
        if kind == "dense":
            for i in range(n):
                rows[i][j] += rng.choice((0, 0, 1, 2))
    return tuple(map(tuple, rows))


def _block_triangular(blocks, rng):
    n = sum(map(len, blocks))
    rows = [[0] * n for _ in range(n)]
    start = 0
    for block in blocks:
        k = len(block)
        for i in range(k):
            for j in range(k):
                rows[start + i][start + j] = block[i][j]
            for j in range(start + k, n):
                rows[start + i][j] = rng.choice((0, 0, 1, 5))
        start += k
    return tuple(map(tuple, rows))


def _assert_bracket_holds(br, blocks):
    """lo <= rho <= hi, decided exactly: rho >= p/q iff some block B has
    rho(qB) >= p, and rho <= p/q iff every block has rho(qB) <= p."""

    def signs(value):
        q, p = value.denominator, value.numerator
        return [_radius_sign(tuple(tuple(q * e for e in row) for row in b), p) for b in blocks]

    assert max(signs(br.lo)) >= 0
    assert max(signs(br.hi)) <= 0


class TestRadiusSign:
    def test_grig_aca_aba_between_two_and_three(self, grig_aca_aba):
        m = incidence(grig_aca_aba.morphism).matrix  # rho ~ 2.76
        assert _radius_sign(m, 2) == 1
        assert _radius_sign(m, 3) == -1

    def test_integer_radius_gives_zero(self, istrail):
        m = incidence(istrail.morphism).matrix
        assert [_radius_sign(m, c) for c in (1, 2, 3)] == [1, 0, -1]

    def test_scalar_block(self):
        assert [_radius_sign(((0,),), c) for c in (0, 1)] == [0, -1]

    def test_fibonacci_block_plus_one_is_not_integer(self):
        # charpoly (x^2 - x - 1)(x - 1): 1 is a root, the radius is phi
        rep = spectral_report(FIB_PLUS_ONE)
        assert dict(rep.integer_roots) == {1: 1}
        assert not rep.dominant_is_integer and rep.dominant_value is None

    def test_two_plus_fibonacci_block_is_two(self):
        assert spectral_report(TWO_PLUS_FIB).dominant_value == 2

    def test_coupled_and_permuted_forms(self):
        # block upper-triangular with coupling between the blocks, then
        # conjugated by every permutation: the radius stays max(2, phi) = 2
        # and max(phi, 1) = phi respectively
        for coupling in (1, 3):
            two_fib = ((2, coupling, coupling), (0, 1, 1), (0, 1, 0))
            fib_one = ((1, 1, coupling), (1, 0, 0), (0, 0, 1))
            for perm in itertools.permutations(range(3)):
                rep = spectral_report(_permuted(two_fib, perm))
                assert rep.dominant_value == 2 and rep.dominant_is_integer
                assert not spectral_report(_permuted(fib_one, perm)).dominant_is_integer


class TestPerron:
    def test_period_doubling(self, period_doubling):
        m = incidence(period_doubling.morphism).matrix
        assert m == ((1, 2), (1, 0))
        assert perron_frequencies(m) == (Fraction(2, 3), Fraction(1, 3))

    def test_symmetric_uniform(self, thue_morse):
        m = incidence(thue_morse.morphism).matrix
        assert perron_frequencies(m) == (Fraction(1, 2), Fraction(1, 2))

    def test_fibonacci_empty(self, fibonacci):
        assert perron_frequencies(incidence(fibonacci.morphism).matrix) is None

    def test_non_primitive_empty(self, lysenok):
        assert perron_frequencies(incidence(lysenok.morphism).matrix) is None

    def test_lysenok_psi_exact(self, lysenok_psi):
        # hand oracle: solve Mv = 2v, sum v = 1 for the 2-uniform psi
        m = incidence(lysenok_psi.morphism).matrix
        v = perron_frequencies(m)
        assert v == (Fraction(1, 2), Fraction(1, 7), Fraction(2, 7), Fraction(1, 14))
        for i in range(4):
            assert sum(m[i][j] * v[j] for j in range(4)) == 2 * v[i]

    def test_large_constant_column_sums(self):
        # r = 24, every image has length 3; the cycle j -> j+1 plus the
        # self-loop at 0 make the matrix primitive, so rho = 3
        r = 24
        m = [[0] * r for _ in range(r)]
        for j in range(r):
            for i in ((j + 1) % r, 0, (5 * j + 2) % r):
                m[i][j] += 1
        m = tuple(map(tuple, m))
        assert is_primitive(m)
        v = perron_frequencies(m)
        assert sum(v) == 1 and all(x > 0 for x in v)
        for i in range(r):
            assert sum(m[i][j] * v[j] for j in range(r)) == 3 * v[i]


    def test_matches_the_column_sum_scan(self):
        # half the matrices have constant column sums, so an integer rho;
        # the others mostly have an irrational one
        rng = random.Random(1313)
        checked = integer = 0
        while checked < 200:
            r = rng.randint(1, 8)
            if checked % 2:
                m = [[0] * r for _ in range(r)]
                q = rng.randint(1, 5)
                for j in range(r):
                    for _ in range(q):
                        m[rng.randrange(r)][j] += 1
            else:
                m = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(r)] for _ in range(r)]
            m = tuple(map(tuple, m))
            if not _wielandt(m):
                continue
            v = perron_frequencies(m)
            assert v == column_sum_scan_perron(m), m
            checked += 1
            integer += v is not None
        assert integer > 100

    def test_random_constant_column_sums(self):
        # column sums all q make rho = q; primitivity makes v unique and positive
        rng = random.Random(4242)
        checked = 0
        while checked < 150:
            r, q = rng.randint(1, 12), rng.randint(1, 5)
            m = [[0] * r for _ in range(r)]
            for j in range(r):
                for _ in range(q):
                    m[rng.randrange(r)][j] += 1
            m = tuple(map(tuple, m))
            if not _wielandt(m):
                continue
            v = perron_frequencies(m)
            assert sum(v) == 1 and all(x > 0 for x in v)
            for i in range(r):
                assert sum(m[i][j] * v[j] for j in range(r)) == q * v[i]
            checked += 1


class TestAgainstFloatOracle:
    def test_bracket_contains_numpy_radius(self):
        # independent route: float eigensolver; the exact bracket must
        # contain the float spectral radius to within float error
        numpy = pytest.importorskip("numpy")
        rng = __import__("random").Random(987654)
        for _ in range(300):
            n = rng.randint(1, 5)
            m = tuple(
                tuple(rng.choice((0, 0, 1, 1, 2, 3, 5)) for _ in range(n)) for _ in range(n)
            )
            rho = max(abs(v) for v in numpy.linalg.eigvals(numpy.array(m, dtype=float)))
            br = radius_bracket(m, Fraction(1, 10**9))
            assert br.width <= Fraction(1, 10**9)
            assert float(br.lo) - 1e-6 <= rho <= float(br.hi) + 1e-6
            report = spectral_report(m)
            if report.dominant_is_integer:
                assert abs(rho - report.dominant_value) < 1e-6


class TestMultiplicativity:
    def test_incidence_of_compose(self, lysenok, lysenok_psi):
        from morphauto.linalg import mat_mul

        tau, psi = lysenok.morphism, lysenok_psi.morphism
        left = incidence(tau.compose(psi)).matrix
        right = mat_mul(incidence(tau).matrix, incidence(psi).matrix)
        assert left == right

    def test_incidence_of_power(self, acaba):
        from morphauto.linalg import mat_mul

        m = acaba.morphism
        a = incidence(m).matrix
        assert incidence(m.power(3)).matrix == mat_mul(mat_mul(a, a), a)


class TestInputChecks:
    @pytest.mark.parametrize("check", [is_primitive, spectral_report, lambda m: radius_bracket(m, 1)])
    def test_negative_entries_are_rejected(self, check):
        with pytest.raises(ValueError, match="nonnegative"):
            check(((1, -1), (1, 1)))

    def test_incidence_columns_must_sum_to_the_lengths(self):
        with pytest.raises(ValueError, match="column sums"):
            IncidenceData(((1, 1), (1, 0)), (2, 2))

    @pytest.mark.parametrize("coeffs", [(), (2, 1), (-1, 0)])
    def test_polynomial_must_be_monic(self, coeffs):
        with pytest.raises(ValueError, match="monic"):
            IntPolynomial(coeffs)

    def test_deflate_at_a_non_root(self):
        # x^2 - 3x + 2 = (x - 1)(x - 2)
        assert linalg._deflate((1, -3, 2), 2) == (1, -1)
        with pytest.raises(ValueError, match="not a root"):
            linalg._deflate((1, -3, 2), 3)

    def test_left_eigencheck_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            left_eigencheck((1, 1, 1), ((1, 1), (1, 0)))

    @pytest.mark.parametrize("tol", [0, -1, Fraction(-1, 3)])
    def test_radius_bracket_needs_a_positive_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            radius_bracket(((1, 1), (1, 0)), tol)
