import importlib
import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morphauto import (
    Alphabet,
    IntPolynomial,
    Morphism,
    char_poly,
    integer_roots,
    irrationality_verdict,
    is_primitive,
    parse_morphism,
    radius_bracket,
    spectral_report,
)
from morphauto import linalg
from morphauto.cli import corpus_dir
from morphauto.linalg import (
    InternalArithmeticError,
    RadiusBracket,
    _strongly_connected_components,
)

import oracles
from oracles import (
    bisect_root,
    column_sum_scan_perron,
    compose,
    dense,
    dense_irreducible_bracket,
    diagonal_blocks,
    faddeev_leverrier_charpoly,
    integer_radius,
    left_eigencheck,
    mat_mul,
    naive_bool_power_positive,
    naive_charpoly,
    naive_components,
    power,
    primitive_by_squaring,
    radius_sign,
    row_sum_start_bracket,
    sparse,
)


class TestIncidence:
    def test_istrail(self, istrail):
        m = istrail.morphism
        assert m.lengths == (2, 3, 1)
        cols = [tuple(row[j] for row in dense(m.incidence)) for j in range(3)]
        assert cols[0] == (0, 1, 1)
        assert cols[1] == (1, 1, 1)
        assert cols[2] == (1, 0, 0)

    def test_identity_morphism(self):
        m = parse_morphism("letters: a b c\na -> a\nb -> b\nc -> c").morphism
        assert m.incidence == sparse(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == (((0, 1),), ((1, 1),), ((2, 1),))
        assert m.lengths == (1, 1, 1)

    def test_lysenok(self, lysenok):
        m = lysenok.morphism
        assert m.lengths == (3, 1, 1, 1)
        cols = [tuple(row[j] for row in dense(m.incidence)) for j in range(4)]
        assert cols == [(2, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)]


@st.composite
def _morphisms(draw):
    """A morphism over 1 to 64 letters whose images hold 0 to 4 letters,
    none from a drawn set of absent letters, so that erasing images give
    zero columns and letters in no image zero rows."""
    r = draw(st.integers(1, 64))
    absent = draw(st.frozensets(st.integers(0, r - 1), max_size=r - 1))
    present = [c for c in range(r) if c not in absent]
    images = tuple(tuple(draw(st.lists(st.sampled_from(present), max_size=4))) for _ in range(r))
    return Morphism(Alphabet(tuple(f"a{i}" for i in range(r))), images)


class TestSparseRows:
    """``Morphism.incidence`` holds a pair for every nonzero entry and no
    other, and ``linalg`` on those rows agrees with the dense oracles."""

    # the Faddeev-LeVerrier oracle takes about 0.5 s at r = 64, so each draw
    # checks char_poly once
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_morphisms())
    def test_incidence_rows_agree_with_the_dense_oracles(self, m):
        rows, r = m.incidence, len(m.alphabet)
        assert len(rows) == r
        for row in rows:
            columns = [j for j, _ in row]
            assert all(entry for _, entry in row) and columns == sorted(set(columns))
        d = dense(rows)
        for j, img in enumerate(m.images):
            assert tuple(row[j] for row in d) == tuple(img.count(i) for i in range(r))
        assert tuple(map(sum, zip(*d))) == m.lengths
        assert list(char_poly(rows).coeffs) == faddeev_leverrier_charpoly(d)
        assert is_primitive(rows) == primitive_by_squaring(d)
        if r <= 12:
            assert is_primitive(rows) == naive_bool_power_positive(d, r * r - 2 * r + 2)
        for block in diagonal_blocks(rows):
            assert spectral_report(block).dominant_value == integer_radius(dense(block))


def _workloads(monkeypatch):
    """The benchmark's input generators, ``perfbench/workloads.py``."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    return importlib.import_module("workloads")


def _spectral_morphisms(monkeypatch, seeds):
    """The morphisms of the benchmark's ``spectral`` inputs: primitive and
    non-uniform, over 16 to 32 letters."""
    workloads = _workloads(monkeypatch)
    return [
        parse_morphism(item.text).morphism for seed in seeds for item in workloads.spectral_workload(seed)
    ]


def _hessenberg_before(rng, n, k):
    """A random nonnegative n x n matrix whose columns 0..k-1 are upper
    Hessenberg (zero below the subdiagonal) with a nonzero subdiagonal."""
    values = (1, 2, 3, 4, 5, 6, 7)
    return [[rng.choice(values) if j >= k or i <= j + 1 else 0 for j in range(n)] for i in range(n)]


class TestCharPoly:
    def test_grig_aca_aba_quartic(self, grig_aca_aba):
        p = char_poly(grig_aca_aba.morphism.incidence)
        assert p.coeffs == (1, -2, -2, -1, 2)
        assert str(p) == "x^4 - 2*x^3 - 2*x^2 - x + 2"

    def test_xzy_cubic(self, xzy):
        p = char_poly(xzy.morphism.incidence)
        assert p.coeffs == (1, -1, -2, -4)

    def test_zero_matrix(self):
        assert char_poly(sparse(((0, 0), (0, 0)))).coeffs == (1, 0, 0)

    def test_against_cofactor_oracle(self, istrail, lysenok, acaba, grig_aca_aba, xzy):
        for spec in (istrail, lysenok, acaba, grig_aca_aba, xzy):
            m = spec.morphism.incidence
            assert list(char_poly(m).coeffs) == naive_charpoly(dense(m))

    def test_cube_attribution(self):
        # the polynomial x^3 - 7x^2 + 12x - 8 belongs to the incidence matrix
        # of the CUBE of a->c, b->aba, c->b, not to the matrix itself
        base = parse_morphism("letters: a b c\na -> c\nb -> aba\nc -> b").morphism
        assert char_poly(base.incidence).coeffs == (1, -1, 0, -2)
        cubed = power(base, 3).incidence
        assert char_poly(cubed).coeffs == (1, -7, 12, -8)
        assert list(char_poly(cubed).coeffs) == naive_charpoly(dense(cubed))

    def test_against_faddeev_leverrier(self):
        # dense and sparse draws of every size up to 32 letters, the 2^200
        # entries making slots of some 1600 bits, ten 8 x 8 and 9 x 9
        # near-Hessenberg shapes and three singular ones
        rng = random.Random(31337)
        inputs = [
            tuple(tuple(rng.randint(0, span) for _ in range(n)) for _ in range(n))
            for n, span in [(1, 5), (2, 5), (3, 9), (5, 3), (8, 2**200), (13, 4), (21, 3), (32, 2)]
            for _ in range(3)
        ]
        for k in (0, 1, 3, 6):
            # upper Hessenberg in columns 0..k-1, and column k zero below
            # the diagonal but for one entry two or more rows down
            rng_k = random.Random(k)
            m = _hessenberg_before(rng_k, 9, k)
            for i in range(k + 1, 9):
                m[i][k] = 0
            m[rng_k.randrange(k + 2, 9)][k] = 5
            inputs.append(tuple(map(tuple, m)))
        for k, row in ((0, 2), (0, 8), (2, 5), (5, 8), (6, 8)):
            # upper Hessenberg in columns 0..k-1, and column k has one
            # nonzero entry below the subdiagonal, in ``row``: the step of
            # exactly one nonzero multiplier
            m = _hessenberg_before(random.Random(10 * k + row), 9, k)
            for i in range(k + 2, 9):
                m[i][k] = 0
            m[row][k] = 2
            inputs.append(tuple(map(tuple, m)))
        # upper Hessenberg with one zero subdiagonal entry: block upper
        # triangular, so chi is the product of its diagonal blocks' chi
        m = _hessenberg_before(random.Random(7), 8, 7)
        m[4][3] = 0
        inputs.append(tuple(map(tuple, m)))
        # singular shapes: a nilpotent shift, whose power sums are all zero;
        # a repeated row; mostly zero columns, which leave rows of the
        # powers empty
        inputs.append(tuple(tuple(int(j == i + 1) for j in range(6)) for i in range(6)))
        inputs += [((1, 2, 3), (1, 2, 3), (4, 5, 6)), ((0, 0, 7), (0, 0, 0), (1, 0, 0))]
        for m in inputs:
            expected = faddeev_leverrier_charpoly(m)
            assert list(char_poly(sparse(m)).coeffs) == expected, m
            if len(m) <= 6:
                assert naive_charpoly(m) == expected, m

    def test_benchmark_spectral_inputs(self, monkeypatch):
        for morphism in _spectral_morphisms(monkeypatch, (1, 2, 3)):
            m = morphism.incidence
            assert list(char_poly(m).coeffs) == faddeev_leverrier_charpoly(dense(m))

    @pytest.mark.parametrize(
        "r, change",
        [(40, None), (48, None), (64, None), (48, "zero column"), (64, "negative entry")],
    )
    def test_large_sparse_cycle_plus_extras(self, monkeypatch, r, change):
        # the benchmark's spectral inputs at more letters: a cycle through
        # every letter, a self-loop at letter 0 and 0-2 extra letters per
        # image, so each row of M^(k+1) adds a few rows of M^k; a zero
        # column leaves a row of every power empty, and a negative entry is
        # refused by the column-sum scan
        rng = random.Random(r)
        images = _workloads(monkeypatch)._spectral_images(rng, r, anagram_pair=False)
        if change == "zero column":
            images[rng.randrange(1, r)] = []
        m = [[img.count(i) for img in images] for i in range(r)]
        if change == "negative entry":
            m[rng.randrange(r)][rng.randrange(r)] = -3
            with pytest.raises(ValueError, match="nonnegative"):
                char_poly(sparse(m))
            return
        m = tuple(map(tuple, m))
        assert list(char_poly(sparse(m)).coeffs) == faddeev_leverrier_charpoly(m)

    def test_four_ones_per_column(self):
        rng = random.Random(1032)
        cols = [rng.sample(range(32), 4) for _ in range(32)]
        m = tuple(tuple(int(i in cols[j]) for j in range(32)) for i in range(32))
        assert list(char_poly(sparse(m)).coeffs) == faddeev_leverrier_charpoly(m)

    def test_huge_diagonal_entry_is_exact(self):
        # L^n = 2^400000 makes slots of 400003 bits; chi = (x - 2^200000)(x - 1)
        big = 2**200000
        assert char_poly(sparse(((big, 0), (0, 1)))).coeffs == (1, -(big + 1), big)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("weight", [1000, -1000, 3**40, -(3**40)])
    def test_weighted_cycle_fills_its_slots(self, n, weight):
        # c P for the n-cycle P has M^n = c^n I, so the diagonal of the
        # last power reaches L^n = c^n, the bound the slots are sized for,
        # and chi = x^n - c^n; a negative c is refused before any slot is
        # sized
        m = sparse([[weight if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)])
        if weight < 0:
            with pytest.raises(ValueError, match="nonnegative"):
                char_poly(m)
            return
        assert char_poly(m).coeffs == (1, *[0] * (n - 1), -(weight**n))


def _bound_inputs(rng, count):
    """Nonnegative matrices of at most 12 letters: irreducible, reducible
    (irreducible blocks, some periodic, coupled above the diagonal and
    permuted), weighted cycles (period r), with a zero row, and sparse ones
    that may have zero columns."""
    kinds = ("irreducible", "reducible", "cycle", "zero row", "sparse")
    for t in range(count):
        kind = kinds[t % len(kinds)]
        if kind in ("irreducible", "zero row"):
            density, top = rng.choice((0.1, 0.3, 0.6)), rng.choice((1, 3, 9))
            m = _random_irreducible(rng, rng.randint(1, 12), density, top)
            if kind == "zero row":
                i = rng.randrange(len(m))
                m = tuple((0,) * len(row) if k == i else row for k, row in enumerate(m))
        elif kind == "reducible":
            blocks = [_random_irreducible_block(rng) for _ in range(rng.randint(2, 3))]
            m = _permuted(_block_triangular(blocks, rng), _shuffled(rng, sum(map(len, blocks))))
        elif kind == "cycle":
            r = rng.randint(2, 9)
            m = _permuted(_from_edges(r, {(i, (i + 1) % r) for i in range(r)}), _shuffled(rng, r))
            m = tuple(tuple(e * rng.randint(1, 4) for e in row) for row in m)
        else:
            r = rng.randint(1, 10)
            m = tuple(tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(r)) for _ in range(r))
        yield m


def _assert_bound_holds(m):
    """char_poly(m).root_bound is None exactly when m has two or more
    letters and a zero column, and otherwise p/q >= rho(B) for every
    diagonal block B, decided exactly as rho(qB) <= p."""
    bound = char_poly(sparse(m)).root_bound
    assert (bound is None) == (len(m) > 1 and not all(map(any, zip(*m))))
    if bound is not None:
        q, p = bound.denominator, bound.numerator
        for comp in naive_components(m):
            block = tuple(tuple(q * m[i][j] for j in comp) for i in comp)
            assert radius_sign(block, p) <= 0
    return bound


class TestRootBound:
    """``char_poly(m).root_bound``, max_j (1^T M^n)_j / (1^T M^(n-1))_j,
    bounds the spectral radius from above."""

    def test_sound_on_seeded_matrices(self):
        bounds = [_assert_bound_holds(m) for m in _bound_inputs(random.Random(2323), 2000)]
        assert sum(b is not None for b in bounds) > 1500

    @pytest.mark.parametrize("r", [16, 32, 48, 64])
    def test_sound_on_spectral_shaped_inputs(self, monkeypatch, r):
        rng = random.Random(23 * r)
        for anagram_pair in (False, True):
            images = _workloads(monkeypatch)._spectral_images(rng, r, anagram_pair)
            m = tuple(tuple(img.count(i) for img in images) for i in range(r))
            bound = _assert_bound_holds(m)
            # and within 1/32 of rho, where the row and column sums are 3 or 4
            # with rho about 2: rho(32 q M) > 32 p - q
            q, p = bound.denominator, bound.numerator
            assert radius_sign(tuple(tuple(32 * q * e for e in row) for row in m), 32 * p - q) == 1

    def test_eigenvector_inputs_bound_at_rho_exactly(self, istrail, anagram7):
        # L M = q L gives 1^T M^k = q^(k-1) L for k >= 1, so every ratio is q
        for spec in (istrail, anagram7):
            m = spec.morphism.incidence
            q = spectral_report(m).dominant_value
            assert char_poly(m).root_bound == q

    def test_one_by_one_is_the_entry(self):
        assert char_poly(sparse(((0,),))).root_bound == 0
        assert char_poly(sparse(((7,),))).root_bound == 7

    def test_zero_column_gets_none_and_a_signed_matrix_is_refused(self):
        assert char_poly(sparse(((1, 0), (1, 0)))).root_bound is None
        with pytest.raises(ValueError, match="nonnegative"):
            char_poly(sparse(((1, 1), (-1, 2))))
        # 1^T M = (2, 1) and 1^T M^2 = (3, 2): the ratios are 3/2 and 2
        assert char_poly(sparse(((1, 1), (1, 0)))).root_bound == 2

    def test_takes_no_part_in_equality_hash_or_repr(self, grig_aca_aba):
        p = char_poly(grig_aca_aba.morphism.incidence)
        bare = IntPolynomial(p.coeffs)
        assert p.root_bound is not None and bare.root_bound is None
        assert p == bare and hash(p) == hash(bare) and repr(p) == repr(bare)


class TestIntegerRoots:
    def test_grig_aca_aba_has_none(self, grig_aca_aba):
        p = char_poly(grig_aca_aba.morphism.incidence)
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
        p = char_poly(xzy.morphism.incidence)
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
        m = istrail.morphism
        assert left_eigencheck(m.lengths, dense(m.incidence)) == 2

    def test_lysenok_fails(self, lysenok):
        m = lysenok.morphism
        assert left_eigencheck(m.lengths, dense(m.incidence)) is None

    def test_all_ones_on_uniform(self, tm_cube):
        assert left_eigencheck((1, 1), dense(tm_cube.morphism.incidence)) == 8

    def test_requires_positive_vector(self, istrail):
        with pytest.raises(ValueError):
            left_eigencheck((2, 0, 1), dense(istrail.morphism.incidence))

    def test_eigenvalue_lies_in_every_bracket(self, istrail, anagram7):
        for spec in (istrail, anagram7):
            m = spec.morphism
            lam = left_eigencheck(m.lengths, dense(m.incidence))
            for tol in (Fraction(1, 10), Fraction(1, 10**4), Fraction(1, 10**8)):
                assert lam in radius_bracket(m.incidence, tol)


class TestPrimitivity:
    def test_acaba_is_primitive(self, acaba):
        assert is_primitive(acaba.morphism.incidence)

    def test_identity_is_not(self):
        assert not is_primitive(sparse(((1, 0), (0, 1))))

    def test_lysenok_is_not(self, lysenok):
        m = lysenok.morphism.incidence
        assert not is_primitive(m)
        assert not naive_bool_power_positive(dense(m), 12)

    def test_against_oracle_exponent(self, grig_aca_aba, xzy, fibonacci):
        for spec in (grig_aca_aba, xzy, fibonacci):
            m = spec.morphism.incidence
            r = len(m)
            assert is_primitive(m) == naive_bool_power_positive(dense(m), r * r - 2 * r + 2)

    def test_scalar(self):
        assert is_primitive(sparse(((5,),)))
        assert not is_primitive(sparse(((0,),)))

    def test_empty(self):
        # no letters, no strongly connected component
        assert not is_primitive(())

    def test_random_against_oracle_exponent(self):
        rng = random.Random(2718)
        for _ in range(300):
            r = rng.randint(1, 12)
            m = tuple(tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(r)) for _ in range(r))
            assert is_primitive(sparse(m)) == naive_bool_power_positive(m, r * r - 2 * r + 2)


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
            assert is_primitive(sparse(m)) == _wielandt(m) == primitive

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7, 8, 12, 16, 32])
    @pytest.mark.parametrize("loop", [False, True])
    def test_cycle_with_and_without_a_self_loop(self, r, loop):
        # an r-cycle has period r; one self-loop makes it primitive
        edges = {(i, (i + 1) % r) for i in range(r)} | ({(r // 2, r // 2)} if loop else set())
        m = _from_edges(r, edges)
        assert is_primitive(sparse(m)) == _wielandt(m) == loop

    def test_reducible_with_a_primitive_component_reachable_from_zero(self):
        # letter 0 has a self-loop and leads into the primitive component
        # {1, 2, 3}, but nothing leads back: every level gap has gcd 1, yet
        # the matrix is reducible
        m = _from_edges(4, {(0, 0), (0, 1), (1, 2), (2, 3), (3, 1), (2, 1)})
        assert is_primitive(sparse(m)) == _wielandt(m) is False

    def test_reducible_with_letter_zero_in_a_primitive_sink_component(self):
        # the mirror image: letter 0 lies in the primitive component
        # {0, 1, 2} (cycles of lengths 2 and 3), which every other letter
        # reaches, but 0 reaches neither 3 nor 4: every letter reaches 0,
        # and every level gap from 0 has gcd 1, yet the matrix is reducible
        m = _from_edges(5, {(0, 1), (1, 2), (2, 0), (1, 0), (3, 3), (3, 1), (4, 3), (3, 4)})
        assert is_primitive(sparse(m)) == _wielandt(m) is False


def _component_inputs(rng, count):
    """Seeded matrices over r = 1..64 letters: zero matrices, permutation
    matrices with and without one extra edge, shuffled block-triangular
    matrices with many components, and sparse random ones."""
    for k in range(count):
        r = 1 + k % 64
        kind = k % 4
        if kind == 0:
            density = rng.choice((0.0, 0.02, 0.05, 0.1, 0.25))
            yield tuple(tuple(rng.randint(1, 3) if rng.random() < density else 0 for _ in range(r)) for _ in range(r))
        elif kind == 1:
            perm, extra = _shuffled(rng, r), (rng.randrange(r), rng.randrange(r))
            edge = rng.random() < 0.5
            yield tuple(tuple(int(perm[i] == j or edge and (i, j) == extra) for j in range(r)) for i in range(r))
        else:
            blocks = []
            while (size := sum(map(len, blocks))) < r:
                block = _random_irreducible_block(rng)
                if size + len(block) <= r:
                    blocks.append(block)
            yield _permuted(_block_triangular(blocks, rng), _shuffled(rng, r))


class TestComponents:
    def test_random_against_set_reachability(self):
        # first the 64-letter path with self-loops (m_ii = m_i,i+1 = 1) and
        # its transpose, where every sweep runs into letters already placed
        path = tuple(tuple(int(j in (i, i + 1)) for j in range(64)) for i in range(64))
        rng = random.Random(1926)
        several = 0
        for m in itertools.chain((path, tuple(zip(*path))), _component_inputs(rng, 2000)):
            comps = _strongly_connected_components(sparse(m))
            assert comps == naive_components(m)
            several += len(comps) > 1
        assert several > 1500


class TestRadiusBracket:
    def test_tm_cube_is_exact(self, tm_cube):
        br = radius_bracket(tm_cube.morphism.incidence, Fraction(1, 10**6))
        assert br.lo == br.hi == 8
        assert not br.loose

    def test_scalar_matrix(self):
        br = radius_bracket(sparse(((5,),)), Fraction(1, 100))
        assert (br.lo, br.hi) == (5, 5)

    def test_grig_aca_aba_contains_perron_root(self, grig_aca_aba):
        # oracle: float bisection of x^4 - 2x^3 - 2x^2 - x + 2 on (2.5, 3)
        root = bisect_root([1, -2, -2, -1, 2], 2.5, 3.0)
        assert abs(root - 2.76062) < 1e-4
        br = radius_bracket(grig_aca_aba.morphism.incidence, Fraction(1, 10**6))
        assert br.hi - br.lo <= Fraction(1, 10**6)
        assert br.lo <= Fraction(root).limit_denominator(10**12) <= br.hi

    def test_reducible_lysenok(self, lysenok):
        # the component {a} has rho = 2, above the cycle b -> d -> c
        br = _bracket_of_blocks(lysenok.morphism.incidence, Fraction(1, 10**6))
        assert br.lo <= 2 <= br.hi
        assert br.hi - br.lo <= Fraction(1, 10**6)

    def test_constant_column_sums_pin_the_bracket(self, monkeypatch):
        # a 3-uniform morphism has column sums 3 but row sums 5, 3 and 1;
        # rho(B) = rho(B^T) is the column sum, with no Newton step
        m = parse_morphism("letters: a b c\na -> a b a\nb -> c a b\nc -> a a b").morphism.incidence
        assert sorted(map(sum, dense(m))) == [1, 3, 5]
        monkeypatch.setattr(linalg, "char_poly", None)
        br = radius_bracket(m, Fraction(1, 10**6))
        assert (br.lo, br.hi, br.loose) == (3, 3, False)

    def test_permutation_matrix(self):
        br = radius_bracket(sparse(((0, 1), (1, 0))), Fraction(1, 10**6))
        assert (br.lo, br.hi) == (1, 1)

    def test_tolerance_reached_for_primitive(self, fibonacci):
        m = fibonacci.morphism.incidence
        for tol in (Fraction(1, 10), Fraction(1, 10**9)):
            br = radius_bracket(m, tol)
            assert br.hi - br.lo <= tol and not br.loose

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
            br = _bracket_of_blocks(sparse(m), tol)
            assert br.hi - br.lo <= tol and not br.loose
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
                br = radius_bracket(sparse(m), tol)
                assert br.hi - br.lo <= tol and not br.loose
                _assert_bracket_holds(br, [m])

    def test_perron_vector_beyond_working_precision_stays_sound(self):
        # the Perron vector's entries differ by about 2^120, which left the
        # Collatz-Wielandt iteration loose; Newton on x^2 - 2^120 x - 1 is
        # tight
        m = ((2**120, 1), (1, 0))
        br = radius_bracket(sparse(m), Fraction(1, 10**6))
        assert br.hi - br.lo <= Fraction(1, 10**6) and not br.loose
        _assert_bracket_holds(br, [m])

    def test_tolerance_below_the_first_grid_refines_it(self, fibonacci, grig_aca_aba):
        # 10^-30 is about 2^-100, finer than the 2^-32 grid Newton starts
        # on, so the grid is refined (to 2^-64, then 2^-128) before the
        # bracket is narrow enough
        tol = Fraction(1, 10**30)
        for spec in (fibonacci, grig_aca_aba):
            m = spec.morphism.incidence
            br = radius_bracket(m, tol)
            assert br.hi - br.lo <= tol and not br.loose
            assert br.hi.denominator > 2**linalg._GRID_BITS
            _assert_bracket_holds(br, [dense(m)])

    def test_precision_cap_leaves_a_sound_loose_bracket(self, fibonacci):
        # 2^-5000 is finer than the last grid, 2^-4096
        m = fibonacci.morphism.incidence
        br = radius_bracket(m, Fraction(1, 2**5000))
        assert br.loose and br.hi - br.lo <= Fraction(1, 2**4000)
        _assert_bracket_holds(br, [dense(m)])

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ((1, 0, -9), "not above the Perron root"),  # chi(2) < 0: root 3
            ((1, -6, 10), "not above the Perron root"),  # chi(2) > 0, chi'(2) < 0
            ((1, 0, 0), "row-sum bounds"),  # Newton heads for 0 < 1
        ],
    )
    def test_a_wrong_polynomial_is_an_internal_error(self, coeffs, message):
        # the Fibonacci matrix has row sums 2 and 1 and chi = x^2 - x - 1
        with pytest.raises(InternalArithmeticError, match=message):
            radius_bracket(sparse(((1, 1), (1, 0))), Fraction(1, 10**6), poly=IntPolynomial(coeffs))


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
    """The Newton bracket against the dense Collatz-Wielandt iteration in
    ``oracles`` (96-bit iterates, at most 64 squarings): the two brackets
    overlap, and the Newton one is no wider than tol, is not loose and
    holds under the exact sign test."""

    @staticmethod
    def _assert_agrees(br, blocks, tol):
        assert br.hi - br.lo <= tol and not br.loose
        _assert_bracket_holds(br, blocks)
        dense = [dense_irreducible_bracket(block, tol, 96, 64) for block in blocks]
        assert br.lo <= max(hi for _, hi, _ in dense)
        assert max(lo for lo, _, _ in dense) <= br.hi
        return dense

    @classmethod
    def _assert_block_agrees(cls, block, tol):
        assert len(_strongly_connected_components(sparse(block))) == 1
        return cls._assert_agrees(radius_bracket(sparse(block), tol), [block], tol)[0]

    @pytest.mark.parametrize("tol", [Fraction(1, 10**6), Fraction(1, 3)])
    def test_random_blocks(self, tol):
        # entries up to 2^140 spread the Perron vector beyond the oracle's
        # working precision, so its iteration runs all its squarings: kept
        # small
        rng = random.Random(36 * tol.denominator)
        for _ in range(40):
            top = rng.choice((1, 1, 3, 9, 2**140))
            r = rng.randint(1, 12 if top == 2**140 else 36)
            density = rng.choice((0.05, 0.1, 0.2, 0.4, 0.8))
            self._assert_block_agrees(_random_irreducible(rng, r, density, top), tol)

    @pytest.mark.parametrize("tol", [Fraction(1, 10**6), Fraction(1, 3)])
    def test_squares_beyond_the_working_precision(self, tol):
        # entries near 2^50 give squares of about 2^100 and more, which the
        # oracle rounds
        rng = random.Random(50)
        for _ in range(20):
            self._assert_block_agrees(_random_irreducible(rng, rng.randint(2, 6), 0.7, 2**50), tol)

    @pytest.mark.parametrize("tol", [Fraction(1, 10**6), Fraction(1, 3)])
    def test_cycles_with_and_without_a_self_loop(self, tol):
        for r in (1, 2, 3, 5, 8, 13, 21, 32, 36):
            cycle = _from_edges(r, {(i, (i + 1) % r) for i in range(r)})
            looped = _from_edges(r, {(i, (i + 1) % r) for i in range(r)} | {(r // 2, r // 2)})
            self._assert_block_agrees(cycle, tol)
            self._assert_block_agrees(looped, tol)

    @pytest.mark.parametrize("tol", [Fraction(1, 10**6), Fraction(1, 3)])
    def test_loose_case(self, tol):
        # the oracle is loose here; Newton is not
        block = ((2**120, 1), (1, 0))
        assert self._assert_block_agrees(block, tol)[2]

    @pytest.mark.parametrize("tol", [Fraction(1, 10**6), Fraction(1, 3)])
    def test_one_by_one_blocks(self, tol):
        for entry in (0, 1, 7, 2**140):
            lo, hi, loose = self._assert_block_agrees(((entry,),), tol)
            assert lo == hi == entry and not loose

    @pytest.mark.parametrize("tol", [Fraction(1, 10**6), Fraction(1, 3)])
    def test_reducible_matrices(self, tol):
        # known irreducible blocks coupled above the diagonal and permuted;
        # the dense bracket of the matrix is the largest of its blocks'
        rng = random.Random(7 * tol.denominator)
        for _ in range(40):
            blocks = [
                _random_irreducible(rng, rng.randint(1, 6), 0.4, rng.choice((1, 3, 2**60)))
                for _ in range(rng.randint(2, 4))
            ]
            m = _permuted(_block_triangular(blocks, rng), _shuffled(rng, sum(map(len, blocks))))
            self._assert_agrees(_bracket_of_blocks(sparse(m), tol), blocks, tol)


class TestBracketStart:
    """Newton starts at the smaller of the largest row and column sums or,
    when lower, one grid step above chi's root bound; the brackets are
    those of the start at the row and column sums alone
    (``oracles.row_sum_start_bracket``), reached with fewer evaluations of
    chi."""

    TOL = Fraction(1, 10**6)

    @classmethod
    def _assert_same_bracket(cls, block):
        reference = row_sum_start_bracket(
            block, cls.TOL, char_poly(sparse(block)).coeffs, linalg._GRID_BITS, linalg._MAX_GRID_BITS
        )
        br = radius_bracket(sparse(block), cls.TOL)
        assert (br.lo, br.hi, br.loose) == reference

    def test_seeded_irreducible_blocks(self):
        rng = random.Random(2424)
        for _ in range(2000):
            r = rng.randint(1, 16)
            top = rng.choice((1, 1, 3, 9))
            self._assert_same_bracket(_random_irreducible(rng, r, rng.choice((0.05, 0.1, 0.3)), top))

    @pytest.mark.parametrize("r", [16, 32, 48, 64])
    def test_spectral_shaped_inputs(self, monkeypatch, r):
        rng = random.Random(24 * r)
        for t in range(4):
            images = _workloads(monkeypatch)._spectral_images(rng, r, anagram_pair=t % 2 == 0)
            self._assert_same_bracket(tuple(tuple(img.count(i) for img in images) for i in range(r)))

    def test_a_third_of_the_evaluations(self, monkeypatch):
        # calls of the evaluator, no timing: on the benchmark's seed-1
        # spectral inputs the row-sum start takes 368 and the bound's 79
        calls = {"package": 0, "reference": 0}

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(linalg, "_scaled_values", counted("package", linalg._scaled_values))
        monkeypatch.setattr(oracles, "_scaled_chi", counted("reference", oracles._scaled_chi))
        for morphism in _spectral_morphisms(monkeypatch, (1,)):
            self._assert_same_bracket(dense(morphism.incidence))
        assert calls["reference"] >= 3 * calls["package"] > 0


class TestSpectralReport:
    def test_xzy_not_integer(self, xzy):
        rep = spectral_report(xzy.morphism.incidence)
        assert rep.dominant_is_integer is False
        assert rep.dominant_value is None

    def test_istrail_dominant_two(self, istrail):
        rep = spectral_report(istrail.morphism.incidence)
        assert rep.dominant_is_integer and rep.dominant_value == 2
        assert rep.dominant_value in dict(rep.integer_roots)
        assert rep.dominant_value in rep.bracket

    def test_diagonal(self):
        # two 1 x 1 blocks; the matrix's radius is the larger
        assert _dominant_values(sparse(((3, 0), (0, 1)))) == [3, 1]

    def test_lysenok_reducible_dominant_two(self, lysenok):
        # {a} has rho = 2 and the cycle b -> d -> c has rho = 1
        assert _dominant_values(lysenok.morphism.incidence) == [2, 1]

    def test_integer_root_that_is_not_dominant(self):
        # 4x4 with charpoly (x^2 - 4x - 1)(x - 1)^2: root 1 exists but the
        # radius is 2 + sqrt(5)
        spec = parse_morphism(
            "letters: 1 1* 2 2*\n1 -> 2* 2 1\n1* -> 1* 2* 2\n2 -> 2 1 1* 2* 2\n2* -> 2* 2 1 1* 2*"
        )
        m = spec.morphism.incidence
        assert char_poly(m).coeffs == (1, -6, 8, -2, -1)
        rep = spectral_report(m)
        assert dict(rep.integer_roots) == {1: 2}
        assert rep.dominant_is_integer is False

    def test_one_char_poly_per_report(self, monkeypatch, grig_aca_aba):
        # the bracket of an irreducible matrix reuses the report's polynomial
        calls = []
        real = linalg.char_poly

        def counted(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(linalg, "char_poly", counted)
        m = grig_aca_aba.morphism.incidence
        assert not spectral_report(m).dominant_is_integer
        assert calls == [m]

    def test_integer_radius_outside_the_bracket_is_an_internal_error(self, monkeypatch, istrail):
        monkeypatch.setattr(linalg, "radius_bracket", lambda *a, **k: RadiusBracket(3, 4))
        with pytest.raises(InternalArithmeticError, match="outside its bracket"):
            spectral_report(istrail.morphism.incidence)

    def test_decided_inside_a_wide_bracket(self, monkeypatch):
        # the bracket cannot rule the candidate out here, so the Taylor
        # coefficients decide alone.  chi = (x - 1)(x^2 - 5x + 5)
        # = (x - 1)^3 - 3(x - 1)^2 + (x - 1) has chi'(1) = 1 > 0, yet
        # rho = (5 + sqrt 5) / 2: every coefficient after the zero ones
        # must be positive, not only the first
        monkeypatch.setattr(linalg, "radius_bracket", lambda *a, **k: RadiusBracket(0, 10))
        rep = spectral_report(sparse(((1, 0, 0), (0, 2, 1), (0, 1, 3))))
        assert rep.char_poly.coeffs == (1, -6, 10, -5)
        assert list(linalg._taylor(rep.char_poly.coeffs, 1)) == [0, 1, -3, 1]
        assert dict(rep.integer_roots) == {1: 1}
        assert not rep.dominant_is_integer and rep.dominant_value is None
        rep = spectral_report(sparse(((2, 0, 0), (0, 1, 1), (0, 1, 0))))
        assert rep.dominant_is_integer and rep.dominant_value == 2

    def test_agrees_with_the_signs_of_the_minors(self):
        # the decision from chi against the leading principal minors of
        # cI - B, on each diagonal block B of 2000 matrices of at most 10
        # letters: reducible ones, direct sums of two blocks with equal
        # radii, constant column sums and repeated columns
        rng = random.Random(2200)
        kinds = ("reducible", "equal radii", "constant column sums", "repeated columns")
        decided = {"integer": 0, "irrational": 0, "integer root below rho": 0}
        for t in range(2000):
            kind = kinds[t % 4]
            if kind == "reducible":
                blocks = [_random_irreducible_block(rng) for _ in range(rng.randint(2, 3))]
                while sum(map(len, blocks)) > 10:
                    blocks.pop()
                m = _block_triangular(blocks, rng)
            elif kind == "equal radii":
                first = _random_irreducible_block(rng)
                if rng.random() < 0.5:
                    second = _permuted(first, _shuffled(rng, len(first)))
                else:
                    q = rng.randint(1, 4)
                    first = _constant_column_sums(rng, rng.randint(1, 5), q)
                    second = _constant_column_sums(rng, rng.randint(1, 5), q)
                m = _block_triangular([first, second], rng, coupling=(0,))
            elif kind == "constant column sums":
                m = _constant_column_sums(rng, rng.randint(1, 10), rng.randint(1, 5))
            else:
                r = rng.randint(2, 10)
                rows = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(r)] for _ in range(r)]
                for _ in range(rng.randint(1, r - 1)):
                    i, j = rng.sample(range(r), 2)
                    for row in rows:
                        row[j] = row[i]
                m = tuple(map(tuple, rows))
            m = _permuted(m, _shuffled(rng, len(m)))
            for block in diagonal_blocks(sparse(m)):
                rep = spectral_report(block)
                assert rep.dominant_value == integer_radius(dense(block)), (kind, m)
                if rep.dominant_is_integer:
                    decided["integer"] += 1
                else:
                    decided["irrational"] += 1
                    decided["integer root below rho"] += any(root >= 0 for root, _ in rep.integer_roots)
        assert min(decided.values()) >= 200, decided


class TestOneSplitPerVerdict:
    # a primitive matrix is its own single block, and is_primitive decides
    # irreducibility by reachability from letter 0, so a verdict reads the
    # support bitmasks once and splits no components.  A report splits its
    # matrix only where a reducible one can show in the bracket.
    ONE_OF_EACH = ["_strongly_connected_components", "_support"]
    SUPPORT_ONLY = ["_support"]

    @staticmethod
    def _record_calls(monkeypatch):
        calls = []
        for name in TestOneSplitPerVerdict.ONE_OF_EACH:
            real = getattr(linalg, name)

            def counted(matrix, name=name, real=real):
                calls.append(name)
                return real(matrix)

            monkeypatch.setattr(linalg, name, counted)
        return calls

    def test_irrationality_verdict(self, monkeypatch, grig_aca_aba):
        morphisms = [grig_aca_aba.morphism] + _spectral_morphisms(monkeypatch, (1,))
        calls = self._record_calls(monkeypatch)
        fired = 0
        for m in morphisms:
            calls.clear()
            fired += irrationality_verdict(m) is not None
            assert calls == self.SUPPORT_ONLY
        assert fired > 10

    def test_a_reducible_matrix_is_split_only_where_it_shows(self, monkeypatch, lysenok):
        # lysenok's radius 2 is where its bracket starts, so chi is 0 there:
        # the bracket splits the matrix once, and refuses it.  Fibonacci
        # below the golden square has simple roots, and its bracket holds
        # with no split.  Split by the oracle first, their blocks give the
        # radii 2 and phi^2, in brackets pinned here
        fib, golden_square = ((1, 1), (1, 0)), ((2, 1), (1, 1))
        fib_below_golden_square = sparse(((1, 1, 0, 0), (1, 0, 0, 0), (1, 0, 2, 1), (0, 1, 1, 1)))
        calls = self._record_calls(monkeypatch)
        with pytest.raises(ValueError, match="irreducible block"):
            spectral_report(lysenok.morphism.incidence)
        assert sorted(calls) == self.ONE_OF_EACH
        calls.clear()
        rep = spectral_report(fib_below_golden_square)
        assert calls == []
        assert str(rep.char_poly) == "x^4 - 4*x^3 + 3*x^2 + 2*x - 1" and rep.integer_roots == ()
        assert rep.dominant_value is None
        _assert_bracket_holds(rep.bracket, [fib, golden_square])
        tol = Fraction(1, 10**6)
        assert _bracket_of_blocks(lysenok.morphism.incidence, tol) == RadiusBracket(2, 2)
        assert _dominant_values(lysenok.morphism.incidence) == [2, 1]
        assert _bracket_of_blocks(fib_below_golden_square, tol) == RadiusBracket(
            Fraction(2745207, 1048576), Fraction(343151, 131072)
        )
        assert _dominant_values(fib_below_golden_square) == [None, None]


class TestOneIrreducibleBlock:
    """``radius_bracket`` and ``spectral_report`` take one irreducible
    block.  A reducible one is a ValueError where the bracket can tell,
    and a bracket that comes back holds all the same."""

    @pytest.mark.parametrize(
        "check",
        [spectral_report, lambda m: radius_bracket(m, Fraction(1, 10**6))],
        ids=["spectral_report", "radius_bracket"],
    )
    @pytest.mark.parametrize(
        "matrix",
        [
            # the first three start Newton at rho, where chi is 0; the
            # last has the double root phi, which Newton creeps towards
            # until the first grid is too coarse (without the check it took
            # over a second to come back loose)
            ((2, 0, 0), (0, 1, 1), (0, 1, 0)),
            ((3, 0), (0, 1)),
            ((2, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 0)),
            ((1, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 1), (0, 0, 1, 0)),
        ],
        ids=["two_plus_fibonacci", "diag_3_1", "lysenok", "fibonacci_plus_fibonacci"],
    )
    def test_reducible_blocks_are_value_errors(self, check, matrix):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="irreducible block, not one of 2 components"):
            check(sparse(matrix))
        assert time.perf_counter() - start < 0.05

    def test_whole_block_triangular_matrices_hold_or_are_refused(self):
        # the permuted block-triangular matrices, each bracketed and
        # reported whole: the bracket holds and the decision is the
        # oracle's, or the call is a ValueError
        rng = random.Random(4242)
        tol = Fraction(1, 10**6)
        outcomes = {"held": 0, "refused": 0}
        for _ in range(300):
            blocks, size = [], rng.randint(2, 10)
            while sum(map(len, blocks)) < size:
                blocks.append(_random_irreducible_block(rng))
            m = _permuted(_block_triangular(blocks, rng), _shuffled(rng, sum(map(len, blocks))))
            try:
                br = radius_bracket(sparse(m), tol)
            except ValueError:
                outcomes["refused"] += 1
                with pytest.raises(ValueError, match="irreducible block"):
                    spectral_report(sparse(m))
                continue
            outcomes["held"] += 1
            assert br.hi - br.lo <= tol and not br.loose
            _assert_bracket_holds(br, blocks)
            assert spectral_report(sparse(m)).dominant_value == integer_radius(m)
        assert min(outcomes.values()) > 0, outcomes


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


def _constant_column_sums(rng, r, q):
    """An r x r matrix whose columns each sum to q, so that rho = q."""
    m = [[0] * r for _ in range(r)]
    for j in range(r):
        for _ in range(q):
            m[rng.randrange(r)][j] += 1
    return tuple(map(tuple, m))


def _block_triangular(blocks, rng, coupling=(0, 0, 1, 5)):
    n = sum(map(len, blocks))
    rows = [[0] * n for _ in range(n)]
    start = 0
    for block in blocks:
        k = len(block)
        for i in range(k):
            for j in range(k):
                rows[start + i][start + j] = block[i][j]
            for j in range(start + k, n):
                rows[start + i][j] = rng.choice(coupling)
        start += k
    return tuple(map(tuple, rows))


def _bracket_of_blocks(rows, tol):
    """The bracket of a matrix from those of its diagonal blocks, split by
    the oracle: rho is the largest block radius, so each end is the
    largest of the blocks' ends."""
    brackets = [radius_bracket(block, tol) for block in diagonal_blocks(rows)]
    return RadiusBracket(
        max(br.lo for br in brackets), max(br.hi for br in brackets), any(br.loose for br in brackets)
    )


def _dominant_values(rows):
    """The integer radius, or None, of each diagonal block, in the order of
    the oracle's split."""
    return [spectral_report(block).dominant_value for block in diagonal_blocks(rows)]


def _assert_bracket_holds(br, blocks):
    """lo <= rho <= hi, decided exactly: rho >= p/q iff some block B has
    rho(qB) >= p, and rho <= p/q iff every block has rho(qB) <= p."""

    def signs(value):
        q, p = value.denominator, value.numerator
        return [radius_sign(tuple(tuple(q * e for e in row) for row in b), p) for b in blocks]

    assert max(signs(br.lo)) >= 0
    assert max(signs(br.hi)) <= 0


class TestRadiusSign:
    # the oracle's sign of rho(B) - c, and the report's decision on
    # reducible matrices
    def test_grig_aca_aba_between_two_and_three(self, grig_aca_aba):
        m = dense(grig_aca_aba.morphism.incidence)  # rho ~ 2.76
        assert radius_sign(m, 2) == 1
        assert radius_sign(m, 3) == -1

    def test_integer_radius_gives_zero(self, istrail):
        m = dense(istrail.morphism.incidence)
        assert [radius_sign(m, c) for c in (1, 2, 3)] == [1, 0, -1]

    def test_scalar_block(self):
        assert [radius_sign(((0,),), c) for c in (0, 1)] == [0, -1]

    def test_fibonacci_block_plus_one_is_not_integer(self):
        # charpoly (x^2 - x - 1)(x - 1): 1 is a root, the radius is phi
        rep = spectral_report(sparse(FIB_PLUS_ONE))
        assert dict(rep.integer_roots) == {1: 1}
        assert not rep.dominant_is_integer and rep.dominant_value is None

    def test_two_plus_fibonacci_block_is_two(self):
        # phi < 2, so the matrix's radius is the integer block's
        two, fib = map(spectral_report, diagonal_blocks(sparse(TWO_PLUS_FIB)))
        assert (two.dominant_value, fib.dominant_value) == (2, None) and fib.bracket.hi < 2

    def test_coupled_and_permuted_forms(self):
        # block upper-triangular with coupling between the blocks, then
        # conjugated by every permutation: the radius stays max(2, phi) = 2
        # and max(phi, 1) = phi respectively
        for coupling in (1, 3):
            two_fib = ((2, coupling, coupling), (0, 1, 1), (0, 1, 0))
            fib_one = ((1, 1, coupling), (1, 0, 0), (0, 0, 1))
            for perm in itertools.permutations(range(3)):
                rep = spectral_report(sparse(_permuted(two_fib, perm)))
                assert rep.dominant_value == 2 and rep.dominant_is_integer
                assert not spectral_report(sparse(_permuted(fib_one, perm))).dominant_is_integer


class TestPerron:
    # the Perron root of primitive matrices, decided from chi, next to the
    # Perron vector that the column-sum scan finds for it
    def test_period_doubling(self, period_doubling):
        m = period_doubling.morphism.incidence
        assert dense(m) == ((1, 2), (1, 0))
        assert spectral_report(m).dominant_value == 2
        assert column_sum_scan_perron(dense(m)) == (Fraction(2, 3), Fraction(1, 3))

    def test_symmetric_uniform(self, thue_morse):
        m = thue_morse.morphism.incidence
        assert spectral_report(m).dominant_value == 2
        assert column_sum_scan_perron(dense(m)) == (Fraction(1, 2), Fraction(1, 2))

    def test_fibonacci_empty(self, fibonacci):
        m = fibonacci.morphism.incidence
        assert spectral_report(m).dominant_value is None
        assert column_sum_scan_perron(dense(m)) is None

    def test_lysenok_psi_exact(self, lysenok_psi):
        # hand oracle: solve Mv = 2v, sum v = 1 for the 2-uniform psi
        rows = lysenok_psi.morphism.incidence
        assert spectral_report(rows).dominant_value == 2
        m = dense(rows)
        v = column_sum_scan_perron(m)
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
        assert is_primitive(sparse(m))
        assert spectral_report(sparse(m)).dominant_value == 3
        v = column_sum_scan_perron(m)
        assert sum(v) == 1 and all(x > 0 for x in v)
        for i in range(r):
            assert sum(m[i][j] * v[j] for j in range(r)) == 3 * v[i]

    def test_matches_the_column_sum_scan(self):
        # half the matrices have constant column sums, so an integer rho;
        # the others mostly have an irrational one.  The scan finds a
        # positive eigenvector exactly when rho is an integer
        rng = random.Random(1313)
        checked = integer = 0
        while checked < 200:
            r = rng.randint(1, 8)
            if checked % 2:
                m = _constant_column_sums(rng, r, rng.randint(1, 5))
            else:
                m = tuple(tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(r)) for _ in range(r))
            if not _wielandt(m):
                continue
            rep, v = spectral_report(sparse(m)), column_sum_scan_perron(m)
            assert rep.dominant_is_integer is (v is not None), m
            if v is not None:
                assert all(
                    sum(m[i][j] * v[j] for j in range(r)) == rep.dominant_value * v[i]
                    for i in range(r)
                ), m
            checked += 1
            integer += v is not None
        assert integer > 100

    def test_random_constant_column_sums(self):
        # column sums all q make rho = q; primitivity makes v unique and positive
        rng = random.Random(4242)
        checked = 0
        while checked < 150:
            r, q = rng.randint(1, 12), rng.randint(1, 5)
            m = _constant_column_sums(rng, r, q)
            if not _wielandt(m):
                continue
            assert spectral_report(sparse(m)).dominant_value == q
            v = column_sum_scan_perron(m)
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
            br = _bracket_of_blocks(sparse(m), Fraction(1, 10**9))
            assert br.hi - br.lo <= Fraction(1, 10**9)
            assert float(br.lo) - 1e-6 <= rho <= float(br.hi) + 1e-6
            for block in diagonal_blocks(sparse(m)):
                report = spectral_report(block)
                if report.dominant_is_integer:
                    eigvals = numpy.linalg.eigvals(numpy.array(dense(block), dtype=float))
                    assert abs(max(map(abs, eigvals)) - report.dominant_value) < 1e-6


class TestMultiplicativity:
    def test_incidence_of_compose(self, lysenok, lysenok_psi):
        tau, psi = lysenok.morphism, lysenok_psi.morphism
        left = dense(compose(tau, psi).incidence)
        right = mat_mul(dense(tau.incidence), dense(psi.incidence))
        assert left == right

    def test_incidence_of_power(self, acaba):
        m = acaba.morphism
        a = dense(m.incidence)
        assert dense(power(m, 3).incidence) == mat_mul(mat_mul(a, a), a)


# every entry point checks each pair in a scan that reads it anyway
_ENTRY_POINTS = [char_poly, is_primitive, spectral_report, lambda m: radius_bracket(m, 1)]


class TestInputChecks:
    @pytest.mark.parametrize("check", _ENTRY_POINTS)
    def test_negative_entries_are_rejected(self, check):
        # this matrix would send Newton to an internal error if the bracket
        # did not check it
        with pytest.raises(ValueError, match="nonnegative"):
            check(sparse(((1, -1), (1, 1))))

    @pytest.mark.parametrize("check", _ENTRY_POINTS[2:])  # the two that bracket
    def test_a_signed_block_with_an_integer_radius_is_rejected(self, check):
        # chi = (x - 2)^2, and the row and column sums pin the bracket at
        # [2, 2], so only the check keeps this matrix from a full report
        # with dominant value 2
        with pytest.raises(ValueError, match="matrix must be nonnegative"):
            check(sparse(((3, -1), (1, 1))))

    def test_incidence_columns_must_sum_to_the_lengths(self):
        # column j counts the letters of the image of j, erasing images too
        paths = sorted(corpus_dir().glob("*.morph"))
        morphisms = [parse_morphism(p.read_text(encoding="utf-8")).morphism for p in paths]
        rng = random.Random(2424)
        for _ in range(500):
            r = rng.randint(1, 6)
            images = tuple(tuple(rng.choices(range(r), k=rng.randint(0, 5))) for _ in range(r))
            morphisms.append(Morphism(Alphabet(tuple("abcdef"[:r])), images))
        for m in morphisms:
            assert len(m.incidence) == len(m.alphabet)
            assert tuple(map(sum, zip(*dense(m.incidence)))) == m.lengths, m

    @pytest.mark.parametrize("check", _ENTRY_POINTS)
    @pytest.mark.parametrize("rows", [(((0, 1), (2, 1)), ((0, 1),)), (((-1, 1),), ((0, 1),))])
    def test_column_index_outside_the_matrix_is_a_value_error(self, check, rows):
        with pytest.raises(ValueError, match="column index"):
            check(rows)

    @pytest.mark.parametrize("check", _ENTRY_POINTS)
    def test_zero_pairs_are_rejected(self, check):
        # a pair is an edge of the support digraph, so a zero one would be a false edge
        with pytest.raises(ValueError, match="no zero entry"):
            check((((0, 1), (1, 0)), ((0, 1),)))

    @pytest.mark.parametrize("coeffs", [(), (2, 1), (-1, 0)])
    def test_polynomial_must_be_monic(self, coeffs):
        with pytest.raises(ValueError, match="monic"):
            IntPolynomial(coeffs)

    def test_deflate_at_a_non_root(self):
        # x^2 - 3x + 2 = (x - 1)(x - 2) = x (x - 3) + 2
        assert linalg._deflate((1, -3, 2), 2) == ((1, -1), 0)
        assert linalg._deflate((1, -3, 2), 3) == ((1, 0), 2)

    def test_left_eigencheck_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            left_eigencheck((1, 1, 1), ((1, 1), (1, 0)))

    @pytest.mark.parametrize("tol", [0, -1, Fraction(-1, 3)])
    def test_radius_bracket_needs_a_positive_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            radius_bracket(sparse(((1, 1), (1, 0))), tol)
