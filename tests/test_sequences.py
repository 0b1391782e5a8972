from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from morphauto import (
    Alphabet,
    factor_complexity,
    parse_morphism,
    sturmian_witness,
)
from morphauto.constructions import minimize_uniform, reshuffle_uniformize

from oracles import (
    column_sum_scan_perron,
    dense,
    empirical_frequencies,
    golden_ratio_frequencies,
    naive_factor_count,
    naive_iterate,
    prefix_equal,
    rules_of,
)
from strategies import PROPERTY, prolongable_specs


class TestPrefixEqual:
    def test_lysenok_vs_psi(self, lysenok, lysenok_psi):
        assert prefix_equal(lysenok, lysenok_psi, 10_000)

    def test_reflexive(self, lysenok, fibonacci, benli):
        for spec in (lysenok, fibonacci, benli):
            assert prefix_equal(spec, spec, 3000)

    def test_istrail_vs_minimized(self, istrail):
        rep = minimize_uniform(reshuffle_uniformize(istrail))
        assert prefix_equal(istrail, rep, 10_000)

    def test_detects_differences(self, thue_morse, period_doubling):
        assert not prefix_equal(thue_morse, period_doubling, 100)


class TestFactorComplexity:
    def test_sturmian_profile(self, fib_bc):
        profile = factor_complexity(fib_bc, n_max=30, prefix_length=10_000)
        assert profile.counts == tuple(n + 1 for n in range(1, 31))
        assert profile.validity_margin == 10_000 - 30

    def test_constant_sequence(self):
        spec = parse_morphism("letters: a\na -> aa")
        profile = factor_complexity(spec, n_max=10, prefix_length=200)
        assert profile.counts == (1,) * 10

    def test_thue_morse_small_windows(self, thue_morse):
        # oracle: brute-force counts over an independently generated prefix
        word = naive_iterate(rules_of(thue_morse), "0", 4096)
        assert [naive_factor_count(word, n) for n in (1, 2, 3)] == [2, 4, 6]
        profile = factor_complexity(thue_morse, n_max=3, prefix_length=4096)
        assert profile.counts == (2, 4, 6)

    def test_margin_violation(self, thue_morse):
        with pytest.raises(ValueError, match="too short"):
            factor_complexity(thue_morse, n_max=30, prefix_length=100)

    def test_window_growth_bounds(self, lysenok):
        profile = factor_complexity(lysenok, n_max=20, prefix_length=8000)
        size = len(lysenok.morphism.alphabet)
        for n in range(2, 21):
            assert profile.p(n) >= profile.p(n - 1)
            assert profile.p(n) <= size * profile.p(n - 1)


class TestFactorComplexityOracle:
    @PROPERTY
    @given(prolongable_specs(), st.data())
    def test_matches_brute_force_count(self, drawn, data):
        # Prefixes of at most 200 letters: 200 rewriting rounds of a
        # prolongable seed always reach them.
        prefix_length = data.draw(st.integers(4, 200))
        largest = prefix_length // 4
        n_max = data.draw(st.one_of(st.just(largest), st.integers(1, largest)))
        word = drawn.code(naive_iterate(drawn.rules, drawn.seed, prefix_length))
        profile = factor_complexity(drawn.spec, n_max, prefix_length)
        assert profile.counts == tuple(naive_factor_count(word, n) for n in range(1, n_max + 1))
        with pytest.raises(ValueError, match="too short"):
            factor_complexity(drawn.spec, largest + 1, prefix_length)

    def test_multi_character_tokens(self):
        text = "letters: x1 x2 yy\nx1 -> x1 x2 yy\nx2 -> yy x1\nyy -> x2\nseed: x1\n"
        rules = {"x1": ["x1", "x2", "yy"], "x2": ["yy", "x1"], "yy": ["x2"]}
        word = naive_iterate(rules, "x1", 2000)
        coded = [{"x1": "p0", "x2": "p0", "yy": "q1"}[t] for t in word]
        plain = parse_morphism(text)
        merged = parse_morphism(text + "coding: x1->p0, x2->p0, yy->q1\n")
        for spec, oracle_word in ((plain, word), (merged, coded)):
            profile = factor_complexity(spec, n_max=25, prefix_length=2000)
            assert profile.counts == tuple(
                naive_factor_count(oracle_word, n) for n in range(1, 26)
            )

    @pytest.mark.parametrize(
        "size, targets",
        [(255, None), (256, None), (257, None), (600, None), (700, 257), (300, 200)],
    )
    def test_large_output_alphabets(self, size, targets):
        # Letters are packed one, two, ... bytes wide by the size of the
        # output alphabet: 256 letters still fit one byte, 257 do not.  The
        # prefixes themselves are bytes exactly up to 256 letters.
        letters = [f"x{i}" for i in range(size)]
        rules = {
            f"x{i}": [f"x{2 * i % size}", f"x{(5 * i + 1) % size}"]
            + ([f"x{(7 * i + 3) % size}"] if i % 3 == 0 else [])
            for i in range(size)
        }
        text = f"letters: {' '.join(letters)}\n"
        text += "".join(f"{tok} -> {' '.join(img)}\n" for tok, img in rules.items())
        text += "seed: x0\n"
        coding = None
        if targets is not None:
            coding = {tok: f"y{i % targets}" for i, tok in enumerate(letters)}
            text += "coding: " + ", ".join(f"{k}->{v}" for k, v in coding.items()) + "\n"
        spec = parse_morphism(text)
        assert len(spec.output_alphabet) == (targets or size)
        uncoded = naive_iterate(rules, "x0", 3000)
        word = uncoded if coding is None else [coding[t] for t in uncoded]
        for n in (0, 3000):
            for prefix, alphabet, tokens in (
                (spec.uncoded_prefix(n), spec.morphism.alphabet, uncoded),
                (spec.coded_prefix(n), spec.output_alphabet, word),
            ):
                assert type(prefix) is (bytes if len(alphabet) <= 256 else tuple)
                assert list(prefix) == [alphabet.index(t) for t in tokens[:n]]
        # indices i and i + 256 both occur, so counting letters modulo 256
        # (one byte per letter whatever the alphabet) would merge factors
        occurring = {spec.output_alphabet.index(t) for t in word}
        assert any(i + 256 in occurring for i in occurring) == (len(spec.output_alphabet) > 256)
        profile = factor_complexity(spec, n_max=12, prefix_length=3000)
        assert profile.counts == tuple(naive_factor_count(word, n) for n in range(1, 13))

    def test_constant_coded_word(self, fib_constant):
        profile = factor_complexity(fib_constant, n_max=30, prefix_length=10_000)
        assert profile.counts == (1,) * 30
        ok, _ = sturmian_witness(fib_constant, 30, 10_000)
        assert not ok


@cache
def numbered_alphabet(size: int) -> Alphabet:
    return Alphabet(tuple(f"x{i}" for i in range(size)))


@dataclass(frozen=True)
class GivenWord:
    """A fixed word, with what factor_complexity reads of a spec."""

    word: tuple[int, ...]
    letters: int

    @property
    def output_alphabet(self) -> Alphabet:
        return numbered_alphabet(self.letters)

    def coded_prefix(self, n: int) -> bytes | tuple[int, ...]:
        """The first n letters, in the format a spec returns them in."""
        assert n <= len(self.word)
        return bytes(self.word[:n]) if self.output_alphabet.packed else self.word[:n]


# One, two and four bytes a letter; indices that differ in one byte only.
SCAN_SIZES = (1, 2, 3, 257, 70_000)
SCAN_INDICES = (0, 1, 2, 255, 256, 65_535, 65_536)


@st.composite
def scanned_words(draw):
    """A word with n_max and a prefix length at least 4 * n_max that is not
    a multiple of the scan's chunk of n_max // 2 letters (when it exceeds
    one): random, periodic, or a morphic fixed point relabelled into a large
    alphabet."""
    letters = draw(st.sampled_from(SCAN_SIZES))
    n_max = draw(st.integers(1, 40))
    length = 4 * n_max + draw(st.integers(0, 100))
    chunk = max(1, n_max // 2)
    if chunk > 1 and length % chunk == 0:
        length += 1
    candidates = sorted({c for c in SCAN_INDICES if c < letters} | {letters - 1})
    pool = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=5, unique=True))
    kind = draw(st.sampled_from(("random", "periodic", "morphic")))
    if kind == "random":
        word = draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))
    elif kind == "periodic":
        period = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
        word = (period * (length // len(period) + 1))[:length]
    else:
        fixed_point = draw(prolongable_specs()).spec.uncoded_prefix(length)
        word = [pool[c % len(pool)] for c in fixed_point]
    return GivenWord(tuple(word), letters), n_max, length


class TestWindowScan:
    """factor_complexity slices windows only from the distinct chunks of
    n_max // 2 letters, each extended by the n_max - 1 letters after it."""

    @PROPERTY
    @given(scanned_words())
    def test_matches_brute_force_count(self, drawn):
        source, n_max, length = drawn
        profile = factor_complexity(source, n_max, length)
        assert profile.counts == tuple(
            naive_factor_count(source.word, n) for n in range(1, n_max + 1)
        )

    def test_factor_across_a_chunk_boundary(self):
        # n_max = 8 cuts chunks of 4 letters.  The only 8-letter factor that
        # holds both 1 and 2 starts at position 3, the last of the first
        # chunk, and ends on the last letter of that chunk's extension.
        word = [0] * 41
        word[3], word[10] = 1, 2
        profile = factor_complexity(GivenWord(tuple(word), 3), 8, 41)
        assert profile.counts == tuple(naive_factor_count(word, n) for n in range(1, 9))

    def test_new_factor_in_the_last_letters(self):
        # The letter 1 and the factor 0 1 occur only in the last n_max - 1
        # letters, where the windows are shorter than n_max.
        word = [0] * 40 + [1]
        profile = factor_complexity(GivenWord(tuple(word), 2), 8, 41)
        assert profile.counts == tuple(naive_factor_count(word, n) for n in range(1, 9))
        assert profile.counts[:2] == (2, 2)


class TestSturmianWitness:
    def test_fib_bc(self, fib_bc):
        ok, profile = sturmian_witness(fib_bc, 30, 10_000)
        assert ok and profile.p(30) == 31

    def test_fib_cd(self, fib_cd):
        ok, _ = sturmian_witness(fib_cd, 30, 10_000)
        assert ok

    def test_block_sturmian_and_prefix(self, nekra_blocks):
        assert nekra_blocks.prefix(11) == tuple("ABABAABAABA")
        ok, _ = sturmian_witness(nekra_blocks, 30, 10_000)
        assert ok

    def test_thue_morse_is_not(self, thue_morse):
        ok, profile = sturmian_witness(thue_morse, 10, 2000)
        assert not ok and profile.p(2) == 4


class TestEmpiricalFrequencies:
    def test_period_doubling_near_perron(self, period_doubling):
        n = 3 * 2**10
        emp = empirical_frequencies(period_doubling, n)
        perron = column_sum_scan_perron(dense(period_doubling.morphism.incidence))
        assert max(abs(e - p) for e, p in zip(emp, perron)) <= Fraction(10, n)

    def test_constant(self):
        spec = parse_morphism("letters: a\na -> aa")
        assert empirical_frequencies(spec, 100) == (Fraction(1),)

    def test_fibonacci_irrational_frequencies(self, fibonacci):
        emp = empirical_frequencies(fibonacci, 10_000)
        inv_phi, complement = golden_ratio_frequencies()
        assert abs(emp[0] - inv_phi) < Fraction(1, 1000)
        assert abs(emp[1] - complement) < Fraction(1, 1000)
        assert column_sum_scan_perron(dense(fibonacci.morphism.incidence)) is None

    def test_two_scale_improvement(self, period_doubling, thue_morse, lysenok_psi):
        # the deviation bound C/N must hold at N and keep holding at 2N
        for spec in (period_doubling, thue_morse, lysenok_psi):
            perron = column_sum_scan_perron(dense(spec.morphism.incidence))
            for n in (3001, 6002):
                emp = empirical_frequencies(spec, n)
                bound = Fraction(16, n)
                assert max(abs(e - p) for e, p in zip(emp, perron)) <= bound

    @PROPERTY
    @given(prolongable_specs(), st.integers(1, 200))
    def test_matches_letter_count(self, drawn, n):
        word = drawn.code(naive_iterate(drawn.rules, drawn.seed, n))
        # output-alphabet order: the letters, or the targets as the coding line names them
        order = list(dict.fromkeys(drawn.code(list(drawn.rules))))
        assert empirical_frequencies(drawn.spec, n) == tuple(
            Fraction(word.count(tok), n) for tok in order
        )

    def test_sums_to_one(self, lysenok, berstel):
        for spec in (lysenok, berstel):
            assert sum(empirical_frequencies(spec, 777)) == 1


class TestInputChecks:
    def test_factor_complexity_needs_a_window(self, thue_morse):
        with pytest.raises(ValueError, match="n_max must be positive"):
            factor_complexity(thue_morse, n_max=0, prefix_length=100)

    @pytest.mark.parametrize("length", [0, -3])
    def test_frequencies_need_a_prefix(self, thue_morse, length):
        with pytest.raises(ValueError, match="prefix length must be positive"):
            empirical_frequencies(thue_morse, length)
