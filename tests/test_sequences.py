from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from morphauto import (
    empirical_frequencies,
    factor_complexity,
    incidence,
    parse_morphism,
    perron_frequencies,
    prefix_equal,
    sturmian_witness,
)
from morphauto.constructions import minimize_uniform, reshuffle_uniformize

from oracles import golden_ratio_frequencies, naive_factor_count, naive_iterate, rules_of
from strategies import PROPERTY, prolongable_specs


class TestPrefixEqual:
    def test_lysenok_vs_psi(self, lysenok, lysenok_psi):
        assert prefix_equal(lysenok, lysenok_psi, 10_000)

    def test_reflexive(self, lysenok, fibonacci, benli):
        for spec in (lysenok, fibonacci, benli):
            assert prefix_equal(spec, spec, 3000)

    def test_istrail_vs_minimized(self, istrail):
        rep = minimize_uniform(reshuffle_uniformize(istrail.morphism, istrail.seed))
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
        "size, targets", [(255, None), (256, None), (257, None), (600, None), (700, 257)]
    )
    def test_large_output_alphabets(self, size, targets):
        # Letters are packed one, two, ... bytes wide by the size of the
        # output alphabet: 256 letters still fit one byte, 257 do not.
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
        word = naive_iterate(rules, "x0", 3000)
        if coding is not None:
            word = [coding[t] for t in word]
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
        perron = perron_frequencies(incidence(period_doubling.morphism).matrix)
        assert max(abs(e - p) for e, p in zip(emp, perron)) <= Fraction(10, n)

    def test_constant(self):
        spec = parse_morphism("letters: a\na -> aa")
        assert empirical_frequencies(spec, 100) == (Fraction(1),)

    def test_fibonacci_irrational_frequencies(self, fibonacci):
        emp = empirical_frequencies(fibonacci, 10_000)
        inv_phi, complement = golden_ratio_frequencies()
        assert abs(emp[0] - inv_phi) < Fraction(1, 1000)
        assert abs(emp[1] - complement) < Fraction(1, 1000)
        assert perron_frequencies(incidence(fibonacci.morphism).matrix) is None

    def test_two_scale_improvement(self, period_doubling, thue_morse, lysenok_psi):
        # the deviation bound C/N must hold at N and keep holding at 2N
        for spec in (period_doubling, thue_morse, lysenok_psi):
            perron = perron_frequencies(incidence(spec.morphism).matrix)
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
