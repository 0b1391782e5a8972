import pytest
from hypothesis import given

from morphauto import (
    Alphabet,
    Coding,
    CriterionNotSatisfied,
    Morphism,
    UniformRepresentation,
    block_morphism,
    cup_transform,
    minimize_uniform,
    parse_morphism,
    reshuffle_uniformize,
    verify_back,
)
from morphauto.constructions import BlockConstructionError, representation_from_spec

from oracles import block_to_uniform, iso_equivalent, naive_iterate, prefix_equal, rules_of
from strategies import PROPERTY, prolongable_specs

COLLIDING_BLOCKS = (
    "letters: a+b c a b+c\n"
    "a+b -> a+b c a b+c\n"
    "c -> c c\n"
    "a -> a b+c\n"
    "b+c -> a+b c\n"
    "seed: a+b\n"
)


def flattened(blk, n: int) -> tuple[str, ...]:
    """The first n letters of a block morphism's flattened fixed point."""
    return blk.source.alphabet.tokens(blk.flatten_prefix(n))


def morphism_shape(m: Morphism, seed: int):
    """Canonical image structure under breadth-first renaming from the seed."""
    names = {seed: 0}
    order = [seed]
    pos = 0
    while pos < len(order):
        for child in m.image(order[pos]):
            if child not in names:
                names[child] = len(names)
                order.append(child)
        pos += 1
    assert len(order) == len(m.alphabet)
    return tuple(tuple(names[c] for c in m.image(letter)) for letter in order)


class TestUniformRepresentation:
    def test_rejects_a_non_uniform_morphism(self, istrail):
        coding = Coding.identity(istrail.morphism.alphabet)
        with pytest.raises(ValueError, match="must be uniform"):
            UniformRepresentation(istrail.morphism, istrail.seed, coding)

    def test_rejects_a_missing_coding(self, thue_morse):
        with pytest.raises(ValueError, match="needs a coding"):
            UniformRepresentation(thue_morse.morphism, thue_morse.seed, None)


class TestReshuffle:
    def test_istrail_worked_example(self, istrail):
        rep = reshuffle_uniformize(istrail)
        assert rep.q == 2
        a = rep.morphism.alphabet
        assert a.letters == ("0.1", "0.2", "1.1", "1.2", "1.3", "2.1")
        images = {
            tok: a.render(rep.morphism.image(a.index(tok))) for tok in a.letters
        }
        assert images == {
            "0.1": "1.1 1.2",
            "0.2": "1.3 2.1",
            "1.1": "1.1 1.2",
            "1.2": "1.3 0.1",
            "1.3": "0.2 2.1",
            "2.1": "0.1 0.2",
        }
        coding = {
            tok: rep.coding.target.letters[rep.coding.table[a.index(tok)]]
            for tok in a.letters
        }
        assert coding == {"0.1": "1", "0.2": "2", "1.1": "1", "1.2": "0", "1.3": "2", "2.1": "0"}
        assert a.letters[rep.seed] == "1.1"

    def test_uniform_input_refines_to_itself(self, thue_morse):
        rep = reshuffle_uniformize(thue_morse)
        assert rep.q == 2
        assert prefix_equal(rep, thue_morse, 5000)
        merged = minimize_uniform(rep)
        assert iso_equivalent(merged, representation_from_spec(thue_morse)) is not None

    def test_anagram_example_sizes(self, anagram7):
        rep = reshuffle_uniformize(anagram7)
        assert len(rep.morphism.alphabet) == sum(anagram7.morphism.lengths) == 24
        assert rep.q == 7
        assert prefix_equal(rep, anagram7, 10_000)

    def test_expansion_counting_identity(self, istrail, anagram7):
        for spec in (istrail, anagram7):
            rep = reshuffle_uniformize(spec)
            assert sum(rep.morphism.lengths) == rep.q * len(rep.morphism.alphabet)

    def test_criterion_failure_raises(self, lysenok):
        with pytest.raises(CriterionNotSatisfied):
            reshuffle_uniformize(lysenok)

    def test_erasing_morphism_raises(self):
        spec = parse_morphism("letters: a b\na -> ab\nb ->")
        with pytest.raises(CriterionNotSatisfied, match="non-erasing"):
            reshuffle_uniformize(spec)

    def test_coded_spec_gives_a_coded_certificate(self, berstel):
        # the certificate applies the spec's coding: it writes over the
        # spec's output alphabet and reproduces its coded fixed point
        rep = reshuffle_uniformize(berstel)
        assert rep.coding.target == berstel.output_alphabet
        assert rep.coding.target.letters == ("0", "1", "2")
        assert rep.coded_prefix(5000) == berstel.coded_prefix(5000)


class TestMinimize:
    def test_istrail_becomes_berstel(self, istrail, berstel):
        rep = minimize_uniform(reshuffle_uniformize(istrail))
        assert len(rep.morphism.alphabet) == 4
        assert rep.q == 2
        iso = iso_equivalent(rep, representation_from_spec(berstel))
        assert iso is not None
        assert iso[rep.morphism.alphabet.letters[rep.seed]] == "1"

    def test_idempotent(self, istrail, berstel, tm_cube):
        for spec in (istrail, berstel, tm_cube):
            if spec is istrail:
                rep = reshuffle_uniformize(spec)
            else:
                rep = representation_from_spec(spec)
            once = minimize_uniform(rep)
            assert minimize_uniform(once) == once

    def test_duplicate_letter_is_merged(self):
        # two letters with identical images and identical coding outputs
        alpha = Alphabet(("x", "y", "z"))
        target = Alphabet(("0", "1"))
        m = Morphism(alpha, ((0, 1), (2, 0), (2, 0)))  # y and z are clones
        rep = UniformRepresentation(m, 0, Coding(alpha, target, (0, 1, 1)))
        merged = minimize_uniform(rep)
        assert len(merged.morphism.alphabet) == 2
        assert prefix_equal(merged, rep, 2000)

    def test_never_changes_the_coded_fixed_point(self, istrail):
        rep = reshuffle_uniformize(istrail)
        assert prefix_equal(minimize_uniform(rep), rep, 10_000)


class TestIso:
    def test_reflexive(self, berstel, tm_cube):
        for spec in (berstel, tm_cube):
            rep = representation_from_spec(spec)
            iso = iso_equivalent(rep, rep)
            assert iso == {tok: tok for tok in rep.morphism.alphabet.letters}

    def test_symmetric(self, istrail, berstel):
        rep = minimize_uniform(reshuffle_uniformize(istrail))
        ber = representation_from_spec(berstel)
        fwd, back = iso_equivalent(rep, ber), iso_equivalent(ber, rep)
        assert fwd is not None and back is not None
        assert {v: k for k, v in fwd.items()} == back

    def test_different_sizes_fail(self, berstel, thue_morse):
        assert iso_equivalent(
            representation_from_spec(berstel), representation_from_spec(thue_morse)
        ) is None

    @staticmethod
    def uniform(images, table, outputs=("0", "1")):
        alpha = Alphabet(("x", "y", "z")[: len(images)])
        return UniformRepresentation(Morphism(alpha, images), 0, Coding(alpha, Alphabet(outputs), table))

    def test_different_q_fails(self, thue_morse, tm_cube):
        assert iso_equivalent(
            representation_from_spec(thue_morse), representation_from_spec(tm_cube)
        ) is None

    def test_different_alphabet_sizes_fail(self, thue_morse):
        three = self.uniform(((0, 1), (2, 0), (0, 0)), (0, 1, 1))
        assert iso_equivalent(representation_from_spec(thue_morse), three) is None

    def test_coding_output_mismatch_fails(self, thue_morse):
        swapped = self.uniform(((0, 1), (1, 0)), (1, 0))
        assert iso_equivalent(representation_from_spec(thue_morse), swapped) is None

    def test_image_conflict_fails(self, thue_morse, period_doubling):
        # the seeds match, then 1 -> 10 meets 1 -> 00 at position 0
        assert iso_equivalent(
            representation_from_spec(thue_morse), representation_from_spec(period_doubling)
        ) is None

    def test_non_injective_match_fails(self):
        # y -> zy would send both z and y to y
        first = self.uniform(((0, 1), (2, 1), (2, 0)), (0, 0, 0), ("0",))
        second = self.uniform(((0, 1), (1, 1), (2, 2)), (0, 0, 0), ("0",))
        assert iso_equivalent(first, second) is None

    def test_unreached_letter_fails(self):
        rep = self.uniform(((0, 1), (1, 0), (2, 2)), (0, 1, 0))
        assert iso_equivalent(rep, rep) is None


class TestBlocks:
    def test_lysenok_two_blocks(self, lysenok):
        blk = block_morphism(lysenok, 2)
        assert set(blk.morphism.alphabet.letters) == {"ab", "ac", "ad"}
        expected = parse_morphism(
            "letters: 2 1 3\n2 -> 21\n1 -> 23\n3 -> 22\nseed: 2"
        )
        assert morphism_shape(blk.morphism, blk.seed_block) == morphism_shape(
            expected.morphism, expected.seed
        )

    def test_acaba_four_uniform(self, acaba):
        blk = block_morphism(acaba, 2)
        assert blk.morphism.uniform_length == 4
        expected = parse_morphism(
            "letters: ac ab\nac -> ac ab ac ab\nab -> ac ab ab ac\nseed: ac"
        )
        assert morphism_shape(blk.morphism, blk.seed_block) == morphism_shape(
            expected.morphism, expected.seed
        )

    def test_period_doubling_shape(self, muntyan_pd, period_doubling):
        blk = block_morphism(muntyan_pd, 2)
        assert morphism_shape(blk.morphism, blk.seed_block) == morphism_shape(
            period_doubling.morphism, period_doubling.seed
        )

    def test_flattening_reproduces_fixed_point(self, lysenok, acaba, muntyan_pd):
        for spec in (lysenok, acaba, muntyan_pd):
            blk = block_morphism(spec, 2)
            assert flattened(blk, 10_000) == spec.prefix(10_000)

    @pytest.mark.parametrize(
        "text, k",
        [
            ("letters: a b\na -> aab\nb -> bba\nseed: a", 3),
            ("letters: a b c\na -> abcabc\nb -> cab\nc -> bca\nseed: a", 3),
            ("letters: a b\na -> abba\nb -> baab\nseed: a", 4),
        ],
        ids=["aab-bba", "abcabc-cab-bca", "thue-morse-4"],
    )
    def test_flattening_longer_blocks(self, text, k):
        spec = parse_morphism(text)
        blk = block_morphism(spec, k)
        for n in (1, k + 1, 1000, 1001):
            assert flattened(blk, n) == spec.prefix(n)

    def test_blocks_that_render_alike_get_distinct_tokens(self):
        # the 2-blocks (a+b, c) and (a, b+c) both render as a+b+c
        spec = parse_morphism(COLLIDING_BLOCKS)
        blk = block_morphism(spec, 2)
        assert blk.morphism.alphabet.letters == ("a+b+c", "a+b+c'", "c+c")
        assert blk.blocks[:2] == ((0, 1), (2, 3))
        assert flattened(blk, 1000) == spec.prefix(1000)

    def test_divisibility_failure_reports_block(self, fib_bc):
        with pytest.raises(BlockConstructionError) as err:
            block_morphism(fib_bc, 2)
        assert err.value.block is not None

    def test_failure_keeps_the_whole_block(self, fibonacci):
        with pytest.raises(BlockConstructionError) as err:
            block_morphism(fibonacci, 30)
        assert err.value.block == "010010100100101001010010010100"
        assert str(err.value).startswith("image of block '0100101001001010…' (30 letters) has length 49")

    def test_k_must_be_at_least_two(self, lysenok):
        with pytest.raises(ValueError):
            block_morphism(lysenok, 1)

    @PROPERTY
    @given(prolongable_specs())
    def test_uniform_block_morphisms_give_uniform_position_letters(self, drawn):
        # any q-uniform k-block morphism, whatever k and q, yields the
        # q-uniform morphism on the letters (B, j) whose coded fixed point
        # is the input; the oracle rewrites 200 rounds, a letter per round
        # unless the seed recurs in its own image
        n = 1000 if drawn.doubling else 200
        expected = drawn.code(naive_iterate(drawn.rules, drawn.seed, n))
        for k in range(2, 9):
            try:
                blk = block_morphism(drawn.spec, k)
            except BlockConstructionError:
                continue
            q = blk.morphism.uniform_length
            if q is None or q < 2:
                continue
            rules, seed, output = block_to_uniform(blk, drawn.coding)
            assert {len(img) for img in rules.values()} == {q}
            assert [output[t] for t in naive_iterate(rules, seed, n)] == expected


class TestCup:
    def test_worked_example(self, tm_cube):
        rep = representation_from_spec(tm_cube)
        spec = cup_transform(rep, pair_position=3, split_index=1)
        a = spec.morphism.alphabet
        assert a.letters == ("0", "1", "0'", "1'")
        assert a.render(spec.morphism.image(0)) == "0 1 1 0' 1' 0 0 1"
        assert a.render(spec.morphism.image(1)) == "1 0 0 1 0 1 1 0"
        assert a.render(spec.morphism.image(2)) == "0"
        assert a.render(spec.morphism.image(3)) == "1 1 0 1 0 0 1 1 0 0 1 0 1 1 0"
        # projection sends the primed letters back to their bases
        coded = spec.coding
        assert coded.target.letters[coded.table[2]] == "0"
        assert coded.target.letters[coded.table[3]] == "1"

    def test_symmetric_split(self, tm_cube):
        rep = representation_from_spec(tm_cube)
        spec = cup_transform(rep, pair_position=3, split_index=8)
        assert spec.morphism.image(2) == rep.morphism.image(0)
        assert spec.morphism.image(3) == rep.morphism.image(1)

    def test_zero_split_is_rejected(self, tm_cube):
        rep = representation_from_spec(tm_cube)
        with pytest.raises(ValueError):
            cup_transform(rep, pair_position=3, split_index=0)

    def test_pair_position_zero_is_rejected(self, tm_cube):
        rep = representation_from_spec(tm_cube)
        with pytest.raises(ValueError):
            cup_transform(rep, pair_position=0, split_index=1)

    def test_length_vector_structure(self, tm_cube):
        rep = representation_from_spec(tm_cube)
        for s in range(1, 16):
            spec = cup_transform(rep, pair_position=3, split_index=s)
            lengths = spec.morphism.lengths
            assert lengths[:2] == (8, 8)
            z = spec.morphism.image(2)
            m0 = sum(1 for c in z if c == 0)
            m1 = sum(1 for c in z if c == 1)
            assert lengths[2] == m0 + m1 == s
            assert lengths[3] == 16 - m0 - m1

    def test_verify_back_all_splits(self, tm_cube, thue_morse):
        rep = representation_from_spec(tm_cube)
        for s in range(1, 16):
            spec = cup_transform(rep, pair_position=3, split_index=s)
            assert verify_back(spec.morphism) == 8
            assert prefix_equal(spec, thue_morse, 4000)

    def test_broken_transform_fails_verify_back(self, tm_cube):
        rep = representation_from_spec(tm_cube)
        spec = cup_transform(rep, pair_position=3, split_index=1)
        images = list(spec.morphism.images)
        images[3] = images[3] + (0,)  # perturb t by one extra letter
        broken = Morphism(spec.morphism.alphabet, tuple(images))
        assert verify_back(broken) is None

    def test_coded_representation_is_rejected(self, berstel):
        with pytest.raises(ValueError):
            cup_transform(representation_from_spec(berstel), pair_position=1, split_index=1)

    def test_repeated_pair_letters_get_distinct_names(self, tm_cube):
        rep = representation_from_spec(tm_cube)
        spec = cup_transform(rep, pair_position=1, split_index=3)
        # pair at positions 1, 2 of 01101001 is "11"
        assert spec.morphism.alphabet.letters == ("0", "1", "1'", "1''")
        assert prefix_equal(spec, tm_cube, 4000)


class TestAgainstOracle:
    def test_reshuffle_prefix_matches_naive_expansion(self, istrail):
        rep = minimize_uniform(reshuffle_uniformize(istrail))
        expected = naive_iterate(rules_of(istrail), "1", 300)
        assert list(rep.prefix(300)) == expected
