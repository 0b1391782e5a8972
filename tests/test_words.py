import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from morphauto import (
    Alphabet,
    Coding,
    InternalCheckError,
    MorphParseError,
    Morphism,
    MorphicSpec,
    SpecError,
    parse_morphism,
)

from oracles import compose, naive_apply, naive_iterate, parikh_vector, power, restrict, rules_of, word
from strategies import PROPERTY, prolongable_specs


LYSENOK_TEXT = "letters: a b c d\na -> aca\nb -> d\nc -> b\nd -> c\nseed: a"

# (id, text, message fragment, 1-based line or None for a whole-file error)
MALFORMED = [
    ("duplicate-letters", "letters: a\nletters: a\na -> a", "duplicate letters declaration", 2),
    ("duplicate-seed", "letters: a\na -> aa\nseed: a\nseed: a", "duplicate seed declaration", 4),
    ("duplicate-coding", "letters: a\na -> aa\ncoding: a->x\ncoding: a->x", "duplicate coding declaration", 4),
    ("letter-declared-twice", "letters: a b a", "duplicate letter in declaration", 1),
    ("letter-holding-an-arrow", "letters: a->b c", "letter 'a->b' holds '->' or ','", 1),
    ("letter-holding-a-comma", "letters: a,b c", "letter 'a,b' holds '->' or ','", 1),
    ("letter-read-as-a-letters-header", "letters: letters:a b\nletters:a -> b\nb -> b", "letter 'letters:a' reads as a letters: header", 1),
    ("letter-read-as-a-seed-header", "letters: seed:a b\nseed:a -> seed:a b\nb -> b", "letter 'seed:a' reads as a seed: header", 1),
    ("letter-read-as-a-coding-header", "letters: x coding:y\nx -> x\ncoding:y -> x", "letter 'coding:y' reads as a coding: header", 1),
    ("empty-letters", "# no letters follow\nletters:\n", "empty letters declaration", 2),
    ("seed-of-two-letters", "letters: a b\na -> ab\nb -> a\nseed: a b", "seed wants exactly one letter", 4),
    ("coding-pair-without-arrow", "letters: a\na -> aa\ncoding: a x", "bad coding pair 'a x'", 3),
    ("coding-pair-with-empty-side", "letters: a\na -> aa\ncoding: a->", "bad coding pair 'a->'", 3),
    ("coding-target-with-a-space", "letters: a b\na -> ab\nb -> a\ncoding: a->0 1, b->1", "bad coding pair 'a->0 1'", 4),
    ("rule-before-letters", "a -> aa\nletters: a", "rule before letters declaration", 1),
    ("rule-for-undeclared-letter", "letters: a\na -> aa\nb -> a", "rule for undeclared letter 'b'", 3),
    ("unrecognised-line", "letters: a\na -> aa\nhello", "unrecognised line 'hello'", 3),
    ("no-letters", "# nothing here\n", "missing letters declaration", None),
    ("undeclared-seed", "letters: a\na -> aa\nseed: z", "seed 'z' is not a declared letter", 3),
    ("coding-of-undeclared-letter", "letters: a\na -> aa\ncoding: a->x, z->y", "coding maps undeclared letter 'z'", 3),
    ("letter-coded-twice", "letters: a\na -> aa\ncoding: a->x, a->y", "coding maps 'a' twice", 3),
    ("coding-missing-a-letter", "letters: a b\na -> ab\nb -> a\ncoding: a->x", "coding is missing letter 'b'", 4),
]

MALFORMED_LINES = sorted({ln for _, text, _, _ in MALFORMED for ln in text.splitlines()})


@st.composite
def malformed_mixes(draw):
    """The lines of a MALFORMED text, maybe one of them dropped, with up to
    three of MALFORMED's lines inserted anywhere: valid texts, and
    malformed ones of every kind."""
    lines = draw(st.sampled_from(MALFORMED))[1].splitlines()
    if lines and draw(st.booleans()):
        del lines[draw(st.integers(0, len(lines) - 1))]
    for line in draw(st.lists(st.sampled_from(MALFORMED_LINES), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


class TestParse:
    def test_lysenok(self):
        spec = parse_morphism(LYSENOK_TEXT)
        assert spec.morphism.alphabet.letters == ("a", "b", "c", "d")
        assert spec.seed_token == "a"
        assert spec.morphism.image(0) == (0, 2, 0)

    def test_leading_byte_order_mark_is_dropped(self):
        # as some editors write at the start of a UTF-8 file
        assert parse_morphism("\ufeff" + LYSENOK_TEXT) == parse_morphism(LYSENOK_TEXT)

    def test_identity_spec_parses_with_default_seed(self):
        spec = parse_morphism("letters: x\nx -> x")
        assert spec.seed_token == "x"
        assert spec.morphism.image(0) == (0,)

    def test_undeclared_letter_is_an_error(self):
        with pytest.raises(MorphParseError) as err:
            parse_morphism("letters: a\na -> b")
        assert "b" in str(err.value)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, column",
        [
            pytest.param("letters: a b\nb -> x", 6, id="single-character"),
            pytest.param("letters: ab c\nab -> a c", 7, id="token-inside-the-left-side"),
            pytest.param("letters: ab c\nc -> ab a", 9, id="token-inside-an-earlier-token"),
            pytest.param("letters: a b\na -> a-b", 7, id="character-of-the-arrow"),
            pytest.param("letters: ab c\n  ab  ->  ab   c  abc", 19, id="indented-and-spaced"),
            pytest.param("letters: a b\na -> a x y", 8, id="first-of-two"),
        ],
    )
    def test_undeclared_image_letter_names_its_column(self, text, column):
        with pytest.raises(MorphParseError) as err:
            parse_morphism(text)
        assert "undeclared letter" in str(err.value)
        assert (err.value.line, err.value.column) == (2, column)

    def test_duplicate_rule_is_an_error(self):
        with pytest.raises(MorphParseError, match="duplicate rule"):
            parse_morphism("letters: a\na -> aa\na -> a")

    def test_missing_rule_is_an_error(self):
        with pytest.raises(MorphParseError, match="missing rule"):
            parse_morphism("letters: a b\na -> ab")

    def test_multi_character_tokens(self):
        spec = parse_morphism("letters: 1 1* 2 2*\n1 -> 2\n1* -> 2*\n2 -> 1* 2*\n2* -> 2 1\nseed: 2*")
        assert spec.morphism.image(3) == (2, 0)
        assert spec.morphism.alphabet.render(spec.morphism.image(2)) == "1* 2*"

    def test_multi_character_tokens_need_spaces(self):
        with pytest.raises(MorphParseError):
            parse_morphism("letters: 1 1* 2\n1 -> 11*\n1* -> 2\n2 -> 1")

    def test_comments_and_blank_lines(self):
        spec = parse_morphism("# header\n\nletters: a b  # trailing\na -> ab\nb -> a\n")
        assert spec.seed_token == "a"

    def test_default_seed_prefers_prolongable(self):
        spec = parse_morphism("letters: a b\na -> b\nb -> ba")
        assert spec.seed_token == "b"

    def test_coding_parses(self):
        spec = parse_morphism("letters: a b\na -> ab\nb -> a\ncoding: a->0, b->1")
        assert spec.coding is not None
        assert spec.coding.target.letters == ("0", "1")

    def test_coding_must_be_total(self):
        with pytest.raises(MorphParseError, match="missing letter"):
            parse_morphism("letters: a b\na -> ab\nb -> a\ncoding: a->0")

    def test_coding_skips_empty_items(self):
        spec = parse_morphism("letters: a b\na -> ab\nb -> a\ncoding: a->0, , b->1,")
        assert spec.coding.table == (0, 1)

    def test_erasing_rule_parses(self):
        spec = parse_morphism("letters: a b\na -> ab\nb ->")
        assert spec.morphism.image(1) == ()
        assert spec.morphism.is_erasing

    def test_round_trip(self, corpus_path):
        for path in sorted(corpus_path.glob("*.morph")):
            spec = parse_morphism(path.read_text(encoding="utf-8"))
            again = parse_morphism(spec.to_morph_text())
            assert again == spec, path.name

    @pytest.mark.parametrize(
        "text, fragment, line",
        [
            pytest.param(text, fragment, line, id=name)
            for name, text, fragment, line in MALFORMED
        ],
    )
    def test_malformed_text_names_its_line(self, text, fragment, line):
        with pytest.raises(MorphParseError) as err:
            parse_morphism(text)
        assert fragment in str(err.value)
        assert err.value.line == line

    @PROPERTY
    @given(malformed_mixes())
    @example("letters: a b\na -> ab\nb -> a\ncoding: a->0 1, b->1")
    def test_every_text_parses_or_names_its_line(self, text):
        try:
            parse_morphism(text)
        except MorphParseError as err:
            whole_file = str(err).startswith(("missing letters declaration", "missing rule for letter"))
            assert (err.line is None) == whole_file, str(err)


class TestApply:
    def test_lysenok_ac(self, lysenok):
        alpha = lysenok.morphism.alphabet
        assert alpha.render(lysenok.morphism.apply(word(alpha, "ac"))) == "acab"

    def test_empty_word(self, lysenok):
        assert lysenok.morphism.apply(()) == ()

    def test_istrail_01(self, istrail):
        alpha = istrail.morphism.alphabet
        assert alpha.render(istrail.morphism.apply(word(alpha, "01"))) == "12102"

    def test_matches_oracle(self, acaba):
        rules = rules_of(acaba)
        alpha = acaba.morphism.alphabet
        letters = word(alpha, "abcab")
        expected = naive_apply(rules, ["a", "b", "c", "a", "b"])
        assert list(alpha.render(acaba.morphism.apply(letters))) == expected


class TestCompose:
    def test_lysenok_conjugation_identity(self, lysenok, lysenok_psi):
        tau, psi = lysenok.morphism, lysenok_psi.morphism
        assert compose(tau, psi) == compose(psi, psi)

    def test_compose_with_identity(self, lysenok):
        m = lysenok.morphism
        ident = Morphism(m.alphabet, tuple((i,) for i in range(len(m.alphabet))))
        assert compose(ident, m) == m
        assert compose(m, ident) == m

    def test_istrail_square_against_oracle(self, istrail):
        # oracle: expand sigma(sigma(letter)) by token rewriting and freeze
        rules = rules_of(istrail)
        sq = compose(istrail.morphism, istrail.morphism)
        alpha = istrail.morphism.alphabet
        assert alpha.render(sq.image(0)) == "".join(naive_apply(rules, rules["0"])) == "1020"
        assert alpha.render(sq.image(1)) == "".join(naive_apply(rules, rules["1"])) == "102120"
        assert len(sq.image(1)) == 6  # = L . parikh(sigma(1))

    def test_alphabet_mismatch_raises(self, lysenok, istrail):
        with pytest.raises(ValueError):
            compose(lysenok.morphism, istrail.morphism)

    def test_distinct_morphisms_compare_unequal(self, lysenok, lysenok_psi):
        assert lysenok.morphism != lysenok_psi.morphism
        assert lysenok.morphism == lysenok.morphism


class TestPower:
    def test_square_of_limit_word_rule(self):
        spec = parse_morphism("letters: 0 1\n0 -> 10\n1 -> 0101")
        sq = power(spec.morphism, 2)
        alpha = spec.morphism.alphabet
        assert alpha.render(sq.image(0)) == "010110"
        assert alpha.render(sq.image(1)) == "100101100101"

    def test_power_one_is_identity_operation(self, lysenok):
        assert power(lysenok.morphism, 1) == lysenok.morphism

    def test_power_additivity(self, acaba):
        m = acaba.morphism
        assert power(m, 5) == compose(power(m, 2), power(m, 3))
        assert power(m, 5) == compose(power(m, 3), power(m, 2))

    def test_power_needs_positive_exponent(self, lysenok):
        with pytest.raises(ValueError):
            power(lysenok.morphism, 0)


class TestProlongable:
    def test_lysenok(self, lysenok):
        m = lysenok.morphism
        assert m.is_prolongable(0)       # a -> aca
        assert not m.is_prolongable(1)   # b -> d

    def test_forced_expansion_counts(self):
        spec = parse_morphism("letters: a b\na -> ab\nb -> b")
        assert spec.morphism.is_prolongable(0)

    def test_erasing_tail_is_rejected(self):
        spec = parse_morphism("letters: a b\na -> ab\nb ->")
        assert not spec.morphism.is_prolongable(0)

    def test_mortal_chain_is_rejected(self):
        spec = parse_morphism("letters: a b c\na -> abc\nb -> c\nc ->")
        assert not spec.morphism.is_prolongable(0)

    def test_immortal_tail_through_mortal_letter(self):
        spec = parse_morphism("letters: a b c\na -> abc\nb ->\nc -> ca")
        assert spec.morphism.is_prolongable(0)

    def test_square_of_limit_word_rule_is_prolongable(self):
        spec = parse_morphism("letters: 0 1\n0 -> 010110\n1 -> 100101100101")
        assert spec.morphism.is_prolongable(0)

    def test_unknown_letter_raises(self, lysenok):
        with pytest.raises(ValueError):
            lysenok.morphism.is_prolongable(9)


class TestFixedPoint:
    def test_lysenok_prefix(self, lysenok):
        # oracle: full rewriting; tau^3(a) = acabacadacabaca
        expected = naive_iterate(rules_of(lysenok), "a", 8)
        assert expected == list("acabacad")
        assert lysenok.prefix(8) == tuple("acabacad")
        assert lysenok.prefix(4) == tuple("acab")

    def test_forced_expansion(self):
        spec = parse_morphism("letters: a b\na -> ab\nb -> b")
        assert spec.prefix(5) == tuple("abbbb")

    def test_istrail_seed_1(self, istrail):
        expected = naive_iterate(rules_of(istrail), "1", 5)
        assert expected == list("10212")
        assert istrail.prefix(5) == tuple("10212")

    def test_prefix_extension_property(self, acaba):
        assert acaba.prefix(64) == acaba.prefix(65)[:64]

    def test_self_consistency(self, lysenok):
        # applying the morphism to a prefix of the fixed point extends it
        m = lysenok.morphism
        w = tuple(lysenok.uncoded_prefix(50))  # the prefix is bytes, images tuples
        expanded = m.apply(w)
        assert expanded[:50] == w

    def test_coded_prefix(self, berstel):
        assert berstel.prefix(6) == tuple("102120")

    def test_non_prolongable_seed_raises(self):
        spec = parse_morphism("letters: x\nx -> x")
        with pytest.raises(SpecError):
            spec.prefix(5)

    def test_zero_length_prefix(self, lysenok):
        assert lysenok.prefix(0) == ()

    @PROPERTY
    @given(prolongable_specs(), st.data())
    def test_matches_naive_rewriting(self, drawn, data):
        # A seed that recurs in its own image at least doubles the word per
        # rewriting round; any other prolongable seed is only sure to add a
        # letter per round, and the oracle stops after 200 rounds.
        n = data.draw(st.integers(1, 5000 if drawn.doubling else 200))
        spec = drawn.spec
        expected = naive_iterate(drawn.rules, drawn.seed, n)
        assert list(spec.morphism.alphabet.tokens(spec.uncoded_prefix(n))) == expected
        assert list(spec.prefix(n)) == drawn.code(expected)

    def test_stalled_expansion_raises(self, monkeypatch):
        # b is erased, so the fixed point of a -> ab stops at "ab"; with the
        # prolongability check forced to pass, expansion must still refuse.
        spec = parse_morphism("letters: a b\na -> a b\nb ->\nseed: a")
        assert not spec.morphism.is_prolongable(spec.seed)
        monkeypatch.setattr(Morphism, "is_prolongable", lambda self, letter: True)
        with pytest.raises(InternalCheckError, match="stalled"):
            spec.uncoded_prefix(5)

    @pytest.mark.parametrize(
        "text",
        [
            "letters: a b c\na -> a b\nb -> b c\nc -> c",  # quadratic growth
            "letters: a b c\na -> a b c\nb ->\nc -> c a",  # b is erased
            LYSENOK_TEXT,  # b, c and d keep one-letter images
        ],
    )
    def test_long_prefixes_of_slow_and_uneven_growth(self, text):
        # Long prefixes expand with a power of the morphism whose images may
        # grow to many letters; rounds are cut by the mean image length.
        spec = parse_morphism(text)
        for n in (5000, 4999):
            expected = naive_iterate(rules_of(spec), spec.seed_token, n)
            assert list(spec.prefix(n)) == expected

    @pytest.mark.parametrize("unreached", ["", "\nc -> c c c"])
    def test_long_prefixes_of_linear_growth(self, unreached):
        # a b b b ...: the oracle's 200 rewriting rounds give 201 letters
        letters = "a b c" if unreached else "a b"
        spec = parse_morphism(f"letters: {letters}\na -> a b\nb -> b" + unreached)
        for n in (10_000, 9_999):
            assert "".join(spec.prefix(n)) == "a" + "b" * (n - 1)

    @pytest.mark.parametrize("size", [256, 257, 600])
    def test_long_prefixes_over_large_alphabets(self, size):
        # 33 letters per alphabet letter, so the power is used; the prefix
        # is packed up to 256 letters and a tuple beyond
        rules = {
            f"x{i}": [f"x{2 * i % size}", f"x{(5 * i + 1) % size}"]
            + ([f"x{(7 * i + 3) % size}"] if i % 3 == 0 else [])
            for i in range(size)
        }
        text = f"letters: {' '.join(rules)}\n"
        text += "".join(f"{tok} -> {' '.join(img)}\n" for tok, img in rules.items())
        spec = parse_morphism(text + "seed: x0\n")
        n = 33 * size
        word = spec.uncoded_prefix(n)
        assert type(word) is (bytes if size <= 256 else tuple)
        assert list(spec.morphism.alphabet.tokens(word)) == naive_iterate(rules, "x0", n)


class TestCoding:
    @staticmethod
    def numbered(size: int, name: str) -> Alphabet:
        return Alphabet(tuple(f"{name}{i}" for i in range(size)))

    @pytest.mark.parametrize(
        "source, target", [(200, 300), (300, 200), (256, 256), (257, 257), (256, 257)]
    )
    def test_apply_returns_the_format_of_the_target(self, source, target):
        table = tuple((7 * i + 100) % target for i in range(source))
        coding = Coding(self.numbered(source, "x"), self.numbered(target, "y"), table)
        word = tuple(range(source)) * 2 + (source - 1, 0)
        inputs = [word] + ([bytes(word)] if source <= 256 else [])
        for given_word in inputs:
            for w in (given_word, given_word[:0]):
                coded = coding.apply(w)
                assert type(coded) is (bytes if target <= 256 else tuple)
                assert list(coded) == [table[c] for c in w]


class TestParikh:
    def test_counts(self):
        alpha = Alphabet(("a", "b", "c"))
        assert parikh_vector(word(alpha, "aabc"), 3) == (2, 1, 1)
        assert parikh_vector((), 3) == (0, 0, 0)

    def test_anagrams_share_vector(self):
        alpha = Alphabet(("a", "b", "c"))
        assert parikh_vector(word(alpha, "baca"), 3) == parikh_vector(word(alpha, "aabc"), 3)

    def test_length_is_sum(self, anagram7):
        m = anagram7.morphism
        w = anagram7.uncoded_prefix(37)
        vec = parikh_vector(w, len(m.alphabet))
        assert len(m.apply(w)) == sum(l * v for l, v in zip(m.lengths, vec))


class TestRestrict:
    def test_invariant_subalphabet(self, benli):
        sub = restrict(benli.morphism, [1, 2])  # letters b, c
        assert sub.alphabet.letters == ("b", "c")
        assert sub.alphabet.render(sub.image(0)) == "bc"

    def test_non_closed_subalphabet_raises(self, benli):
        with pytest.raises(ValueError):
            restrict(benli.morphism, [0, 1])  # a -> aca needs c


class TestInputChecks:
    @pytest.mark.parametrize("letters", [(), ("a", "a"), ("a b",), ("",)])
    def test_bad_alphabets(self, letters):
        with pytest.raises(ValueError):
            Alphabet(letters)

    @pytest.mark.parametrize(
        "letters, bad",
        [
            pytest.param(("a", ""), "", id="empty"),
            pytest.param(("a b",), "a b", id="space"),
            pytest.param(("a\tb",), "a\tb", id="tab"),
            pytest.param(("a\xa0b",), "a\xa0b", id="no-break-space"),
            pytest.param(("a\u2028b",), "a\u2028b", id="line-separator"),
            pytest.param(("a", "b c", "d\te"), "b c", id="first-of-two"),
        ],
    )
    def test_bad_letter_token_is_named(self, letters, bad):
        with pytest.raises(ValueError) as err:
            Alphabet(letters)
        assert str(err.value) == f"bad letter token {bad!r}"

    def test_unknown_letter_in_index(self):
        with pytest.raises(ValueError, match="unknown letter 'z'"):
            Alphabet(("a", "b")).index("z")

    def test_morphism_needs_one_image_per_letter(self):
        with pytest.raises(ValueError, match="one image per letter"):
            Morphism(Alphabet(("a", "b")), ((0, 1),))

    def test_morphism_image_letter_out_of_range(self):
        for bad in (-1, 2):  # below 0, and r
            with pytest.raises(ValueError, match="^image letter out of range$"):
                Morphism(Alphabet(("a", "b")), ((0, 1), (bad, 0)))

    def test_coding_must_be_total(self):
        with pytest.raises(ValueError, match="total"):
            Coding(Alphabet(("a", "b")), Alphabet(("0",)), (0,))

    def test_coding_target_out_of_range(self):
        for bad in (-1, 1):  # below 0, and t
            with pytest.raises(ValueError, match="^coding target letter out of range$"):
                Coding(Alphabet(("a", "b")), Alphabet(("0",)), (0, bad))

    def test_spec_seed_out_of_range(self, lysenok):
        with pytest.raises(ValueError, match="seed letter out of range"):
            MorphicSpec(lysenok.morphism, 4)

    def test_spec_coding_over_another_alphabet(self, lysenok, berstel):
        with pytest.raises(ValueError, match="coding source"):
            MorphicSpec(lysenok.morphism, 0, berstel.coding)


@pytest.mark.parametrize(
    "letters, text",
    [
        ("a b c", "ab c"),
        ("a b c", " a  bc\tc "),
        ("a b c", ""),
        ("1 1* 2", "1* 2 1"),
        ("x0 x1", "x1 x0 x1"),
    ],
)
def test_word_reads_text_as_the_parser_does(letters, text):
    alphabet = Alphabet(tuple(letters.split()))
    head = alphabet.letters[0]
    spec = parse_morphism(f"letters: {letters}\n" + "".join(f"{t} -> {text}\n" for t in alphabet.letters))
    assert word(alphabet, text) == spec.morphism.image(alphabet.index(head))


def test_word_needs_spaces_between_multi_character_tokens():
    # as the parser does (TestParse.test_multi_character_tokens_need_spaces)
    with pytest.raises(ValueError, match="unknown letter '11\\*'"):
        word(Alphabet(("1", "1*", "2")), "11*")
