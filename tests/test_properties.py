"""Randomized algebraic property suites (500 cases each)."""

import itertools
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from morphauto import (
    AnalyzeOptions,
    Alphabet,
    Coding,
    Morphism,
    MorphicSpec,
    UniformRepresentation,
    eigenvector_criterion,
    minimize_uniform,
    parse_morphism,
    analyze,
    char_poly,
    reshuffle_uniformize,
    verify_back,
)
from morphauto.constructions import representation_from_spec

from oracles import (
    anagram_decomposition,
    compose,
    dense,
    left_eigencheck,
    mat_mul,
    naive_charpoly,
    parikh_vector,
    power,
    prefix_equal,
    sparse,
)

TOKENS = ("a", "b", "c", "d", "e")

SUITE = settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@st.composite
def alphabets(draw, min_size=1, max_size=4):
    return Alphabet(TOKENS[: draw(st.integers(min_size, max_size))])


@st.composite
def morphisms_on(draw, alphabet, min_image=0, max_image=4):
    r = len(alphabet)
    images = tuple(
        tuple(draw(st.lists(st.integers(0, r - 1), min_size=min_image, max_size=max_image)))
        for _ in range(r)
    )
    return Morphism(alphabet, images)


@st.composite
def morphism_pairs(draw):
    alphabet = draw(alphabets())
    return draw(morphisms_on(alphabet)), draw(morphisms_on(alphabet))


@st.composite
def words_over(draw, alphabet, max_len=12):
    r = len(alphabet)
    return tuple(draw(st.lists(st.integers(0, r - 1), max_size=max_len)))


@st.composite
def anagram_morphisms(draw, prolongable=False):
    """Morphisms whose images concatenate anagrams of one base block."""
    r = draw(st.integers(1, 3))
    alphabet = Alphabet(TOKENS[:r])
    m_len = draw(st.integers(1, 3))
    base = tuple(draw(st.lists(st.integers(0, r - 1), min_size=m_len, max_size=m_len)))
    if prolongable and 0 not in base:
        base = (0,) + base[1:]
    perms = sorted(set(itertools.permutations(base)))
    pool = draw(st.lists(st.sampled_from(perms), min_size=1, max_size=min(3, len(perms))))
    pool = list(dict.fromkeys(pool))
    counts = [draw(st.integers(1, 3)) for _ in range(r)]
    images = []
    for letter in range(r):
        blocks = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(counts[letter])]
        if prolongable and letter == 0:
            rest = list(base)
            rest.remove(0)
            blocks[0] = (0, *rest)
        images.append(tuple(itertools.chain.from_iterable(blocks)))
    morphism = Morphism(alphabet, tuple(images))
    shared = parikh_vector(base, r)
    degree = sum(n * shared[a] for a, n in enumerate(counts))
    return morphism, degree


@st.composite
def uniform_representations(draw):
    r = draw(st.integers(2, 5))
    q = draw(st.integers(2, 3))
    alphabet = Alphabet(TOKENS[:r])
    images = [tuple(draw(st.lists(st.integers(0, r - 1), min_size=q, max_size=q))) for _ in range(r)]
    images[0] = (0,) + images[0][1:]  # keep the seed prolongable
    t = draw(st.integers(1, min(3, r)))
    target = Alphabet(tuple(str(i) for i in range(t)))
    table = tuple(draw(st.integers(0, t - 1)) for _ in range(r))
    return UniformRepresentation(Morphism(alphabet, tuple(images)), 0, Coding(alphabet, target, table))


@SUITE
@given(morphism_pairs())
def test_incidence_multiplicativity(pair):
    outer, inner = pair
    composed = dense(compose(outer, inner).incidence)
    assert composed == mat_mul(dense(outer.incidence), dense(inner.incidence))


@SUITE
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**70)), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_char_poly_matches_cofactor_expansion(rows):
    # the power sums and Newton's identities against det(xI - M) expanded
    # by cofactors, on matrices with small and 70-bit entries
    m = tuple(map(tuple, rows))
    assert list(char_poly(sparse(m)).coeffs) == naive_charpoly(m)


@SUITE
@given(alphabets().flatmap(lambda a: st.tuples(morphisms_on(a), words_over(a))))
def test_length_homomorphism(data):
    morphism, word = data
    vec = parikh_vector(word, len(morphism.alphabet))
    assert len(morphism.apply(word)) == sum(
        l * v for l, v in zip(morphism.lengths, vec)
    )


@SUITE
@given(anagram_morphisms())
def test_anagram_success_implies_eigenvector_success(data):
    # the drawn degree is the one the anagram oracle finds, and it is the
    # eigenvalue of the length vector
    morphism, degree = data
    assert anagram_decomposition(morphism).degree == degree
    lam = left_eigencheck(morphism.lengths, dense(morphism.incidence))
    assert lam == degree
    if degree >= 2:
        assert eigenvector_criterion(morphism) == degree


@SUITE
@given(
    st.one_of(
        alphabets(max_size=5).flatmap(morphisms_on),
        # uniform images: L*M = n L, so q = 1 and the erasing n = 0 are drawn
        st.tuples(alphabets(max_size=5), st.integers(0, 3)).flatmap(
            lambda an: morphisms_on(an[0], an[1], an[1])
        ),
        anagram_morphisms().map(lambda data: data[0]),
    )
)
def test_length_product_agrees_with_the_incidence_matrix(morphism):
    # L*M is L times the dense incidence matrix, and the eigenvalue read off
    # the images is the one left_eigencheck finds from that matrix
    lengths, matrix = morphism.lengths, dense(morphism.incidence)
    assert morphism.length_product == tuple(
        sum(lengths[i] * row[j] for i, row in enumerate(matrix)) for j in range(len(lengths))
    )
    if morphism.is_erasing:
        with pytest.raises(ValueError):
            left_eigencheck(lengths, matrix)
        with pytest.raises(ValueError):
            eigenvector_criterion(morphism)
        assert verify_back(morphism) is None
        return
    lam = left_eigencheck(lengths, matrix)
    assert verify_back(morphism) == lam
    assert eigenvector_criterion(morphism) == (lam if lam is not None and lam >= 2 else None)


@SUITE
@given(uniform_representations())
def test_minimize_uniform_is_idempotent(rep):
    once = minimize_uniform(rep)
    assert minimize_uniform(once) == once
    assert len(once.morphism.alphabet) <= len(rep.morphism.alphabet)
    assert prefix_equal(once, rep, 300)


@SUITE
@given(anagram_morphisms(prolongable=True))
def test_certificate_round_trip(data):
    morphism, degree = data
    assume(degree >= 2)
    assume(morphism.is_prolongable(0))
    spec = MorphicSpec(morphism, 0)
    cert = minimize_uniform(reshuffle_uniformize(spec))
    assert cert.q == degree
    text = cert.to_morph_text(comments=["derived: reshuffle certificate"])
    reparsed = representation_from_spec(parse_morphism(text))
    assert reparsed.q == cert.q
    assert prefix_equal(reparsed, spec, 500)


# -- smaller structural properties -----------------------------------------

@settings(max_examples=150, deadline=None)
@given(morphism_pairs(), st.data())
def test_compose_action(pair, data):
    outer, inner = pair
    letters = data.draw(words_over(outer.alphabet))
    assert compose(outer, inner).apply(letters) == outer.apply(inner.apply(letters))


@settings(max_examples=300, deadline=None)
@given(alphabets().flatmap(lambda a: st.tuples(morphisms_on(a), words_over(a))))
def test_closure_is_the_fixpoint_of_apply(data):
    # morphisms_on draws empty images too, so erasing morphisms are covered
    morphism, word = data
    letters = set(word)
    while True:
        grown = letters | set(morphism.apply(tuple(letters)))
        if grown == letters:
            break
        letters = grown
    assert morphism.closure(word) == tuple(sorted(letters))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3))
def test_power_additivity(j, k):
    morphism = parse_morphism("letters: a b c\na -> acaba\nb -> bac\nc -> cab").morphism
    assert power(morphism, j + k) == compose(power(morphism, j), power(morphism, k))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 400))
def test_prefix_monotone(n):
    spec = parse_morphism("letters: a b c d\na -> aca\nb -> d\nc -> b\nd -> c")
    assert spec.prefix(n) == spec.prefix(n + 1)[:n]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_morph_text_round_trip(data):
    alphabet = data.draw(alphabets())
    morphism = data.draw(morphisms_on(alphabet))
    seed = data.draw(st.integers(0, len(alphabet) - 1))
    coding = None
    if data.draw(st.booleans()):
        # the file format infers the target alphabet from the coding pairs,
        # so only surjective codings round-trip exactly
        t = data.draw(st.integers(1, 3))
        raw = [data.draw(st.integers(0, t - 1)) for _ in range(len(alphabet))]
        used = list(dict.fromkeys(raw))  # first-appearance order, as the parser infers it
        target = Alphabet(tuple(str(v) for v in used))
        table = tuple(used.index(v) for v in raw)
        coding = Coding(alphabet, target, table)
    spec = MorphicSpec(morphism, seed, coding)
    assert parse_morphism(spec.to_morph_text(comments=["round trip"])) == spec


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(alphabets(min_size=2).flatmap(lambda a: morphisms_on(a, min_image=1)))
def test_constant_coding_is_never_not_automatic(morphism):
    # a constant coded word is periodic, hence automatic in every base
    images = ((0,) + morphism.images[0],) + morphism.images[1:]
    alphabet = morphism.alphabet
    coding = Coding(alphabet, Alphabet(("0",)), (0,) * len(alphabet))
    spec = MorphicSpec(Morphism(alphabet, images), 0, coding)
    options = AnalyzeOptions(depth=200, kmax=3)
    assert analyze(spec, options).verdict.kind != "not_automatic"


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(min_value=0, max_value=10))
def test_fails(x):
    assert x < 5
"""


def test_failing_property_prints_its_example(tmp_path):
    # run under this project's pytest settings, where a warning is an error:
    # a failing property must still report its falsifying example
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(pyproject),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
