"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from fractions import Fraction

from hypothesis import is_hypothesis_test

from morphauto import (
    analyze,
    char_poly,
    cup_transform,
    eigenvector_criterion,
    integer_roots,
    minimize_uniform,
    parse_morphism,
    reshuffle_uniformize,
    sturmian_witness,
    verify_back,
)
from morphauto.cli import corpus_dir
from morphauto.constructions import UniformRepresentation, representation_from_spec

from oracles import (
    anagram_decomposition,
    column_sum_scan_perron,
    compose,
    dense,
    empirical_frequencies,
    iso_equivalent,
    power,
    prefix_equal,
)

from test_constructions import morphism_shape

CORPUS = corpus_dir()


def load(name):
    return parse_morphism((CORPUS / f"{name}.morph").read_text(encoding="utf-8"))


def report(number, name, ok):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {name}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_istrail_pipeline():
    start = time.perf_counter()
    istrail, berstel = load("istrail"), load("berstel")
    ok = eigenvector_criterion(istrail.morphism) == 2
    rep = minimize_uniform(reshuffle_uniformize(istrail))
    ok &= len(rep.morphism.alphabet) == 4 and rep.q == 2
    iso = iso_equivalent(rep, representation_from_spec(berstel))
    ok &= iso is not None
    ok &= iso is not None and iso[rep.morphism.alphabet.letters[rep.seed]] == "1"
    ok &= prefix_equal(istrail, rep, 10_000)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, f"istrail pipeline ({elapsed:.3f}s)", ok)


def test_criterion_2_lysenok():
    start = time.perf_counter()
    lysenok, psi = load("lysenok"), load("lysenok_psi")
    ok = eigenvector_criterion(lysenok.morphism) is None
    analysis = analyze(lysenok)
    blk = analysis.verdict.certificate.block
    expected = parse_morphism("letters: 1 2 3\n1 -> 23\n2 -> 21\n3 -> 22\nseed: 2")
    ok &= morphism_shape(blk.morphism, blk.seed_block) == morphism_shape(
        expected.morphism, expected.seed
    )
    tau, psi_m = lysenok.morphism, psi.morphism
    ok &= compose(tau, psi_m) == compose(psi_m, psi_m)
    ok &= prefix_equal(lysenok, psi, 10_000)
    ok &= (analysis.verdict.kind, analysis.verdict.q) == ("automatic", 2)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(2, f"lysenok block pipeline ({elapsed:.3f}s)", ok)


def test_criterion_3_anagram_verdicts():
    psi = load("anagram7")
    cert = anagram_decomposition(psi.morphism)
    ok = cert is not None and cert.degree == 7
    ok &= set(cert.anagram_tokens()) == {"aabc", "baca"}

    square = load("a285249")
    cert2 = anagram_decomposition(square.morphism)
    ok &= cert2 is not None and cert2.degree == 9
    ok &= set(cert2.anagram_tokens()) == {"01", "10"}

    for name in ("a284878", "a284905", "a285305", "a284912"):
        spec = load(name)
        cert3 = anagram_decomposition(spec.morphism)
        ok &= cert3 is not None and cert3.degree == 3
        verdict = analyze(spec).verdict
        ok &= (verdict.kind, verdict.q) == ("automatic", 3)
    report(3, "anagram verdicts (d=7, d=9, four 3-automatic entries)", ok)


def test_criterion_4_exact_spectra():
    grig_aca_aba, be = load("grig_aca_aba"), load("xzy")
    p1 = char_poly(grig_aca_aba.morphism.incidence)
    p2 = char_poly(be.morphism.incidence)
    ok = p1.coeffs == (1, -2, -2, -1, 2)
    ok &= p2.coeffs == (1, -1, -2, -4)
    ok &= integer_roots(p1) == () and integer_roots(p2) == ()
    ok &= analyze(grig_aca_aba).verdict.kind == "not_automatic"
    ok &= analyze(be).verdict.kind == "not_automatic"

    # x^3 - 7x^2 + 12x - 8 belongs to the incidence matrix of the cube
    base = parse_morphism("letters: a b c\na -> c\nb -> aba\nc -> b").morphism
    p3 = char_poly(power(base, 3).incidence)
    ok &= p3.coeffs == (1, -7, 12, -8)
    ok &= (p3(1), p3(2), p3(4)) == (-2, -4, -8)
    ok &= integer_roots(p3) == ()
    report(4, "exact spectral non-automaticity verdicts", ok)


def test_criterion_5_block_constructions():
    acaba, pd_source = load("acaba"), load("muntyan_pd")
    analysis = analyze(acaba)
    blk = analysis.verdict.certificate.block
    expected = parse_morphism("letters: ac ab\nac -> ac ab ac ab\nab -> ac ab ab ac\nseed: ac")
    ok = blk.morphism.uniform_length == 4
    ok &= morphism_shape(blk.morphism, blk.seed_block) == morphism_shape(
        expected.morphism, expected.seed
    )

    analysis2 = analyze(pd_source)
    blk2 = analysis2.verdict.certificate.block
    pd = parse_morphism("letters: 0 1\n0 -> 01\n1 -> 00\nseed: 0")
    ok &= morphism_shape(blk2.morphism, blk2.seed_block) == morphism_shape(pd.morphism, pd.seed)

    for b, spec in ((blk, acaba), (blk2, pd_source)):
        ok &= b.source.alphabet.tokens(b.flatten_prefix(10_000)) == spec.prefix(10_000)
    ok &= (analysis.verdict.q, analysis2.verdict.q) == (4, 2)
    report(5, "block constructions (4-uniform and period-doubling)", ok)


def test_criterion_6_cup_property_suite():
    start = time.perf_counter()
    thue_morse = load("thue_morse")
    tm_cube = representation_from_spec(load("tm_cube"))
    ok = True
    for s in range(1, 16):
        spec = cup_transform(tm_cube, pair_position=3, split_index=s)
        ok &= verify_back(spec.morphism) == 8
        ok &= prefix_equal(spec, thue_morse, 10_000)

    # every uncoded uniform corpus representation, all splits; the 2-uniform
    # ones are cubed first so a pair position >= 1 exists (k stays <= 8)
    for name in ("thue_morse", "period_doubling", "lysenok_psi", "tm_cube"):
        spec = load(name)
        rep = representation_from_spec(spec)
        if rep.q < 3:
            rep = UniformRepresentation(power(rep.morphism, 3), rep.seed, rep.coding)
        k = rep.q
        for s in range(1, 2 * k):
            transformed = cup_transform(rep, pair_position=1, split_index=s)
            ok &= verify_back(transformed.morphism) == k
            ok &= prefix_equal(transformed, spec, 10_000)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(6, f"cup property suite over all splits ({elapsed:.1f}s)", ok)


def test_criterion_7_sturmian_witnesses():
    ok = True
    for name in ("fib_bc", "fib_cd"):
        witness, profile = sturmian_witness(load(name), 30, 10_000)
        ok &= witness and profile.counts == tuple(n + 1 for n in range(1, 31))

    blocks = load("nekra_blocks")
    ok &= blocks.prefix(11) == tuple("ABABAABAABA")

    verdict = analyze(load("benli")).verdict
    ok &= verdict.kind == "unknown"
    ok &= any(w.sturmian and set(w.letters) == {"b", "c"} for w in verdict.evidence.witnesses)
    report(7, "sturmian witnesses and honest unknown", ok)


def test_criterion_8_property_suites():
    # the seven 500-case randomized suites live in test_properties.py, and
    # pytest runs them there; this criterion records that they are part of
    # the acceptance gate, as collected hypothesis tests
    import test_properties

    suites = [
        test_properties.test_incidence_multiplicativity,
        test_properties.test_char_poly_matches_cofactor_expansion,
        test_properties.test_length_homomorphism,
        test_properties.test_anagram_success_implies_eigenvector_success,
        test_properties.test_length_product_agrees_with_the_incidence_matrix,
        test_properties.test_minimize_uniform_is_idempotent,
        test_properties.test_certificate_round_trip,
    ]
    ok = all(is_hypothesis_test(s) for s in suites)
    report(8, "seven randomized property suites at 500 cases each", ok)


def test_criterion_9_frequencies():
    pd = load("period_doubling")
    ok = column_sum_scan_perron(dense(pd.morphism.incidence)) == (Fraction(2, 3), Fraction(1, 3))

    fib = load("fibonacci")
    emp = empirical_frequencies(fib, 10_000)
    ok &= abs(emp[0] - Fraction(6180339887, 10**10)) < Fraction(1, 1000)
    ok &= abs(emp[1] - Fraction(3819660113, 10**10)) < Fraction(1, 1000)
    ok &= column_sum_scan_perron(dense(fib.morphism.incidence)) is None
    report(9, "exact and empirical letter frequencies", ok)
