import hashlib
import importlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given

from morphauto import (
    Alphabet,
    AnalyzeOptions,
    Coding,
    Morphism,
    MorphicSpec,
    InternalCheckError,
    SpecError,
    analyze,
    eigenvector_criterion,
    irrationality_verdict,
    parse_morphism,
)
from morphauto.constructions import (
    BlockCertificate,
    BlockConstructionError,
    UniformRepresentation,
    block_morphism,
    representation_from_spec,
    reshuffle_uniformize,
)
from morphauto.criteria import _verify_certificate
from morphauto.sequences import factor_complexity

from family import SEEDS, coverage, family
from oracles import anagram_decomposition, naive_iterate, radius_sign, rules_of
from strategies import PROPERTY, prolongable_specs

# The (name, status) of every stage analyze records on each corpus entry, in
# order: this pins skips and info stages, not only verdicts.
CORPUS_STAGES = {
    "a284775": "uniform:no eigenvector:success block:no irrationality:no",
    "a284878": "uniform:no eigenvector:success block:success irrationality:no",
    "a284905": "uniform:no eigenvector:success block:success irrationality:no",
    "a284912": "uniform:no eigenvector:success block:success irrationality:no",
    "a284935": "uniform:no eigenvector:success block:no irrationality:no",
    "a285159": "uniform:no eigenvector:success block:no irrationality:no",
    "a285162": "uniform:no eigenvector:success block:no irrationality:no",
    "a285249": "uniform:no eigenvector:success block:success irrationality:no",
    "a285252": "uniform:no eigenvector:success block:success irrationality:no",
    "a285255": "uniform:no eigenvector:success block:success irrationality:no",
    "a285258": "uniform:no eigenvector:success block:success irrationality:no",
    "a285305": "uniform:no eigenvector:success block:success irrationality:no",
    "a285345": "uniform:no eigenvector:success block:no irrationality:no",
    "ab_omega": "uniform:no eigenvector:no block:no irrationality:no evidence:info",
    "abc_cycle_cube": "uniform:no eigenvector:no block:no irrationality:success",
    "acaba": "uniform:no eigenvector:no block:success irrationality:no",
    "anagram7": "uniform:no eigenvector:success block:success irrationality:no",
    "bacc": "uniform:no eigenvector:no block:success irrationality:no",
    "bartholdi": "uniform:no eigenvector:no block:no irrationality:no evidence:info",
    "benli": "uniform:no eigenvector:no block:no irrationality:no evidence:info",
    "berstel": "uniform:success eigenvector:success block:success irrationality:skipped",
    "erasing_tm": "uniform:no eigenvector:skipped block:success irrationality:skipped",
    "fib_bc": "uniform:no eigenvector:no block:no irrationality:success",
    "fib_cd": "uniform:no eigenvector:no block:no irrationality:success",
    "fib_constant": "uniform:no eigenvector:no block:no irrationality:skipped evidence:info",
    "fibonacci": "uniform:no eigenvector:no block:no irrationality:success",
    "grig_aba": "uniform:no eigenvector:no block:success irrationality:no",
    "grig_aca_aba": "uniform:no eigenvector:no block:no irrationality:success",
    "istrail": "uniform:no eigenvector:success block:no irrationality:no",
    "lysenok": "uniform:no eigenvector:no block:success irrationality:no",
    "lysenok_psi": "uniform:success eigenvector:success block:success irrationality:no",
    "muntyan_cube": "uniform:no eigenvector:no block:no irrationality:success",
    "muntyan_pd": "uniform:no eigenvector:no block:success irrationality:no",
    "nekra_blocks": "uniform:no eigenvector:no block:no irrationality:success",
    "nekrashevych_cube": "uniform:no eigenvector:no block:no irrationality:success",
    "period_doubling": "uniform:success eigenvector:success block:success irrationality:no",
    "thue_morse": "uniform:success eigenvector:success block:success irrationality:no",
    "tm_cube": "uniform:success eigenvector:success block:success irrationality:no",
    "xzy": "uniform:no eigenvector:no block:no irrationality:success",
}


# The full report of every corpus entry (``to_json``, keys sorted): every
# stage, certificate and profile count.  The four Unknown entries were
# recorded before factor complexity was computed from distinct windows, and
# again when their evidence came to be the input's profile alone, the
# subalphabet witnesses dropped; the rest before it packed the prefix into
# bytes and
# before the uniform stage's certificate stopped replaying itself.  The
# nine NotAutomatic entries were recorded again when the radius bracket
# came to be computed by Newton's method, which moved only its lo and hi.
# The 18 entries with a block outcome were recorded again when any
# q-uniform block morphism came to certify Automatic(q): their block stage
# succeeds without a common base of q and k, and acaba's q went from 2 to 4.
# All 39 were recorded again when the anagram and gcd-obstruction outcomes
# left the eigenvector stage; nothing else in them moved.
PINNED_REPORTS = json.loads((Path(__file__).parent / "corpus_reports.json").read_text())
UNKNOWN_ENTRIES = ["ab_omega", "bartholdi", "benli", "fib_constant"]


def assert_report_pinned(corpus_path, name):
    spec = parse_morphism((corpus_path / f"{name}.morph").read_text(encoding="utf-8"))
    report = json.dumps(analyze(spec).to_json(), sort_keys=True)
    assert report == json.dumps(PINNED_REPORTS[name], sort_keys=True)


class TestEigenvectorCriterion:
    def test_istrail(self, istrail):
        assert eigenvector_criterion(istrail.morphism) == 2

    def test_lysenok_fails(self, lysenok):
        assert eigenvector_criterion(lysenok.morphism) is None

    def test_uniform_gives_length(self, tm_cube, lysenok_psi):
        assert eigenvector_criterion(tm_cube.morphism) == 8
        assert eigenvector_criterion(lysenok_psi.morphism) == 2

    def test_erasing_raises(self):
        spec = parse_morphism("letters: a b\na -> ab\nb ->")
        with pytest.raises(ValueError):
            eigenvector_criterion(spec.morphism)

    def test_identity_eigenvalue_one_is_rejected(self):
        m = parse_morphism("letters: a b\na -> a\nb -> b").morphism
        assert eigenvector_criterion(m) is None

    def test_images_that_are_powers_of_one_letter(self):
        # lengths (2, 1) are coprime, yet L*M = 2L holds, and the constant
        # fixed point is indeed automatic
        m = Morphism(Alphabet(("a", "b")), ((0, 0), (0,)))
        assert eigenvector_criterion(m) == 2


class TestAnagramDecomposition:
    def test_degree_seven(self, anagram7):
        cert = anagram_decomposition(anagram7.morphism)
        assert cert is not None
        assert cert.block_length == 4
        assert set(cert.anagram_tokens()) == {"aabc", "baca"}
        assert cert.per_letter_counts == (1, 2, 3)
        assert cert.shared_parikh == (2, 1, 1)
        assert cert.degree == 7

    def test_limit_word_square(self, a285249):
        cert = anagram_decomposition(a285249.morphism)
        assert cert.block_length == 2
        assert set(cert.anagram_tokens()) == {"01", "10"}
        assert cert.degree == 9

    def test_thue_morse(self, thue_morse):
        cert = anagram_decomposition(thue_morse.morphism)
        assert set(cert.anagram_tokens()) == {"01", "10"}
        assert cert.degree == 2

    def test_fibonacci_has_none(self, fibonacci):
        assert anagram_decomposition(fibonacci.morphism) is None

    def test_eigenvector_entries_without_anagrams(self):
        for name in ("0 -> 001110\n1 -> 101000110011", "0 -> 01\n1 -> 0011"):
            m = parse_morphism("letters: 0 1\n" + name).morphism
            assert anagram_decomposition(m) is None
            assert eigenvector_criterion(m) in (3, 9)

    def test_erasing_raises(self):
        spec = parse_morphism("letters: a b\na -> ab\nb ->")
        with pytest.raises(ValueError):
            anagram_decomposition(spec.morphism)


class TestIrrationalityVerdict:
    def test_grig_aca_aba_fires(self, grig_aca_aba):
        report = irrationality_verdict(grig_aca_aba.morphism)
        assert report is not None
        assert report.char_poly.coeffs == (1, -2, -2, -1, 2)

    def test_xzy_fires(self, xzy):
        assert irrationality_verdict(xzy.morphism) is not None

    def test_uniform_is_excluded(self, thue_morse):
        assert irrationality_verdict(thue_morse.morphism) is None

    def test_non_primitive_is_excluded(self, lysenok):
        assert irrationality_verdict(lysenok.morphism) is None

    def test_erasing_raises(self):
        spec = parse_morphism("letters: a b\na -> ab\nb ->")
        with pytest.raises(ValueError, match="non-erasing"):
            irrationality_verdict(spec.morphism)

    def test_exclusive_with_eigenvector(self, istrail, anagram7, grig_aca_aba, xzy):
        for spec in (istrail, anagram7, grig_aca_aba, xzy):
            q = eigenvector_criterion(spec.morphism)
            fired = irrationality_verdict(spec.morphism) is not None
            assert not (q is not None and fired)


class TestAnalyze:
    def test_lysenok_block_verdict(self, lysenok):
        report = analyze(lysenok)
        assert report.verdict.kind == "automatic"
        assert report.verdict.q == 2
        assert report.verdict.provenance == "block"
        cert = report.verdict.certificate
        assert cert.block.k == 2
        assert cert.block.morphism.uniform_length == 2

    def test_istrail_eigenvector_verdict(self, istrail):
        report = analyze(istrail)
        assert (report.verdict.kind, report.verdict.q) == ("automatic", 2)
        assert report.verdict.provenance == "eigenvector"
        assert isinstance(report.verdict.certificate, MorphicSpec)

    def test_evidence_is_one_profile_of_the_input(self, monkeypatch):
        # {b, c} and {b, c, d} are invariant subalphabets; the evidence
        # profiles the input alone, whichever module calls factor_complexity
        from morphauto import criteria, sequences

        calls = []

        def counting(spec, n_max, prefix_length):
            calls.append(spec)
            return factor_complexity(spec, n_max, prefix_length)

        for module in (criteria, sequences):
            monkeypatch.setattr(module, "factor_complexity", counting)
        spec = parse_morphism("letters: a b c d\na -> a d\nb -> b c\nc -> b\nd -> d b\nseed: a")
        report = analyze(spec)
        assert report.verdict.kind == "unknown"
        assert calls == [spec]
        profile = factor_complexity(spec, 30, 10_000)
        assert report.verdict.evidence == profile
        assert report.to_json()["verdict"]["evidence"] == {"complexity": profile.to_json()}

    def test_grig_aca_aba_not_automatic(self, grig_aca_aba):
        report = analyze(grig_aca_aba)
        assert report.verdict.kind == "not_automatic"
        assert "x^4 - 2*x^3 - 2*x^2 - x + 2" in report.verdict.summary

    def test_every_stage_is_recorded(self, lysenok):
        report = analyze(lysenok)
        names = [s.name for s in report.stages]
        for required in ("uniform", "eigenvector", "block", "irrationality"):
            assert required in names

    @pytest.mark.parametrize("bad", [{"kmax": 1}, {"depth": 0}])
    def test_out_of_range_options_raise(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            AnalyzeOptions(**bad)

    def test_non_prolongable_seed_raises(self):
        spec = parse_morphism("letters: 0 1\n0 -> 10\n1 -> 0101\nseed: 0")
        with pytest.raises(SpecError):
            analyze(spec)

    def test_certificates_replay(self, lysenok, istrail, anagram7, muntyan_pd):
        for spec in (lysenok, istrail, anagram7, muntyan_pd):
            report = analyze(spec)
            cert = report.verdict.certificate
            assert cert.prefix(2000) == spec.prefix(2000)

    def test_verdicts_survive_relabelling(self, lysenok, istrail, fibonacci, benli):
        rng = random.Random(20250810)
        fresh = ("p", "q", "r", "s")
        for spec in (lysenok, istrail, fibonacci, benli):
            base = analyze(spec)
            m = spec.morphism
            r = len(m.alphabet)
            perm = list(range(r))
            rng.shuffle(perm)  # perm[new] = old
            inverse = {old: new for new, old in enumerate(perm)}
            alpha = Alphabet(tuple(fresh[: r][i] for i in range(r)))
            images = tuple(
                tuple(inverse[c] for c in m.image(perm[new])) for new in range(r)
            )
            relabelled = MorphicSpec(Morphism(alpha, images), inverse[spec.seed])
            again = analyze(relabelled)
            assert (again.verdict.kind, again.verdict.q) == (base.verdict.kind, base.verdict.q)

    def test_erasing_morphism_skips_the_exact_criteria(self):
        # exact criteria need non-erasing input; they are skipped, not faked,
        # and the 5-blocks abcca, caabc form the Thue-Morse morphism
        spec = parse_morphism("letters: a b c\na -> abc\nb ->\nc -> ca")
        report = analyze(spec)
        assert (report.verdict.kind, report.verdict.q) == ("automatic", 2)
        assert report.verdict.summary.startswith("Automatic(2) via 5-block morphism abcca->")
        skipped = {s.name for s in report.stages if s.status == "skipped"}
        assert skipped == {"eigenvector", "irrationality"}

    def test_erasing_morphism_gets_honest_unknown(self):
        # the Fibonacci word with a c after every a: no stage decides it
        spec = parse_morphism("letters: a b c\na -> abc\nb -> a\nc ->")
        report = analyze(spec)
        assert report.verdict.kind == "unknown"
        skipped = {s.name for s in report.stages if s.status == "skipped"}
        assert skipped == {"eigenvector", "irrationality"}

    def test_block_closure_bound(self, lysenok, monkeypatch):
        # lysenok has three 2-blocks; with room for two, every k fails
        from morphauto import constructions

        monkeypatch.setattr(constructions, "_MAX_BLOCKS", 2)
        report = analyze(lysenok)
        stage = next(s for s in report.stages if s.name == "block")
        assert stage.status == "no"
        assert "k=2: block closure exceeded its bound" in stage.detail

    def test_coded_input_through_eigenvector_stage(self):
        # external coding is composed onto the reshuffled certificate
        spec = parse_morphism(
            "letters: 0 1 2\n0 -> 12\n1 -> 102\n2 -> 0\nseed: 1\ncoding: 0->e, 1->o, 2->e"
        )
        report = analyze(spec)
        assert (report.verdict.kind, report.verdict.q) == ("automatic", 2)
        assert report.verdict.provenance == "eigenvector"
        assert report.verdict.certificate.prefix(3000) == spec.prefix(3000)

    def test_coded_input_through_block_stage(self):
        spec = parse_morphism(
            "letters: a b c d\na -> aca\nb -> d\nc -> b\nd -> c\nseed: a\n"
            "coding: a->x, b->y, c->x, d->y"
        )
        report = analyze(spec)
        assert (report.verdict.kind, report.verdict.q) == ("automatic", 2)
        assert report.verdict.provenance == "block"
        assert report.verdict.certificate.prefix(3000) == spec.prefix(3000)

    @staticmethod
    def assert_q_is_the_certificate_length(spec, options=None):
        # a verdict's q is the uniform length of the morphism its certificate
        # iterates: the block morphism of a block certificate
        verdict = analyze(spec, options).verdict
        if verdict.kind == "automatic":
            cert = verdict.certificate
            morphism = cert.block.morphism if isinstance(cert, BlockCertificate) else cert.morphism
            assert verdict.q == cert.q == morphism.uniform_length

    def test_every_certificate_is_a_morphic_spec_on_corpus(self, corpus_path):
        # block certificates included: the same q and coded word as the input
        for path in sorted(corpus_path.glob("*.morph")):
            spec = parse_morphism(path.read_text(encoding="utf-8"))
            verdict = analyze(spec).verdict
            if verdict.kind == "automatic":
                cert = verdict.certificate
                assert isinstance(cert, MorphicSpec), path.stem
                assert cert.q == verdict.q, path.stem
                assert cert.coded_prefix(3000) == spec.coded_prefix(3000), path.stem

    def test_block_certificate_needs_the_block_of_its_morphism(self, lysenok, thue_morse):
        blk = block_morphism(thue_morse, 2)
        with pytest.raises(ValueError, match="induced by the certificate's morphism"):
            BlockCertificate(lysenok.morphism, lysenok.seed, block=blk)
        cert = BlockCertificate(thue_morse.morphism, thue_morse.seed, block=blk)
        assert cert.prefix(500) == thue_morse.prefix(500)

    def test_q_is_the_certificate_length_on_corpus(self, corpus_path):
        for path in sorted(corpus_path.glob("*.morph")):
            self.assert_q_is_the_certificate_length(
                parse_morphism(path.read_text(encoding="utf-8"))
            )

    @PROPERTY
    @given(prolongable_specs())
    def test_q_is_the_certificate_length(self, drawn):
        self.assert_q_is_the_certificate_length(drawn.spec, AnalyzeOptions(depth=500))

    @staticmethod
    def assert_anagram_degree_is_the_eigenvector_q(texts):
        # the paper's anagram method, as an oracle: a degree d >= 2 is the q
        # of the left-eigenvector criterion, and of the verdict
        found = 0
        for text in texts:
            spec = parse_morphism(text)
            if spec.morphism.is_erasing:
                continue
            cert = anagram_decomposition(spec.morphism)
            if cert is not None and cert.degree >= 2:
                found += 1
                assert eigenvector_criterion(spec.morphism) == cert.degree, text
                verdict = analyze(spec, AnalyzeOptions(depth=500)).verdict
                assert (verdict.kind, verdict.q) == ("automatic", cert.degree), text
        return found

    def test_anagram_success_implies_eigenvector_on_corpus(self, corpus_path):
        texts = [p.read_text(encoding="utf-8") for p in sorted(corpus_path.glob("*.morph"))]
        assert self.assert_anagram_degree_is_the_eigenvector_q(texts) == 11

    @pytest.mark.parametrize("seed", SEEDS)
    def test_anagram_success_implies_eigenvector_on_family(self, seed):
        assert self.assert_anagram_degree_is_the_eigenvector_q(family(seed)) > 0

    def test_non_injective_coding_skips_irrationality(self):
        # the Fibonacci word sent through a constant coding is 000...: the
        # obstruction for the uncoded word says nothing about it
        spec = parse_morphism("letters: a b\na -> ab\nb -> a\ncoding: a->0, b->0")
        report = analyze(spec)
        assert report.verdict.kind != "not_automatic"
        stage = next(s for s in report.stages if s.name == "irrationality")
        assert stage.status == "skipped" and "non-injective coding" in stage.detail

    def test_eigenvector_certificate_goes_through_reshuffle_uniformize(
        self, istrail, thue_morse, monkeypatch
    ):
        # the traced benchmark times the builder by this name; a uniform
        # input is certified by the uniform stage, so its eigenvector stage
        # builds nothing
        from morphauto import criteria

        calls = []

        def counting(spec):
            calls.append(spec.morphism)
            return reshuffle_uniformize(spec)

        monkeypatch.setattr(criteria, "reshuffle_uniformize", counting)
        assert analyze(istrail).verdict.provenance == "eigenvector"
        assert calls == [istrail.morphism]
        calls.clear()
        assert analyze(thue_morse).verdict.provenance == "uniform"
        assert calls == []

    @pytest.mark.parametrize("name", ["istrail", "a284775", "a285159"])
    def test_wrong_eigenvector_q_is_an_internal_error(self, corpus_path, name, monkeypatch):
        # these entries are certified by the eigenvector stage alone; a q one
        # too large disagrees with the uniform length of the certificate
        from morphauto import criteria

        spec = parse_morphism((corpus_path / f"{name}.morph").read_text(encoding="utf-8"))
        q = analyze(spec).verdict.q
        criterion = criteria.eigenvector_criterion
        monkeypatch.setattr(criteria, "eigenvector_criterion", lambda m: criterion(m) + 1)
        with pytest.raises(
            InternalCheckError,
            match=f"stage eigenvector claimed q={q + 1}, but its certificate is {q}-uniform",
        ):
            analyze(spec)

    def test_irrational_root_next_to_automatic_is_an_internal_error(
        self, istrail, xzy, monkeypatch
    ):
        # istrail is certified by the eigenvector stage; a patched
        # irrationality stage that also succeeds contradicts it
        from morphauto import criteria

        irrational = irrationality_verdict(xzy.morphism)
        assert irrational is not None
        monkeypatch.setattr(criteria, "irrationality_verdict", lambda m: irrational)
        with pytest.raises(InternalCheckError, match="stage eigenvector certified"):
            analyze(istrail)

    def test_block_q_unlike_eigenvector_q_is_an_internal_error(
        self, a284878, thue_morse, monkeypatch
    ):
        # a284878 is certified with q=3 by the eigenvector stage; a patched
        # block stage that finds a 2-uniform block morphism, induced (so it
        # says) by the input, contradicts it
        from morphauto import criteria

        assert analyze(a284878).verdict.q == 3
        two_uniform = block_morphism(thue_morse, 2)
        assert two_uniform.morphism.uniform_length == 2
        monkeypatch.setattr(
            criteria,
            "block_morphism",
            lambda spec, k, prefix: replace(two_uniform, source=spec.morphism),
        )
        with pytest.raises(InternalCheckError, match="stage eigenvector certified.*stage block"):
            analyze(a284878)

    def test_report_json_shape(self, lysenok):
        report = analyze(lysenok)
        data = report.to_json()
        assert data["schema_version"] == 1
        assert data["verdict"]["kind"] == "automatic"
        assert {s["name"] for s in data["stages"]} >= {"uniform", "block"}
        assert data["input"]["incidence"]["matrix"][0] == ["2", "0", "0", "0"]
        assert data["input"]["incidence"]["length_vector"] == ["3", "1", "1", "1"]

    def test_corpus_stage_records(self, corpus_path):
        names = sorted(path.stem for path in corpus_path.glob("*.morph"))
        assert names == sorted(CORPUS_STAGES)
        for name in names:
            spec = parse_morphism((corpus_path / f"{name}.morph").read_text(encoding="utf-8"))
            record = " ".join(f"{s.name}:{s.status}" for s in analyze(spec).stages)
            assert record == CORPUS_STAGES[name], name

    @pytest.mark.parametrize("name", UNKNOWN_ENTRIES)
    def test_unknown_reports_are_pinned(self, corpus_path, name):
        assert_report_pinned(corpus_path, name)

    @pytest.mark.parametrize("name", sorted(set(CORPUS_STAGES) - set(UNKNOWN_ENTRIES)))
    def test_decided_reports_are_pinned(self, corpus_path, name):
        assert_report_pinned(corpus_path, name)

    @pytest.mark.parametrize(
        "name",
        sorted(n for n, r in PINNED_REPORTS.items() if r["verdict"]["kind"] == "not_automatic"),
    )
    def test_pinned_brackets_hold(self, name):
        # each pinned bracket [p/q, p'/q'] is checked exactly: rho(M) >= p/q
        # iff rho(qM) >= p, read off the signs of the minors of pI - qM
        report = PINNED_REPORTS[name]
        m = [[int(entry) for entry in row] for row in report["input"]["incidence"]["matrix"]]
        bracket = report["verdict"]["spectral"]["radius_bracket"]
        lo, hi = Fraction(bracket["lo"]), Fraction(bracket["hi"])
        assert not bracket["loose"] and 0 <= hi - lo <= Fraction(1, 10**6)

        def sign(value):
            scaled = tuple(tuple(value.denominator * entry for entry in row) for row in m)
            return radius_sign(scaled, value.numerator)

        assert sign(lo) >= 0 and sign(hi) <= 0


class TestBlockStage:
    def test_expands_the_fixed_point_once(self, fibonacci, monkeypatch):
        # fibonacci's block stage tries every k up to kmax and none succeeds;
        # each k reads its first block from one prefix of kmax letters
        from morphauto import criteria

        calls = []
        expand = MorphicSpec.uncoded_prefix

        def counted(spec, n):
            calls.append(n)
            return expand(spec, n)

        monkeypatch.setattr(MorphicSpec, "uncoded_prefix", counted)
        outcome, claim = criteria._block_stage(fibonacci, AnalyzeOptions())
        assert claim is None and outcome.status == "no"
        assert outcome.detail.count("k=") == 7
        assert calls == [8]

    def test_every_k_gets_what_block_morphism_builds_alone(self, corpus_path, monkeypatch):
        # every k the stage tries, on every corpus spec and every family
        # draw, gives the same BlockMorphism or the same error text as
        # block_morphism(spec, k) expanding its own k letters
        from morphauto import criteria

        texts = [path.read_text(encoding="utf-8") for path in sorted(corpus_path.glob("*.morph"))]
        texts += [text for seed in SEEDS for text in family(seed)]
        opts = AnalyzeOptions()
        seen = []

        def recorded(spec, k, prefix):
            try:
                blk = block_morphism(spec, k, prefix)
            except BlockConstructionError as exc:
                seen.append((k, str(exc)))
                raise
            seen.append((k, blk))
            return blk

        monkeypatch.setattr(criteria, "block_morphism", recorded)
        for text in texts:
            spec = parse_morphism(text)
            seen.clear()
            _, claim = criteria._block_stage(spec, opts)
            last = seen[-1][0]
            assert [k for k, _ in seen] == list(range(2, last + 1))
            assert last == opts.kmax or claim is not None
            for k, got in seen:
                try:
                    alone = block_morphism(spec, k)
                except BlockConstructionError as exc:
                    alone = str(exc)
                assert got == alone, (text, k)


class TestVerifyCertificate:
    def test_certificate_of_another_sequence(self, thue_morse, period_doubling):
        cert = analyze(period_doubling).verdict.certificate
        with pytest.raises(InternalCheckError, match="disagrees"):
            _verify_certificate(thue_morse, cert, 5000)

    def test_same_indices_over_a_relabelled_alphabet(self, thue_morse):
        # the coded letter indices agree, the letters they stand for do not
        cert = analyze(thue_morse).verdict.certificate
        swapped = Coding(cert.coding.source, Alphabet(("1", "0")), cert.coding.table)
        relabelled = UniformRepresentation(cert.morphism, cert.seed, swapped)
        assert relabelled.coded_prefix(5000) == thue_morse.coded_prefix(5000)
        with pytest.raises(InternalCheckError, match="output alphabet"):
            _verify_certificate(thue_morse, relabelled, 5000)

    @pytest.fixture
    def letters_generated(self, monkeypatch):
        """The lengths of every uncoded prefix generated while it is in use."""
        lengths = []
        original = MorphicSpec.uncoded_prefix

        def counting(spec, n):
            word = original(spec, n)
            lengths.append(len(word))
            return word

        monkeypatch.setattr(MorphicSpec, "uncoded_prefix", counting)
        return lengths

    @pytest.mark.parametrize("name", ["thue_morse", "berstel"])
    def test_the_input_itself_is_not_expanded(self, request, letters_generated, name):
        # uncoded and coded inputs: the uniform stage's certificate
        spec = request.getfixturevalue(name)
        _verify_certificate(spec, representation_from_spec(spec), 10_000)
        assert letters_generated == []

    def test_another_seed_is_replayed(self, thue_morse, letters_generated):
        own = representation_from_spec(thue_morse)
        other = UniformRepresentation(own.morphism, 1, own.coding)
        with pytest.raises(InternalCheckError, match="disagrees"):
            _verify_certificate(thue_morse, other, 5000)
        assert letters_generated == [5000, 5000]

    @pytest.mark.parametrize("name", ["thue_morse", "berstel"])
    def test_another_coding_is_replayed(self, request, letters_generated, name):
        # the same morphism and seed, the output letters 0 and 1 swapped
        spec = request.getfixturevalue(name)
        own = representation_from_spec(spec)
        swap = {0: 1, 1: 0}
        table = tuple(swap.get(c, c) for c in own.coding.table)
        other = UniformRepresentation(
            own.morphism, own.seed, Coding(own.coding.source, own.coding.target, table)
        )
        assert other.output_alphabet == spec.output_alphabet
        with pytest.raises(InternalCheckError, match="disagrees"):
            _verify_certificate(spec, other, 5000)
        assert letters_generated == [5000, 5000]

    @staticmethod
    def fan(r: int) -> Morphism:
        """x0 -> x0 x1 ... x(r-1) and xi -> xi^r: the letter x(r-1) and the
        2-block x(r-2) x(r-1) occur first at index r - 1 of the fixed point,
        whose 2-blocks are 3r/2 - 1 in number."""
        alphabet = Alphabet(tuple(f"x{i}" for i in range(r)))
        return Morphism(alphabet, (tuple(range(r)),) + tuple((i,) * r for i in range(1, r)))

    # r = 200: one byte a letter; r = 300: more than 256 letters
    @pytest.mark.parametrize("r", [200, 300])
    @pytest.mark.parametrize("kind", ["uniform", "block"])
    def test_a_difference_at_the_last_replayed_letter(self, r, kind):
        m = self.fan(r)
        if kind == "uniform":
            # the codings differ on x(r-1) only
            target = Alphabet(("p", "q"))
            spec = MorphicSpec(m, 0, Coding(m.alphabet, target, (0,) * (r - 1) + (1,)))
            cert = UniformRepresentation(m, 0, Coding(m.alphabet, target, (0,) * r))
        else:
            spec = MorphicSpec(m, 0)
            blk = block_morphism(spec, 2)
            assert len(blk.blocks) > 256
            blocks = list(blk.blocks)
            blocks[blocks.index((r - 2, r - 1))] = (r - 2, r - 2)
            cert = BlockCertificate(m, 0, block=replace(blk, blocks=tuple(blocks)))
        _verify_certificate(spec, cert, r - 1)
        with pytest.raises(InternalCheckError, match="disagrees"):
            _verify_certificate(spec, cert, r)

    @pytest.mark.parametrize("r", [200, 300])
    def test_flatten_prefix_takes_the_format_of_the_source(self, r):
        # r = 200: bytes, although the 299 blocks do not fit a byte;
        # r = 300: a tuple
        spec = MorphicSpec(self.fan(r), 0)
        blk = block_morphism(spec, 2)
        assert len(blk.blocks) > 256
        expected = naive_iterate(rules_of(spec), "x0", 4 * r + 1)
        for n in (0, 1, 4 * r, 4 * r + 1):
            word = blk.flatten_prefix(n)
            assert type(word) is (bytes if r <= 256 else tuple)
            assert list(spec.morphism.alphabet.tokens(word)) == expected[:n]


# SHA-256 of every report (``to_json``, canonical JSON) on the benchmark's
# seed-1 ``spectral`` inputs: primitive non-uniform morphisms over 16 to 32
# letters, half with an integer eigenvalue, all decided by the spectral
# layer.  Recorded again with the Newton bracket, which moved only the
# bracket's lo and hi, and again when the eigenvector stage stopped
# recording an anagram outcome; the linear-algebra path is pinned here as
# the corpus reports pin the rest.
SPECTRAL_DIGESTS = json.loads((Path(__file__).parent / "spectral_reports.json").read_text())


def test_spectral_reports_are_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    digests = {}
    for item in workloads.spectral_workload(1):
        report = analyze(parse_morphism(item.text)).to_json()
        canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
        digests[item.name] = hashlib.sha256(canonical.encode()).hexdigest()
    assert digests == SPECTRAL_DIGESTS


# The (kind, provenance) counts of the seeded random family in ``family.py``:
# 3000 prolongable specs, each analyzed at depth 2000.  A change that moves
# decision coverage re-pins them on purpose.
FAMILY_COUNTS = json.loads((Path(__file__).parent / "family_counts.json").read_text())


def test_family_coverage_is_pinned():
    assert coverage() == FAMILY_COUNTS


def test_family_with_fixed_r_draws_over_its_letters():
    # family(seed, count, r) skips the r draw and spells letters l0..l{r-1}
    texts = family(1, 50, r=8)
    assert texts == family(1, 50, r=8)
    assert texts != family(2, 50, r=8)
    letters = tuple(f"l{i}" for i in range(8))
    codings = 0
    for text in texts:
        spec = parse_morphism(text)
        m = spec.morphism
        assert m.alphabet.letters == letters
        assert spec.seed == 0 and m.images[0][0] == 0 and 2 <= len(m.images[0]) <= 4
        assert all(1 <= len(img) <= 4 for img in m.images[1:])
        if spec.coding is not None:
            codings += 1
            t = len(spec.coding.target)
            assert 1 <= t <= 4 and set(spec.coding.table) == set(range(t))
    assert 0 < codings < len(texts)
