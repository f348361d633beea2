"""Certificate-first validation: ``duality.certified_validate`` against the
axiom sweep it replaces on valid input, and the bound it decides by."""

import contextlib
import io
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cstardual import cli, cstarcat, duality, functors, jsonio
from cstardual.cstarcat import (
    FiniteCStarCategory,
    ValidationReport,
    _axiom_scales,
    _squares,
    identity_functor,
    linking_category,
    validate_category,
)
from cstardual.duality import (
    axiom_certificate,
    bimodule_spectrum,
    certified_spectrum,
    certified_validate,
    check_gelfand_isomorphism,
    check_naturality_E,
    check_naturality_G,
)
from cstardual.errors import (BimoduleAxiomViolation, CstarDualError, DiagonalNotSemisimple,
                             HolonomyViolation, InvalidCategory)
from cstardual.functors import sections_category, sigma_on_morphism, spectral_spaceoid
from cstardual.generators import (GenParams, _transport_category, gen_category,
                                  gen_functor_pair, gen_morphism_pair, gen_spaceoid,
                                  scramble_category)
from cstardual.numlin import DEFAULT_TOL, Tolerance
from cstardual.rng import Xoshiro256StarStar
from cstardual.spaceoid import FiniteSpaceoid, apply_gauge, validate_spaceoid

from conftest import conditioned_category, diagonal_support_bimodule
from test_cstarcat import ring_sections, split_square_category
from test_functors import perturbed_category

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURES = ["scalars_category", "footnote_category", "discrete_two_category",
            "c2_selfadjoint", "c2_negative_square"]


def assert_same_verdict(cat):
    """``certified_validate`` and ``validate_category`` agree: verdict, check
    counts, and failures with witnesses and deviations in order."""
    got = certified_validate(cat)
    want = validate_category(cat)
    assert got.ok == want.ok
    assert Counter(got.checks_run) == Counter(want.checks_run)
    assert [(f.check, f.witness, f.deviation) for f in got.failures] == \
        [(f.check, f.witness, f.deviation) for f in want.failures]
    assert str(got) == str(want) and got.to_json() == want.to_json()


@pytest.fixture
def sweep_calls(monkeypatch):
    """Counts the calls of the sweep made through ``duality``."""
    calls = []

    def counting(cat, tol=DEFAULT_TOL):
        calls.append(cat)
        return validate_category(cat, tol)

    monkeypatch.setattr(duality, "validate_category", counting)
    return calls


@pytest.fixture
def spectrum_calls(monkeypatch):
    """The categories whose spectrum body runs, one entry per run."""
    calls = []
    body = functors._spectral_spaceoid

    def counting(C, tol):
        calls.append(C)
        return body(C, tol)

    monkeypatch.setattr(functors, "_spectral_spaceoid", counting)
    return calls


def wide_category(seed, sizes=(14, 10), links=7):
    """The shape of the ``wide`` benchmark workload, smaller: two objects with
    large diagonals, ``links`` points each way between them, random phases,
    unitarily scrambled."""
    rng = Xoshiro256StarStar(seed)
    base = {A: [f"{A.lower()}{i:02d}" for i in range(k)] for A, k in zip("AB", sizes)}
    pairs = [(f"a{i:02d}", f"b{i:02d}") for i in range(links)]
    S = FiniteSpaceoid("AB", base, {("A", "B"): pairs, ("B", "A"): [(s, t) for t, s in pairs]})
    S = apply_gauge(S, {h: np.exp(2j * np.pi * rng.uniform()) for h in S.all_points()})
    cat, _ = scramble_category(sections_category(S, check=False), rng, "unitary")
    return cat


def shifted_entry(cat, key, amount):
    """``cat`` with entry [0, 0, 0] of ``comp[key]`` moved by ``amount``."""
    comp = {k: v.copy() for k, v in cat.comp.items()}
    comp[key][0, 0, 0] += amount
    return FiniteCStarCategory(cat.objects, dict(cat.dims), comp, cat.invol, cat.units)


class TestCertificateFirstValidate:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, request, name):
        assert_same_verdict(request.getfixturevalue(name))

    def test_fixture_documents_and_linking_categories(self, nonfull_bimodule):
        kind, cat = jsonio.load_document((FIXTURE_DIR / "footnote_full.json").read_text())
        assert kind == "category"
        assert_same_verdict(cat)
        for M in (nonfull_bimodule, diagonal_support_bimodule(1, 1, []),
                  diagonal_support_bimodule(3, 2, [(0, 1), (2, 0)]),
                  associativity_broken_bimodule()):
            assert_same_verdict(linking_category(M))
        assert_same_verdict(split_square_category())

    @pytest.mark.parametrize("block", range(10))
    @pytest.mark.parametrize("scramble", ["none", "unitary", "invertible"])
    def test_generated_categories(self, block, scramble):
        for seed in range(10 * block, 10 * block + 10):
            cat, _ = gen_category(GenParams(
                seed=seed, n_objects=1 + seed % 5, max_base=4,
                edge_density=(0.5, 0.8, 1.0)[seed % 3], phase_mode="random", scramble=scramble))
            assert_same_verdict(cat)

    @pytest.mark.parametrize("block", range(5))
    @pytest.mark.parametrize("scramble", ["unitary", "invertible"])
    @pytest.mark.parametrize("involution", [False, True])
    def test_perturbed_categories(self, block, scramble, involution):
        for seed in range(30 * block, 30 * block + 30):
            assert_same_verdict(perturbed_category(seed, scramble, involution))

    @pytest.mark.parametrize("kappa", [10, 100, 1000])
    def test_conditioned_categories(self, kappa):
        for seed in range(20):
            assert_same_verdict(conditioned_category(seed, kappa)[0])

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_threshold_corpus(self, factor):
        # one structure constant of a valid category moved by a multiple of
        # the sweep's threshold: the deviations it makes sit near that threshold
        verdicts = Counter()
        for seed in range(12):
            cat, _ = gen_category(GenParams(seed=seed, n_objects=2 + seed % 3, max_base=3,
                                            edge_density=1.0, phase_mode="random",
                                            scramble=("unitary", "invertible")[seed % 2]))
            atol = DEFAULT_TOL.axiom(*_axiom_scales(cat))
            for key in sorted(cat.comp)[:: max(1, len(cat.comp) // 4)]:
                mutant = shifted_entry(cat, key, factor * atol)
                assert_same_verdict(mutant)
                verdicts[validate_category(mutant).ok] += 1
        assert verdicts[factor < 1]  # some pass at half the threshold, some fail at twice

    def test_valid_wide_category_never_reaches_the_sweep(self, sweep_calls):
        cat = wide_category(1)
        want = validate_category(cat)
        got = certified_validate(cat)
        assert sweep_calls == [] and DEFAULT_TOL in cat._spectra
        assert got.ok and want.ok and Counter(got.checks_run) == Counter(want.checks_run)

    def test_inconclusive_bound_reaches_the_sweep(self, sweep_calls):
        cat = conditioned_category(0, 1e3)[0]
        _, _, bounds = axiom_certificate(cat)
        assert bounds["positivity"] > DEFAULT_TOL.positivity(1.0) / 2  # inconclusive
        report = certified_validate(cat)
        assert sweep_calls == [cat] and DEFAULT_TOL in cat._spectra and report.ok

    def test_failed_spectrum_reaches_the_sweep(self, sweep_calls, c2_negative_square):
        with pytest.raises(CstarDualError):
            certified_spectrum(c2_negative_square)
        report = certified_validate(c2_negative_square)
        assert sweep_calls == [c2_negative_square] and not c2_negative_square._spectra
        assert not report.ok

    def test_cli_validate_takes_the_certificate(self, sweep_calls, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(jsonio.dump_json(jsonio.category_to_json(wide_category(2))))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["validate", "--input", str(path)])
        assert code == 0 and sweep_calls == []
        assert out.getvalue() == f"category: {validate_category(wide_category(2))}\n"


# ---------------------------------------------------------------------------
# the bound against the deviations the sweep computes
# ---------------------------------------------------------------------------

def twisted_sections(seed, theta):
    """Sections of a generated spaceoid with one composition phase rotated by
    ``theta``: a cocycle defect of about ``theta`` that the phase checks
    still pass, carried into C's associativity unchanged."""
    S = gen_spaceoid(GenParams(seed=seed, n_objects=3, max_base=3, edge_density=1.0))
    rows = [(h1, h2) for (h1, h2) in S.cphase if h1[0] != h2[1]]  # off the diagonal
    cphase = dict(S.cphase)
    cphase[rows[seed % len(rows)]] *= np.exp(1j * theta)
    points = {key: pts for key, pts in S.points.items() if pts}
    twisted = FiniteSpaceoid(S.objects, S.base_sets, points, S.nu, cphase)
    return sections_category(twisted, check=False)


TWISTED_SEEDS = (0, 1, 4, 5, 6, 8)  # spaceoids with a composite point off the diagonal


def scaled(cat, key, factor):
    """``cat`` with the basis of Hom-set ``key`` scaled by ``factor``: the
    coordinates of what lands there grow by ``1 / factor``, and so does K."""
    transforms = {k: np.eye(d, dtype=complex) * (factor if k == key else 1.0)
                  for k, d in cat.dims.items()}
    return _transport_category(cat, transforms)


def bound_corpus():
    yield from (twisted_sections(seed, 4e-10) for seed in TWISTED_SEEDS)
    for seed in TWISTED_SEEDS[:3]:
        # every Hom-set scaled in turn: where the defect lands in a Hom-set
        # that is no factor of its triple (a diagonal here), only K covers it
        cat = twisted_sections(seed, 4e-10)
        yield from (scaled(cat, key, 1e-2) for key, d in cat.dims.items() if d)
    yield from (conditioned_category(seed, kappa)[0] for seed in range(4) for kappa in (10, 1e3))
    for seed in range(6):
        cat, _ = gen_category(GenParams(seed=seed, n_objects=3, max_base=3, edge_density=1.0,
                                        phase_mode="random", scramble="invertible"))
        yield cat
        yield shifted_entry(cat, sorted(cat.comp)[seed], 1e-9)


def positivity_ratios(cat):
    """Per basis element, the sweep's positivity deviation over the scale
    its threshold is taken at."""
    ratios = [0.0]
    for A in cat.objects:
        for B in cat.out[A]:
            vals = cat.characters(B) @ _squares(cat, A, B, np.eye(cat.dim(A, B)))
            neg, imag = np.min(vals.real, axis=0), np.max(np.abs(vals.imag), axis=0)
            dev = np.maximum(-neg, 0.0) + imag
            ratios.append(float(np.max(dev / (1 + np.max(np.abs(vals), axis=0)))))
    return max(ratios)


class TestCertificateBound:
    def test_bound_dominates_the_sweep(self):
        decided = 0
        for cat in bound_corpus():
            try:
                certified_spectrum(cat)
            except CstarDualError:
                continue
            _, report, bounds = axiom_certificate(cat)
            if not report.ok:
                continue
            decided += 1
            sweep = validate_category(cat).largest
            for check, bound in bounds.items():
                if check != "positivity":
                    assert sweep.get(check, 0.0) <= bound, (check, sweep[check], bound)
            # both the negative and the imaginary part stay under E
            assert positivity_ratios(cat) <= 2 * bounds["positivity"]
        assert decided >= 20

    def test_twist_is_seen_by_the_phases_alone(self):
        # the twist leaves the transform exact: only delta carries it
        cat = twisted_sections(0, 4e-10)
        _, _, report = certified_spectrum(cat)
        _, gelfand, _ = axiom_certificate(cat)
        assert validate_category(cat).largest["associativity"] > 1e-10
        assert gelfand.largest["functor_composition"] < 1e-12
        assert report.largest["cocycle"] > 1e-10

    def test_report_keeps_largest_deviation(self):
        report = ValidationReport()
        report.record("a", np.array([True, True]), deviation=np.array([0.5, 2.0]))
        report.record("a", True, deviation=1.0)
        report.record(np.array(["b", "c"]), np.array([True, False]), lambda k: str(k),
                      np.array([3.0, float("nan")]))
        assert report.largest["a"] == 2.0 and report.largest["b"] == 3.0
        assert np.isnan(report.largest["c"])
        assert "largest" not in report.to_json()


# ---------------------------------------------------------------------------
# link through the certificate
# ---------------------------------------------------------------------------

def associativity_broken_bimodule():
    # the left algebra's third idempotent meets no inner product, so the
    # bimodule checks pass, but it acts on x_0 while e_2 e_0 = 0
    M = diagonal_support_bimodule(3, 2, [(0, 0), (1, 1)])
    M.left_action[2, 0, 0] = 1.0
    return M


class TestLinkThroughCertificate:
    def test_linking_category_checks_only_the_bimodule_axioms(self, monkeypatch):
        monkeypatch.setattr(cstarcat, "validate_category", None)  # a sweep would raise
        cat = linking_category(associativity_broken_bimodule())
        monkeypatch.undo()
        assert not validate_category(cat).ok

    def test_invalid_linking_category_names_the_sweep_failure(self):
        M = associativity_broken_bimodule()
        first = validate_category(linking_category(M)).failures[0]
        with pytest.raises(BimoduleAxiomViolation) as exc:
            bimodule_spectrum(M)
        assert str(exc.value) == f"linking category fails {first.check} at {first.witness}"
        assert str(exc.value) == "linking category fails associativity at (A,A,A,B)"

    def test_bimodule_spectrum_reuses_the_certificate(self, nonfull_bimodule, spectrum_calls,
                                                      sweep_calls):
        # the certificate takes the spectrum; the link reads it from the cache
        spec = bimodule_spectrum(nonfull_bimodule)
        assert len(spectrum_calls) == 1 and sweep_calls == []
        assert len(spec.pairs) == 2 and spec.iso is not None

    def test_refused_certificate_falls_back_to_the_sweep(self, nonfull_bimodule, monkeypatch,
                                                         sweep_calls):
        want = bimodule_spectrum(nonfull_bimodule)

        def refuse(C, tol=DEFAULT_TOL):
            raise HolonomyViolation("spectrum refused")

        monkeypatch.setattr(duality, "certified_spectrum", refuse)
        got = bimodule_spectrum(nonfull_bimodule)
        assert len(sweep_calls) == 1
        assert got.pairs == want.pairs and np.array_equal(got.iso, want.iso)

    def test_linking_diagonals_keep_the_algebra_characters(self, nonfull_bimodule):
        cat = linking_category(nonfull_bimodule)
        for obj, alg in (("A", nonfull_bimodule.algA), ("B", nonfull_bimodule.algB)):
            fresh = FiniteCStarCategory((obj,), {(obj, obj): cat.dim(obj, obj)},
                                        {(obj,) * 3: cat.comp[(obj,) * 3]},
                                        {(obj, obj): cat.invol[(obj, obj)]},
                                        {obj: cat.unit(obj)})
            assert np.array_equal(cat.characters(obj), fresh.characters(obj))
            assert cat.characters(obj) is alg.characters(alg.objects[0])


# ---------------------------------------------------------------------------
# one spectrum per category and tolerance
# ---------------------------------------------------------------------------

class TestSpectrumCache:
    def test_naturality_takes_each_spectrum_once(self, spectrum_calls):
        params = GenParams(seed=3, n_objects=3, max_base=3, edge_density=0.8,
                           phase_mode="random", scramble="unitary")
        phi, _ = gen_functor_pair(params)
        assert check_naturality_G(phi).ok
        assert len(spectrum_calls) == 2
        assert {id(C) for C in spectrum_calls} == {id(phi.source), id(phi.target)}
        spectrum_calls.clear()
        m, _ = gen_morphism_pair(params)
        assert check_naturality_E(m).ok
        assert len(spectrum_calls) == 2  # the two section categories, once each

    def test_another_tolerance_takes_it_anew(self, spectrum_calls, footnote_category):
        first = spectral_spaceoid(footnote_category)
        assert spectral_spaceoid(footnote_category) is first
        other = Tolerance(1e-10, 1e-10)
        spectral_spaceoid(footnote_category, other)
        assert spectrum_calls == [footnote_category] * 2
        assert set(footnote_category._spectra) == {DEFAULT_TOL, other}

    def test_a_raising_input_raises_again(self, spectrum_calls, c2_negative_square):
        for _ in range(2):
            with pytest.raises(DiagonalNotSemisimple):
                spectral_spaceoid(c2_negative_square)
        assert len(spectrum_calls) == 2 and not c2_negative_square._spectra

    def test_category_without_objects(self, sweep_calls):
        empty = FiniteCStarCategory([], {}, {}, {}, {})
        with pytest.raises(InvalidCategory, match="without objects"):
            spectral_spaceoid(empty)
        report = certified_validate(empty)
        assert sweep_calls == [empty] and report.ok and report.checks_run == []
        assert report.to_json() == validate_category(empty).to_json()


# ---------------------------------------------------------------------------
# work per call on a ring with many zero Hom-sets
# ---------------------------------------------------------------------------

class TestRingCallCounts:
    """On the 64-object ring (4096 Hom pairs, 192 of them nonzero, 128
    off-diagonal Hom-sets with points) the checks record once per check or
    per nonzero Hom-set, and the spectrum of a functor visits only Hom-sets
    with points."""

    @pytest.fixture(scope="class")
    def ring(self):
        cat = ring_sections(64)
        return cat, spectral_spaceoid(cat)

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        record = ValidationReport.record

        def counting_record(self, *args, **kwargs):
            counts["record"] += 1
            return record(self, *args, **kwargs)

        monkeypatch.setattr(ValidationReport, "record", counting_record)
        return counts

    def test_validate_spaceoid(self, ring, counts):
        report = validate_spaceoid(ring[1][0])
        assert report.ok and counts == {"record": 12}
        assert Counter(report.checks_run)["target_injective"] == 64 * 63

    def test_check_gelfand_isomorphism(self, ring, counts):
        cat, _ = ring
        _, report = check_gelfand_isomorphism(cat)
        # 64 functor_unit, 3 other functor checks, 1 for the zero Hom-sets,
        # then bijectivity and isometry on each of the 192 nonzero ones
        assert report.ok and counts == {"record": 64 + 3 + 1 + 2 * 192}
        assert Counter(report.checks_run)["homset_bijective"] == 64 * 64

    def test_sigma_on_morphism(self, ring):
        cat, (S, _) = ring
        F, reads = identity_functor(cat), Counter()

        class CountingReads(dict):
            def __getitem__(self, key):
                reads[key] += 1
                return dict.__getitem__(self, key)

        F.hom_maps = CountingReads(F.hom_maps)
        m = sigma_on_morphism(F)
        # the gate and the scalars read the Hom maps of the Hom-sets with points only
        with_points = {key for key, pts in S.points.items() if pts}
        assert len(with_points) == 128
        assert {(A, B) for A, B in reads if A != B} == with_points
        assert all(abs(v - 1) < 1e-12 for v in m.scalars.values())
