import numpy as np
import pytest

from cstardual.cstarcat import StarFunctor, cstar_norm, identity_functor
from cstardual.duality import (
    bimodule_spectrum,
    check_bimodule_isomorphism,
    check_gelfand_isomorphism,
    check_naturality_E,
    check_naturality_G,
    evaluation_transform,
    gelfand_transform,
)
from cstardual.errors import InvalidCategory
from cstardual.functors import sections_category, spectral_spaceoid
from cstardual.generators import (
    GenParams,
    gen_category,
    gen_functor_pair,
    gen_morphism_pair,
    gen_spaceoid,
    scramble_category,
)
from cstardual.rng import Xoshiro256StarStar
from cstardual.spaceoid import (
    FiniteSpaceoid,
    apply_gauge,
    compose_morphisms,
    identity_morphism,
    invert_morphism,
    morphisms_equal,
    spaceoids_isomorphic,
    validate_morphism,
)

from conftest import diagonal_support_bimodule


class TestGelfandTransform:
    def test_scalars_one_dimensional_frame(self, scalars_category):
        F = gelfand_transform(scalars_category)
        H = F.hom_maps[("A", "A")]
        assert H.shape == (1, 1)
        assert H[0, 0] == pytest.approx(1.0)

    def test_e1_sections_permutation_with_phases(self, e1_spaceoid):
        cat = sections_category(e1_spaceoid)
        F, report = check_gelfand_isomorphism(cat)
        assert report.ok
        for key, H in F.hom_maps.items():
            if H.size == 0:
                continue
            # each row and column carries exactly one unit-modulus entry
            mags = np.abs(H)
            assert np.allclose(np.sort(mags, axis=0)[-1], 1.0, atol=1e-9)
            assert np.count_nonzero(mags > 1e-9) == H.shape[0]

    def test_isometry_spot_check(self, c2_selfadjoint):
        x = np.array([0.0, 1.0])
        F = gelfand_transform(c2_selfadjoint)
        image = F.apply("A", "A", x)
        assert cstar_norm(F.target, "A", "A", image) == pytest.approx(1.0)
        assert cstar_norm(c2_selfadjoint, "A", "A", x) == pytest.approx(1.0)

    def test_bijective_and_isometric_on_generated(self):
        for seed in range(12):
            params = GenParams(seed=seed, n_objects=1 + seed % 4, max_base=3,
                               edge_density=0.7, phase_mode="random",
                               scramble=("unitary", "invertible")[seed % 2])
            cat, _ = gen_category(params)
            F, report = check_gelfand_isomorphism(cat)
            assert report.ok, (seed, str(report))

    def test_labels_keep_index_order_past_100_points(self):
        # 101 characters need 3-digit labels: "100" must sort after "99"
        base = [f"x{k}" for k in range(101)]
        S = FiniteSpaceoid(["A", "B"], {"A": base, "B": ["y"]},
                           {("A", "B"): [("x0", "y")], ("B", "A"): [("y", "x0")]})
        cat, _ = scramble_category(sections_category(S), Xoshiro256StarStar(101), "unitary")
        S2, _ = spectral_spaceoid(cat)
        assert sorted(S2.base_sets["A"]) == list(S2.base_sets["A"])
        _, report = check_gelfand_isomorphism(cat)
        assert report.ok, str(report)


class TestEvaluationTransform:
    def test_single_point_identity_shape(self, s0_spaceoid):
        m = evaluation_transform(s0_spaceoid)
        assert validate_morphism(m).ok
        assert len(m.target.base_sets["A"]) == 1

    def test_e1_unit_scalars_under_trivial_gauge(self, e1_spaceoid):
        m = evaluation_transform(e1_spaceoid)
        assert validate_morphism(m).ok
        for h in m.source.all_points():
            assert m.scalar(h) == pytest.approx(1.0)

    def test_full_two_object(self, full2_spaceoid, footnote_category):
        m = evaluation_transform(full2_spaceoid)
        S2, _ = spectral_spaceoid(footnote_category)
        assert sorted(len(v) for v in m.target.base_sets.values()) == \
            sorted(len(v) for v in S2.base_sets.values())
        assert validate_morphism(m).ok

    def test_spectrum_in_another_basis_rejected(self, e1_spaceoid):
        # a scrambled basis moves the characters off the coordinate projections
        cat, _ = scramble_category(sections_category(e1_spaceoid), Xoshiro256StarStar(3),
                                   "unitary")
        with pytest.raises(InvalidCategory, match=r"evaluation at \(A,1\)"):
            evaluation_transform(e1_spaceoid, spectrum=spectral_spaceoid(cat))

    def test_invertible_on_generated(self):
        for seed in range(12):
            S = gen_spaceoid(GenParams(seed=seed, n_objects=1 + seed % 4,
                                       max_base=3, edge_density=0.7,
                                       phase_mode="random"))
            m = evaluation_transform(S)
            assert validate_morphism(m).ok
            inv = invert_morphism(m)
            assert validate_morphism(inv).ok
            eq, dev = morphisms_equal(compose_morphisms(m, inv),
                                      identity_morphism(S), tol=1e-9)
            assert eq, (seed, dev)
            assert spaceoids_isomorphic(S, m.target) is not None


class TestNaturality:
    def test_identity_functor_zero_deviation(self, footnote_category):
        report = check_naturality_G(identity_functor(footnote_category))
        assert report.ok
        assert report.square_identity <= 1e-12

    def test_unit_rescaling_on_e1_sections(self, e1_spaceoid):
        cat = sections_category(e1_spaceoid)
        homs = {key: np.eye(cat.dim(*key), dtype=complex) for key in cat.dims}
        homs[("A", "B")] = np.exp(1.3j) * np.eye(1)
        homs[("B", "A")] = np.exp(-1.3j) * np.eye(1)
        F = StarFunctor(cat, cat, {"A": "A", "B": "B"}, homs)
        report = check_naturality_G(F)
        assert report.ok
        assert report.square_identity <= 1e-9

    def test_generated_functors(self):
        for seed in range(8):
            params = GenParams(seed=seed, n_objects=2 + seed % 2, max_base=2,
                               edge_density=0.8, phase_mode="random",
                               scramble=("none", "unitary", "invertible")[seed % 3])
            phi, psi = gen_functor_pair(params)
            assert check_naturality_G(phi).ok, seed
            assert check_naturality_G(psi).ok, seed

    def test_identity_morphism_zero_deviation(self, e1_spaceoid):
        report = check_naturality_E(identity_morphism(e1_spaceoid))
        assert report.ok
        assert report.square_identity <= 1e-12

    def test_phase_automorphism_of_e1(self, e1_spaceoid):
        from cstardual.spaceoid import SpaceoidMorphism
        m = SpaceoidMorphism(
            e1_spaceoid, e1_spaceoid, {"A": "A", "B": "B"},
            {A: {x: x for x in e1_spaceoid.base_sets[A]} for A in "AB"},
            {("A", "B", 0): np.exp(0.4j), ("B", "A", 0): np.exp(-0.4j)})
        assert validate_morphism(m).ok
        report = check_naturality_E(m)
        assert report.ok

    def test_gauge_equivalent_morphism(self, chain3_spaceoid):
        twisted = apply_gauge(chain3_spaceoid, {("A", "B", 0): 1j})
        m = spaceoids_isomorphic(chain3_spaceoid, twisted)
        assert m is not None
        report = check_naturality_E(m)
        assert report.ok

    def test_generated_morphisms(self):
        for seed in range(8):
            params = GenParams(seed=seed, n_objects=2 + seed % 2, max_base=2,
                               edge_density=0.8, phase_mode="random")
            m1, m2 = gen_morphism_pair(params)
            assert check_naturality_E(m1).ok, seed
            assert check_naturality_E(m2).ok, seed


class TestBimoduleSpectrum:
    def test_zero_module(self):
        M = diagonal_support_bimodule(2, 2, [])
        spec = bimodule_spectrum(M)
        assert spec.pairs == []
        assert spec.left_support == [] and spec.right_support == []
        assert not spec.full_left() and not spec.full_right()

    def test_imprimitivity_line(self):
        M = diagonal_support_bimodule(1, 1, [(0, 0)])
        spec = bimodule_spectrum(M)
        assert spec.pairs == [(0, 0)]
        assert spec.full_left() and spec.full_right()
        assert check_bimodule_isomorphism(M, spec) <= 1e-9

    def test_nonfull_fixture(self, nonfull_bimodule):
        spec = bimodule_spectrum(nonfull_bimodule)
        def named(row, names):
            return names[int(np.argmax(row.real))]
        left_names = ["1", "2"]
        right_names = ["1'", "2'", "3'"]
        pairs = sorted(
            (named(spec.left_characters[p], left_names),
             named(spec.right_characters[q], right_names))
            for p, q in spec.pairs)
        assert pairs == [("1", "1'"), ("2", "2'")]
        right = sorted(named(spec.right_characters[q], right_names)
                       for q in spec.right_support)
        assert right == ["1'", "2'"]
        assert spec.full_left() and not spec.full_right()
        assert check_bimodule_isomorphism(nonfull_bimodule, spec) <= 1e-9

    def test_partial_bijection_single_valued_and_injective(self):
        for pairs in ([(0, 0)], [(0, 1), (1, 0)], [(0, 2), (1, 0)]):
            M = diagonal_support_bimodule(2, 3, pairs)
            spec = bimodule_spectrum(M)
            lefts = [p for p, _ in spec.pairs]
            rights = [q for _, q in spec.pairs]
            assert len(set(lefts)) == len(lefts)
            assert len(set(rights)) == len(rights)

    def test_fullness_detection(self):
        M = diagonal_support_bimodule(2, 2, [(0, 1), (1, 0)])
        spec = bimodule_spectrum(M)
        assert spec.full_left() and spec.full_right()
