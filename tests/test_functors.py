from itertools import product

import numpy as np
import pytest

from cstardual.cstarcat import (
    FiniteCStarCategory,
    check_non_degenerate,
    check_star_functor,
    corner_projection_matrix,
    cstar_norm,
    identity_functor,
    validate_category,
)
from cstardual.errors import (CornerDimensionExceedsOne, CstarDualError, DegenerateFunctor,
                             HolonomyViolation, InvalidMorphism, InvalidSpaceoid)
from cstardual.functors import (
    GelfandData,
    gamma_on_morphism,
    sections_category,
    sigma_on_morphism,
    spectral_spaceoid,
)
from cstardual.generators import GenParams, gen_category, gen_functor_pair, gen_morphism_pair
from cstardual.numlin import max_abs
from cstardual.rng import Xoshiro256StarStar
from cstardual.spaceoid import (
    DIAGONAL,
    NO_COMPOSITE,
    FiniteSpaceoid,
    SpaceoidMorphism,
    compose_morphisms,
    identity_morphism,
    morphisms_equal,
    spaceoids_isomorphic,
    validate_morphism,
    validate_spaceoid,
)


class TestSectionsCategory:
    def test_single_point_gives_scalars(self, s0_spaceoid):
        cat = sections_category(s0_spaceoid)
        assert cat.objects == ("A",)
        assert cat.dim("A", "A") == 1
        assert validate_category(cat).ok

    def test_e1_dimensions_and_products(self, e1_spaceoid):
        cat = sections_category(e1_spaceoid)
        assert cat.dim("A", "A") == 2 and cat.dim("B", "B") == 3
        assert cat.dim("A", "B") == 1 and cat.dim("B", "A") == 1
        # zero-extension composition rules, diagonal basis sorted as 1 < 2
        delta_p = np.ones(1)
        e1, e2 = np.eye(2)
        assert np.allclose(cat.compose("A", "A", "B", e1, delta_p), [1.0])
        assert np.allclose(cat.compose("A", "A", "B", e2, delta_p), [0.0])
        f1 = np.eye(3)[0]
        assert np.allclose(cat.compose("A", "B", "B", delta_p, f1), [1.0])
        assert validate_category(cat).ok

    def test_full_two_object_gives_footnote(self, full2_spaceoid, footnote_category):
        cat = sections_category(full2_spaceoid)
        for key in cat.comp:
            assert np.array_equal(cat.comp[key], footnote_category.comp[key])
        for key in cat.invol:
            assert np.array_equal(cat.invol[key], footnote_category.invol[key])

    def test_phases_become_structure_constants(self, chain3_spaceoid):
        from cstardual.spaceoid import apply_gauge
        twisted = apply_gauge(chain3_spaceoid, {("A", "B", 0): 1j})
        cat = sections_category(twisted)
        prod = cat.compose("A", "B", "C", np.ones(1), np.ones(1))
        assert prod[0] == pytest.approx(twisted.c(("A", "B", 0), ("B", "C", 0)))
        assert validate_category(cat).ok

    def test_zero_extension_branch_on_invalid_fixture(self):
        # s(p) = t(q) but the composite point was removed: the composition
        # tensor must implement the zero branch (a valid spaceoid cannot
        # reach it because of closure)
        broken = FiniteSpaceoid(
            ["A", "B", "C"], {"A": ["a"], "B": ["b"], "C": ["c"]},
            {("A", "B"): [("a", "b")], ("B", "A"): [("b", "a")],
             ("B", "C"): [("b", "c")], ("C", "B"): [("c", "b")],
             ("A", "C"): [], ("C", "A"): []})
        assert not validate_spaceoid(broken).ok
        cat = sections_category(broken, check=False)
        assert np.allclose(cat.compose("A", "B", "C", np.ones(1), np.ones(1)),
                           np.zeros(0))
        assert cat.dim("A", "C") == 0


class TestGammaOnMorphism:
    def test_identity_morphism_gives_identity_functor(self, e1_spaceoid):
        F = gamma_on_morphism(identity_morphism(e1_spaceoid))
        for key, H in F.hom_maps.items():
            assert np.array_equal(H, np.eye(H.shape[0]))

    def test_negating_scalar(self, e1_spaceoid):
        m = SpaceoidMorphism(
            e1_spaceoid, e1_spaceoid, {"A": "A", "B": "B"},
            {A: {x: x for x in e1_spaceoid.base_sets[A]} for A in "AB"},
            {("A", "B", 0): -1.0, ("B", "A", 0): -1.0})
        assert validate_morphism(m).ok
        F = gamma_on_morphism(m)
        assert np.allclose(F.hom_maps[("A", "B")], [[-1.0]])
        assert check_star_functor(F).ok

    def test_contravariance_on_generated_pairs(self):
        for seed in range(10):
            params = GenParams(seed=seed, n_objects=2 + seed % 2, max_base=2,
                               edge_density=0.9, phase_mode="random")
            m1, m2 = gen_morphism_pair(params)
            cat3 = sections_category(m2.target, check=False)
            cat2 = sections_category(m2.source, check=False)
            cat1 = sections_category(m1.source, check=False)
            g2 = gamma_on_morphism(m2, cats=(cat3, cat2), check=False)
            g1 = gamma_on_morphism(m1, cats=(cat2, cat1), check=False)
            chained = g2.then(g1)
            direct = gamma_on_morphism(compose_morphisms(m1, m2),
                                       cats=(cat3, cat1), check=False)
            for key in chained.hom_maps:
                assert max_abs(chained.hom_maps[key] - direct.hom_maps[key]) < 1e-9


class TestSpectralSpaceoid:
    def test_scalars_give_single_point(self, scalars_category):
        S, G = spectral_spaceoid(scalars_category)
        assert len(S.objects) == 1
        assert len(S.base_sets["A"]) == 1
        assert validate_spaceoid(S).ok

    def test_footnote_spectrum_sizes(self, footnote_category):
        S, G = spectral_spaceoid(footnote_category)
        assert len(S.base_sets["A"]) == 1 and len(S.base_sets["B"]) == 1
        assert len(S.points[("A", "B")]) == 1
        assert validate_spaceoid(S).ok

    def test_e1_round_trip(self, e1_spaceoid):
        cat = sections_category(e1_spaceoid)
        S, G = spectral_spaceoid(cat)
        assert validate_spaceoid(S).ok
        assert spaceoids_isomorphic(S, e1_spaceoid) is not None

    def test_dimension_count(self):
        for seed in range(10):
            params = GenParams(seed=seed, n_objects=3, max_base=3,
                               edge_density=0.8, phase_mode="random",
                               scramble="unitary")
            cat, _ = gen_category(params)
            S, G = spectral_spaceoid(cat)
            for A, B in S.points:
                assert len(S.points[(A, B)]) == cat.dim(A, B)

    def test_sections_of_spectrum_have_same_dims(self):
        params = GenParams(seed=4, n_objects=3, max_base=3, edge_density=0.7,
                           phase_mode="random", scramble="invertible")
        cat, _ = gen_category(params)
        S, _ = spectral_spaceoid(cat)
        sec = sections_category(S, check=False)
        assert {k: sec.dim(*k) for k in sec.dims} == \
            {k: cat.dim(*k) for k in cat.dims}

    def test_transform_supported_on_nonzero_corners(self):
        params = GenParams(seed=8, n_objects=2, max_base=3, edge_density=1.0,
                           phase_mode="random", scramble="unitary")
        cat, _ = gen_category(params)
        S, G = spectral_spaceoid(cat)
        for (A, B), mat in G.hat.items():
            for n, h in enumerate(S.hom_points(A, B)):
                p, q = int(S.target(h)), int(S.source(h))
                K = corner_projection_matrix(cat, A, B, p, q)
                for i in range(cat.dim(A, B)):
                    coeff = mat[i, n]
                    proj = K @ np.eye(cat.dim(A, B))[i]
                    assert (abs(coeff) > 1e-9) == (max_abs(proj) > 1e-7)

    def test_holonomy_violation_on_broken_input(self, footnote_category):
        # destroy associativity-compatible matching: make the BA composition
        # land on nothing by zeroing one product
        import copy
        cat = footnote_category
        comp = {k: v.copy() for k, v in cat.comp.items()}
        comp[("A", "B", "A")] = np.zeros((1, 1, 1), dtype=complex)
        from cstardual.cstarcat import FiniteCStarCategory
        broken = FiniteCStarCategory(cat.objects, dict(cat.dims), comp,
                                     cat.invol, cat.units)
        assert not validate_category(broken).ok
        with pytest.raises(HolonomyViolation):
            spectral_spaceoid(broken)


class TestSigmaOnMorphism:
    def test_identity_functor_gives_identity_morphism(self, footnote_category):
        m = sigma_on_morphism(identity_functor(footnote_category))
        ident = identity_morphism(m.source)
        eq, dev = morphisms_equal(m, ident, tol=1e-9)
        # same maps; scalars must be 1
        assert m.obj_map == ident.obj_map
        assert m.base_maps == ident.base_maps
        assert all(abs(m.scalar(h) - 1) < 1e-9 for h in m.source.all_points())

    def test_footnote_embedding_rejected(self, footnote_embedding):
        with pytest.raises(DegenerateFunctor):
            sigma_on_morphism(footnote_embedding)

    def test_unmatched_pulled_back_character_rejected(self):
        from cstardual.cstarcat import StarFunctor
        from conftest import functions_algebra
        # both characters of the target pull back to (0.5, 0.5), no character
        F = StarFunctor(functions_algebra(2), functions_algebra(2), {"A": "A"},
                        {("A", "A"): np.full((2, 2), 0.5)})
        with pytest.raises(InvalidMorphism, match=r"at \(A, char 0\) \(best deviation 0.5\)"):
            sigma_on_morphism(F)

    def test_unit_rescaling_of_e1_sections(self, e1_spaceoid):
        cat = sections_category(e1_spaceoid)
        u = np.exp(0.9j)
        from cstardual.cstarcat import StarFunctor
        homs = {key: np.eye(cat.dim(*key), dtype=complex) for key in cat.dims}
        homs[("A", "B")] = u * np.eye(1)
        homs[("B", "A")] = np.conj(u) * np.eye(1)
        F = StarFunctor(cat, cat, {"A": "A", "B": "B"}, homs)
        assert check_star_functor(F).ok
        m = sigma_on_morphism(F)
        assert m.base_maps == {A: {x: x for x in m.source.base_sets[A]}
                               for A in m.source.objects}
        h = m.source.hom_points("A", "B")[0]
        assert m.scalar(h) == pytest.approx(u)

    def test_contravariance_on_generated_pairs(self):
        for seed in range(8):
            params = GenParams(seed=seed, n_objects=2, max_base=2,
                               edge_density=0.9, phase_mode="random",
                               scramble=("unitary", "invertible")[seed % 2])
            phi, psi = gen_functor_pair(params)
            s_phi = sigma_on_morphism(phi)
            s_psi = sigma_on_morphism(psi)
            s_comp = sigma_on_morphism(phi.then(psi))
            chained = compose_morphisms(s_psi, s_phi)
            eq, dev = morphisms_equal(s_comp, chained, tol=1e-6)
            assert eq, (seed, dev)

    def test_sigma_of_identity_on_generated(self):
        for seed in range(6):
            params = GenParams(seed=seed, n_objects=1 + seed % 3, max_base=3,
                               edge_density=0.6, phase_mode="random",
                               scramble="unitary")
            cat, _ = gen_category(params)
            m = sigma_on_morphism(identity_functor(cat))
            assert all(abs(m.scalar(h) - 1) < 1e-6 for h in m.source.all_points())


class TestComponentFunctionals:
    def test_spectrum_components_materialize_to_partial_functionals(self):
        """Independent cross-check of the corner construction against the
        functional picture: every maximal component of the spectrum, with
        gauge-fixed frame phases, evaluates sections as a scalar *-functor
        that is multiplicative and involutive on all composable basis pairs
        and vanishes off the component."""
        from itertools import product as iproduct
        from cstardual.spaceoid import gauge_fix

        for seed in (1, 5, 9):
            params = GenParams(seed=seed, n_objects=3, max_base=3,
                               edge_density=0.8, phase_mode="random",
                               scramble="unitary")
            cat, _ = gen_category(params)
            S, G = spectral_spaceoid(cat)
            _, lam = gauge_fix(S)
            for comp in S.components():
                funcs = {}
                for A in cat.objects:
                    if A in comp.diag:
                        funcs[(A, A)] = G.diag[A][int(comp.diag[A])]
                    else:
                        funcs[(A, A)] = np.zeros(cat.dim(A, A), dtype=complex)
                    for B in cat.objects:
                        if A == B:
                            continue
                        h = comp.points.get((A, B))
                        if h is None:
                            funcs[(A, B)] = np.zeros(cat.dim(A, B), dtype=complex)
                        else:
                            phase = np.conj(complex(lam.get(h, 1.0)))
                            funcs[(A, B)] = phase * G.hat[(A, B)][:, h[2]]
                for A, B, C in iproduct(cat.objects, repeat=3):
                    T = cat.comp[(A, B, C)]
                    if 0 in T.shape:
                        continue
                    lhs = np.einsum("ijk,k->ij", T, funcs[(A, C)])
                    rhs = np.outer(funcs[(A, B)], funcs[(B, C)])
                    assert max_abs(lhs - rhs) < 1e-7, (seed, comp.objects, A, B, C)
                for A, B in iproduct(cat.objects, repeat=2):
                    lhs = funcs[(B, A)] @ cat.invol[(A, B)]
                    assert max_abs(np.conj(lhs) - funcs[(A, B)]) < 1e-7


# ---------------------------------------------------------------------------
# the spectrum against a reference read one corner, point and row at a time
# ---------------------------------------------------------------------------

def _reference_project(frame, w, context):
    coeff = np.vdot(frame, w) / np.vdot(frame, frame)
    residual = max_abs(w - coeff * frame)
    if residual > 1e-6 * (1.0 + max_abs(w)):
        raise HolonomyViolation(f"projection residual {residual:g} at {context}")
    return complex(coeff)


def reference_spectrum(C):
    """Spectral spaceoid and frames from per-corner, per-point and per-row
    loops; the spaceoid's phases are the reference for the stacked build."""
    label = GelfandData({A: C.characters(A) for A in C.objects}, {}, {}).point_label
    chars = {A: range(len(C.characters(A))) for A in C.objects}
    points, frames = {}, {}
    for A, B in C.off_diagonal_pairs():
        E = max_abs(C.idempotents(A)) * max_abs(C.idempotents(B))
        zero_tol, match = 1e-6 * (1.0 + E), {}
        for p, q in product(chars[A], chars[B]) if C.dim(A, B) else []:
            K = corner_projection_matrix(C, A, B, p, q)
            norms = np.linalg.norm(K, axis=0)
            if norms.max() <= zero_tol:
                continue
            u = K[:, np.argmax(norms)] / norms.max()
            if max_abs(K - np.outer(u, u.conj() @ K)) > zero_tol * max(1.0, max_abs(K)):
                raise CornerDimensionExceedsOne(
                    f"corner ({A},{B}) at characters ({p},{q}) has dimension > 1")
            if p in match:
                raise HolonomyViolation(f"character {p} of {A} matches two characters of {B}")
            match[p] = (q, u)
        partners = [q for q, _ in match.values()]
        for q in [q for k, q in enumerate(partners) if q in partners[:k]][:1]:
            raise HolonomyViolation(f"character {q} of {B} matches two characters of {A}")
        for p, (q, u) in sorted(match.items()):
            norm = cstar_norm(C, A, B, u)
            if norm <= 1e-6:
                raise HolonomyViolation(f"corner generator in Hom({A},{B}) has vanishing norm; "
                                        f"input is not a valid commutative C*-category")
            u = u / norm
            lead = u[np.argmax(np.abs(u) > 1e-8 * np.abs(u).max())]
            frames[(A, B, label(A, p), label(B, q))] = u * np.conj(lead) / abs(lead)
        points[(A, B)] = [(label(A, p), label(B, q)) for p, (q, _) in sorted(match.items())]
        if len(match) != C.dim(A, B):
            raise HolonomyViolation(f"corner dimensions over Hom({A},{B}) sum to {len(match)}, "
                                    f"dimension is {C.dim(A, B)}")
    S = FiniteSpaceoid(C.objects, {A: [label(A, k) for k in range(len(chars[A]))]
                                   for A in C.objects}, points)
    frame = [frames[h[:2] + (S.target(h), S.source(h))] for h in S.all_points()]
    try:
        nu = [_reference_project(frame[S._point(S.star(h))], C.star(h[0], h[1], frame[p]),
                                 f"nu{h}") for p, h in enumerate(S.all_points())]
        c = []
        for p, q, r in zip(S._p.tolist(), S._q.tolist(), S._r.tolist()):
            h1, h2 = S._handles[p], S._handles[q]
            if r == NO_COMPOSITE:
                S._composites()
            onto = C.idempotents(h1[0])[:, int(S.target(h1))] if r == DIAGONAL else frame[r]
            w = C.compose(h1[0], h1[1], h2[1], frame[p], frame[q])
            c.append(_reference_project(onto, w, f"c{h1},{h2}"))
    except InvalidSpaceoid as exc:
        raise HolonomyViolation(str(exc))
    return S._with_phases(nu, c), frame


def _outcome(build, C):
    try:
        return build(C)
    except CstarDualError as exc:
        return type(exc), str(exc)


def assert_matches_reference(C):
    got, want = _outcome(spectral_spaceoid, C), _outcome(reference_spectrum, C)
    if isinstance(want[0], type) or isinstance(got[0], type):
        assert got == want
        return
    (S, G), (R, frame) = got, want
    assert S.base_sets == R.base_sets and S.points == R.points
    for p, h in enumerate(S.all_points()):
        assert max_abs(G.frames[h[:2]][h[2]] - frame[p]) <= 1e-12
    assert max_abs(S._nu - R._nu) <= 1e-12 and max_abs(S._c - R._c) <= 1e-12


def perturbed_category(seed, scramble, involution=False):
    """One composition tensor of a valid category zeroed, or one of its
    entries shifted by 0.3; with ``involution``, one entry of an off-diagonal
    involution matrix shifted by 0.3 as well."""
    cat, _ = gen_category(GenParams(seed=seed, n_objects=3, max_base=3, edge_density=1.0,
                                    phase_mode="random", scramble=scramble))
    rng = Xoshiro256StarStar(seed + 0x5EC)
    comp = {k: v.copy() for k, v in cat.comp.items()}
    invol = {k: v.copy() for k, v in cat.invol.items()}
    keys = [k for k, v in sorted(comp.items()) if v.size]
    T = comp[keys[rng.randrange(len(keys))]].reshape(-1)
    if rng.randrange(2):
        T[:] = 0.0
    else:
        T[rng.randrange(T.size)] += 0.3
    if involution:
        keys = [k for k, v in sorted(invol.items()) if v.size and k[0] != k[1]]
        J = invol[keys[rng.randrange(len(keys))]].reshape(-1)
        J[rng.randrange(J.size)] += 0.3
    return FiniteCStarCategory(cat.objects, dict(cat.dims), comp, invol, cat.units)


class TestSpectrumAgainstReference:
    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("scramble", ["unitary", "invertible"])
    def test_generated_categories(self, seed, scramble):
        cat, _ = gen_category(GenParams(seed=seed, n_objects=2 + seed % 4, max_base=3,
                                        edge_density=(0.6, 0.8, 1.0)[seed % 3],
                                        phase_mode="random", scramble=scramble))
        assert_matches_reference(cat)

    @pytest.mark.parametrize("seed", range(50))
    @pytest.mark.parametrize("scramble", ["unitary", "invertible"])
    def test_perturbed_categories(self, seed, scramble):
        assert_matches_reference(perturbed_category(seed, scramble))

    @pytest.mark.parametrize("seed", range(50))
    @pytest.mark.parametrize("scramble", ["unitary", "invertible"])
    def test_perturbed_involutions(self, seed, scramble):
        # nu and c can both fail here: a failing point is reported before any row
        assert_matches_reference(perturbed_category(seed, scramble, involution=True))


# ---------------------------------------------------------------------------
# sigma's scalars against a corner re-projection read one point at a time
# ---------------------------------------------------------------------------

def reference_sigma(F):
    """Point map and frame scalars of ``sigma_on_morphism(F)`` from per-object
    and per-point loops: each scalar is the corner projection e_p . F(frame)
    . e_q of the image frame, by ``corner_projection_matrix``, against the
    point's own frame, with a residual that must vanish."""
    ok, _ = check_non_degenerate(F)
    if not ok:
        raise DegenerateFunctor("gate")
    (S1, G1), (S2, G2) = spectral_spaceoid(F.source), spectral_spaceoid(F.target)
    inv = {v: k for k, v in F.obj_map.items()}
    base = {}
    for A2 in F.target.objects:
        pull = G2.diag[A2] @ F.hom_maps[(inv[A2], inv[A2])]
        base[A2] = []
        for k, row in enumerate(pull):
            dev = np.max(np.abs(G1.diag[inv[A2]] - row), axis=1)
            if dev.min() > 1e-6 * (1.0 + max_abs(row)):
                raise InvalidMorphism(f"no character matches ({A2}, char {k})")
            base[A2].append(int(np.argmin(dev)))
    images, scalars = {}, {}
    for h in S2.all_points():
        A2, B2, n = h
        A, B = inv[A2], inv[B2]
        p, q = int(S2.target(h)), int(S2.source(h))
        g = S1.lookup(A, B, G1.point_label(A, base[A2][p]), G1.point_label(B, base[B2][q]))
        if g is None:
            raise InvalidMorphism(f"point {h} has no image")
        KY = corner_projection_matrix(F.target, A2, B2, p, q) @ (
            F.hom_maps[(A, B)] @ G1.frames[(A, B)][g[2]])
        images[h] = g
        scalars[h] = _reference_project(G2.frames[(A2, B2)][n], KY, f"scalar{h}")
    return images, scalars


class TestSigmaAgainstReference:
    @staticmethod
    def assert_matches_reference(F):
        got, want = _outcome(sigma_on_morphism, F), _outcome(reference_sigma, F)
        if isinstance(got, tuple) or isinstance(want[0], type):
            assert got[0] == want[0], (got, want)  # the same verdict: the error class
            return
        images, scalars = want
        assert {h: got.point_map(h) for h in images} == images
        for h, v in scalars.items():
            assert abs(got.scalar(h) - v) <= 1e-12, (h, got.scalar(h), v)

    @pytest.mark.parametrize("scramble", ["none", "unitary", "invertible"])
    def test_generated_functor_pairs(self, scramble):
        for seed in range(50):
            phi, psi = gen_functor_pair(GenParams(
                seed=seed, n_objects=1 + seed % 4, max_base=1 + seed % 3,
                edge_density=(0.6, 0.8, 1.0)[seed % 3], phase_mode="random", scramble=scramble))
            for F in (phi, psi, phi.then(psi)):
                self.assert_matches_reference(F)

    def test_rejected_functors(self, footnote_embedding):
        from cstardual.cstarcat import StarFunctor
        from conftest import functions_algebra
        unmatched = StarFunctor(functions_algebra(2), functions_algebra(2), {"A": "A"},
                                {("A", "A"): np.full((2, 2), 0.5)})
        for F, error in ((footnote_embedding, DegenerateFunctor), (unmatched, InvalidMorphism)):
            with pytest.raises(error):
                reference_sigma(F)
            self.assert_matches_reference(F)
