import re
from collections import Counter
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from cstardual.errors import EndpointMismatch
from cstardual.generators import GenParams, gen_morphism_pair, gen_spaceoid
from cstardual.rng import Xoshiro256StarStar
from cstardual.spaceoid import (
    FiniteSpaceoid,
    SpaceoidMorphism,
    apply_gauge,
    compose_morphisms,
    gauge_fix,
    identity_morphism,
    invert_morphism,
    is_gauge_trivial,
    morphisms_equal,
    spaceoids_isomorphic,
    validate_morphism,
    validate_spaceoid,
)


CHAIN3_CHECKS = {
    "base_nonempty": 3, "target_injective": 6, "source_injective": 6,
    "labels_in_base": 6, "inverse_present": 6, "closure": 12, "nu_unimodular": 6,
    "c_unimodular": 12, "nu_symmetric": 6, "c_matches_nu_on_units": 6,
    "involution_antimultiplicative": 6, "cocycle": 24, "holonomy_trivial": 1,
    "sections_vanish_at_infinity": 1, "converging_at_infinity": 1}
AB, BA, BC, CB, AC, CA = (("A", "B", 0), ("B", "A", 0), ("B", "C", 0),
                          ("C", "B", 0), ("A", "C", 0), ("C", "A", 0))
NU_FAILURES = [
    ("nu_symmetric", str(AB)), ("nu_symmetric", str(BA)),
    ("c_matches_nu_on_units", f"{AB},{BA}"),
    ("involution_antimultiplicative", f"{AB},{BC}"),
    ("involution_antimultiplicative", f"{AC},{CB}"),
    ("involution_antimultiplicative", f"{CA},{AB}")]


class TestValidateSpaceoid:
    def test_single_point(self, s0_spaceoid):
        assert validate_spaceoid(s0_spaceoid).ok

    def test_e1(self, e1_spaceoid):
        assert validate_spaceoid(e1_spaceoid).ok

    def test_duplicate_target_rejected(self):
        bad = FiniteSpaceoid(
            ["A", "B"], {"A": ["1", "2"], "B": ["1'", "2'"]},
            {("A", "B"): [("1", "1'"), ("1", "2'")],
             ("B", "A"): [("1'", "1"), ("2'", "1")]})
        report = validate_spaceoid(bad)
        assert not report.ok
        assert any(f.check == "target_injective" for f in report.failures)

    def test_missing_inverse_rejected(self):
        bad = FiniteSpaceoid(
            ["A", "B"], {"A": ["1"], "B": ["1'"]},
            {("A", "B"): [("1", "1'")], ("B", "A"): []})
        report = validate_spaceoid(bad)
        assert any(f.check == "inverse_present" for f in report.failures)

    def test_missing_closure_rejected(self, chain3_spaceoid):
        pts = {key: list(v) for key, v in chain3_spaceoid.points.items()}
        pts[("A", "C")] = []
        pts[("C", "A")] = []
        bad = FiniteSpaceoid(chain3_spaceoid.objects, chain3_spaceoid.base_sets, pts)
        report = validate_spaceoid(bad)
        assert any(f.check == "closure" for f in report.failures)

    def test_nonunimodular_phase_rejected(self, e1_spaceoid):
        bad = FiniteSpaceoid(
            e1_spaceoid.objects, e1_spaceoid.base_sets, e1_spaceoid.points,
            {("A", "B", 0): 2.0})
        report = validate_spaceoid(bad)
        assert any(f.check == "nu_unimodular" for f in report.failures)

    def test_at_infinity_checks_present(self, e1_spaceoid):
        report = validate_spaceoid(e1_spaceoid)
        assert "sections_vanish_at_infinity" in report.checks_run
        assert "converging_at_infinity" in report.checks_run

    def test_relation_closure_of_composites(self):
        for seed in range(20):
            S = gen_spaceoid(GenParams(seed=seed, n_objects=4, max_base=3,
                                       edge_density=0.8))
            for A in S.objects:
                for B in S.objects:
                    for C in S.objects:
                        if len({A, B, C}) < 3:
                            continue
                        rel_ab = {(t, s) for t, s in S.points[(A, B)]}
                        rel_bc = {(t, s) for t, s in S.points[(B, C)]}
                        rel_ac = {(t, s) for t, s in S.points[(A, C)]}
                        composed = {(t1, s2) for t1, s1 in rel_ab
                                    for t2, s2 in rel_bc if s1 == t2}
                        assert composed <= rel_ac

    @pytest.mark.parametrize("nu, cphase, drop, failures, counts", [
        ({AB: np.exp(0.9j)}, None, False, NU_FAILURES, CHAIN3_CHECKS),
        (None, {(AB, BC): np.exp(1.1j)}, False, [
            ("involution_antimultiplicative", f"{AB},{BC}"),
            ("involution_antimultiplicative", f"{CB},{BA}"),
            ("cocycle", f"{AB},{BA},{AC}"), ("cocycle", f"{AB},{BC},{CA}"),
            ("cocycle", f"{AB},{BC},{CB}"), ("cocycle", f"{AC},{CB},{BC}"),
            ("cocycle", f"{BA},{AB},{BC}"), ("cocycle", f"{CA},{AB},{BC}")],
         CHAIN3_CHECKS),
        ({AB: 1.5}, None, False, [("nu_unimodular", str(AB))] + NU_FAILURES,
         CHAIN3_CHECKS),
        (None, None, True, [("closure", f"{AB}.{BC}"), ("closure", f"{CB}.{BA}")],
         {"base_nonempty": 3, "target_injective": 6, "source_injective": 6,
          "labels_in_base": 6, "inverse_present": 4, "closure": 6, "nu_unimodular": 4,
          "c_unimodular": 6, "sections_vanish_at_infinity": 1,
          "converging_at_infinity": 1}),
    ], ids=["nu-rotated", "c-rotated", "nu-scaled", "AC-removed"])
    def test_failure_witnesses_pinned(self, chain3_spaceoid, nu, cphase, drop,
                                      failures, counts):
        S = chain3_spaceoid
        points = dict(S.points)
        if drop:
            points[("A", "C")] = []
            points[("C", "A")] = []
        bad = FiniteSpaceoid(S.objects, S.base_sets, points, nu, cphase)
        report = validate_spaceoid(bad)
        assert [(f.check, f.witness) for f in report.failures] == failures
        assert Counter(report.checks_run) == counts


class TestConstructorRejects:
    """The constructor raises ValueError naming any key it cannot place."""

    BASES = {"A": ["1", "2"], "B": ["1'", "2'"]}
    LINKS = {("A", "B"): [("1", "1'")], ("B", "A"): [("1'", "1")]}

    @pytest.mark.parametrize("key", [("A", "A"), ("A", "Z")])
    def test_points_key(self, key):
        points = dict(self.LINKS)
        points[key] = [("1", "2")]
        with pytest.raises(ValueError, match=re.escape(f"points key {key!r} does not name")):
            FiniteSpaceoid(["A", "B"], self.BASES, points)

    @pytest.mark.parametrize("handle", [("A", "B", -1), ("A", "B", 1), ("A", "Z", 0),
                                        ("A", "A", 0)])
    def test_nu_handle(self, handle):
        with pytest.raises(ValueError, match="nu key .* does not name a point"):
            FiniteSpaceoid(["A", "B"], self.BASES, self.LINKS, nu={handle: 1j})

    @pytest.mark.parametrize("handle", [("B", "A", -1), ("B", "A", 1), ("Z", "A", 0)])
    def test_cphase_handle(self, handle):
        with pytest.raises(ValueError, match="cphase key .* does not name a point"):
            FiniteSpaceoid(["A", "B"], self.BASES, self.LINKS,
                           cphase={(("A", "B", 0), handle): 1j})


class TestComposeMorphisms:
    def test_identity_neutral(self, e1_spaceoid):
        ident = identity_morphism(e1_spaceoid)
        m = SpaceoidMorphism(
            e1_spaceoid, e1_spaceoid, {"A": "A", "B": "B"},
            {A: {x: x for x in e1_spaceoid.base_sets[A]} for A in "AB"},
            {("A", "B", 0): 1j, ("B", "A", 0): -1j})
        assert validate_morphism(m).ok
        eq, _ = morphisms_equal(compose_morphisms(ident, m), m)
        assert eq
        eq, _ = morphisms_equal(compose_morphisms(m, ident), m)
        assert eq

    def test_scalar_automorphisms_multiply(self, full2_spaceoid):
        S = full2_spaceoid

        def scalar_auto(alpha):
            return SpaceoidMorphism(
                S, S, {"A": "A", "B": "B"},
                {A: {x: x for x in S.base_sets[A]} for A in "AB"},
                {("A", "B", 0): alpha, ("B", "A", 0): np.conj(alpha)})

        a, b = np.exp(0.3j), np.exp(1.1j)
        m = compose_morphisms(scalar_auto(a), scalar_auto(b))
        assert m.scalar(("A", "B", 0)) == pytest.approx(a * b)

    def test_imaginary_scalars_square_to_minus_one(self, e1_spaceoid):
        def phase(alpha):
            return SpaceoidMorphism(
                e1_spaceoid, e1_spaceoid, {"A": "A", "B": "B"},
                {A: {x: x for x in e1_spaceoid.base_sets[A]} for A in "AB"},
                {("A", "B", 0): alpha, ("B", "A", 0): np.conj(alpha)})

        m = compose_morphisms(phase(1j), phase(1j))
        assert m.scalar(("A", "B", 0)) == pytest.approx(-1.0)

    def test_endpoint_mismatch(self, e1_spaceoid, s0_spaceoid):
        ident1 = identity_morphism(e1_spaceoid)
        ident0 = identity_morphism(s0_spaceoid)
        with pytest.raises(EndpointMismatch):
            compose_morphisms(ident1, ident0)

    def test_associative_and_unital_on_generated_triples(self):
        from cstardual.duality import evaluation_transform

        for seed in range(12):
            params = GenParams(seed=seed, n_objects=3, max_base=3,
                               edge_density=0.8, phase_mode="random")
            m1, m2 = gen_morphism_pair(params)
            # third leg with nontrivial maps: evaluation onto the spectrum
            m3 = evaluation_transform(m2.target)
            lhs = compose_morphisms(compose_morphisms(m1, m2), m3)
            rhs = compose_morphisms(m1, compose_morphisms(m2, m3))
            eq, dev = morphisms_equal(lhs, rhs, tol=1e-12)
            assert eq, (seed, dev)
            for m in (m1, m2):
                left_unit = compose_morphisms(identity_morphism(m.source), m)
                right_unit = compose_morphisms(m, identity_morphism(m.target))
                assert morphisms_equal(left_unit, m, tol=1e-12)[0]
                assert morphisms_equal(right_unit, m, tol=1e-12)[0]


class TestGaugeFix:
    def test_trivial_input_unchanged(self, e1_spaceoid):
        fixed, lam = gauge_fix(e1_spaceoid)
        assert is_gauge_trivial(fixed)
        assert all(abs(v - 1) < 1e-12 for v in lam.values())

    def test_single_edge_phase_removed(self, e1_spaceoid):
        theta = np.exp(0.77j)
        twisted = apply_gauge(e1_spaceoid, {("A", "B", 0): theta})
        assert validate_spaceoid(twisted).ok
        fixed, _ = gauge_fix(twisted)
        assert is_gauge_trivial(fixed)

    def test_three_chain_coboundary(self, chain3_spaceoid):
        twisted = apply_gauge(chain3_spaceoid, {("A", "B", 0): 1j})
        assert twisted.c(("A", "B", 0), ("B", "C", 0)) == pytest.approx(1j)
        assert validate_spaceoid(twisted).ok
        fixed, lam = gauge_fix(twisted)
        assert is_gauge_trivial(fixed)
        assert validate_spaceoid(fixed).ok

    def test_idempotent(self):
        S = gen_spaceoid(GenParams(seed=9, n_objects=4, max_base=3,
                                   edge_density=0.9, phase_mode="random"))
        fixed, _ = gauge_fix(S)
        fixed2, lam2 = gauge_fix(fixed)
        assert all(abs(v - 1) < 1e-12 for v in lam2.values())
        ok, _ = morphisms_equal(identity_morphism(fixed), identity_morphism(fixed2))

    def test_preserves_isomorphism_class(self):
        for seed in range(10):
            S = gen_spaceoid(GenParams(seed=seed, n_objects=3, max_base=3,
                                       edge_density=0.7, phase_mode="random"))
            fixed, _ = gauge_fix(S)
            assert spaceoids_isomorphic(S, fixed) is not None


class TestIsomorphism:
    def test_self_isomorphic(self, e1_spaceoid):
        m = spaceoids_isomorphic(e1_spaceoid, e1_spaceoid)
        assert m is not None and validate_morphism(m).ok

    def test_relabeled_base(self, e1_spaceoid):
        other = FiniteSpaceoid(
            ["A", "B"], {"A": ["u", "v"], "B": ["x", "y", "z"]},
            {("A", "B"): [("u", "z")], ("B", "A"): [("z", "u")]})
        m = spaceoids_isomorphic(e1_spaceoid, other)
        assert m is not None
        inv = invert_morphism(m)
        assert validate_morphism(inv).ok
        eq, _ = morphisms_equal(compose_morphisms(m, inv),
                                identity_morphism(e1_spaceoid))
        assert eq

    def test_emptied_hom_set_not_isomorphic(self, e1_spaceoid):
        other = FiniteSpaceoid(
            ["A", "B"], {"A": ["1", "2"], "B": ["1'", "2'", "3'"]}, {})
        assert spaceoids_isomorphic(e1_spaceoid, other) is None

    def test_object_permutation_found(self, e1_spaceoid):
        flipped = FiniteSpaceoid(
            ["A", "B"], {"B": ["1", "2"], "A": ["1'", "2'", "3'"]},
            {("B", "A"): [("1", "1'")], ("A", "B"): [("1'", "1")]})
        m = spaceoids_isomorphic(e1_spaceoid, flipped)
        assert m is not None
        assert m.obj_map == {"A": "B", "B": "A"}

    def test_gauge_twisted_still_isomorphic(self, chain3_spaceoid):
        twisted = apply_gauge(chain3_spaceoid, {("A", "B", 0): np.exp(2.1j),
                                                ("B", "C", 0): np.exp(-0.4j)})
        m = spaceoids_isomorphic(chain3_spaceoid, twisted)
        assert m is not None and validate_morphism(m).ok


class TestMorphismValidation:
    def test_component_breaking_map_rejected(self, e1_spaceoid, full2_spaceoid):
        # send the singleton base point 2 onto the linked point x: the image
        # component covers {A,B} but the source component is only {A}
        m = SpaceoidMorphism(
            e1_spaceoid, full2_spaceoid, {"A": "A", "B": "B"},
            {"A": {"1": "x", "2": "x"},
             "B": {"1'": "y", "2'": "y", "3'": "y"}},
            {("A", "B", 0): 1.0, ("B", "A", 0): 1.0})
        report = validate_morphism(m)
        assert not report.ok
        assert any(f.check == "component_preserving" for f in report.failures)

    def test_missing_image_point_rejected(self, full2_spaceoid, e1_spaceoid):
        m = SpaceoidMorphism(
            full2_spaceoid, e1_spaceoid, {"A": "A", "B": "B"},
            {"A": {"x": "2"}, "B": {"y": "2'"}}, {})
        report = validate_morphism(m)
        assert not report.ok
        assert any(f.check == "point_map_defined" for f in report.failures)

    def test_generated_morphisms_valid(self):
        for seed in range(15):
            params = GenParams(seed=seed, n_objects=1 + seed % 4,
                               max_base=1 + seed % 3, edge_density=0.8,
                               phase_mode="random")
            m1, m2 = gen_morphism_pair(params)
            assert validate_morphism(m1).ok
            assert validate_morphism(m2).ok

    @pytest.mark.parametrize("scalars, failures", [
        ({("A", "B", 0): 2.0, ("B", "A", 0): 0.5}, [
            ("scalar_unimodular", str(("A", "B", 0))),
            ("scalar_involution", str(("A", "B", 0))),
            ("scalar_unimodular", str(("B", "A", 0))),
            ("scalar_involution", str(("B", "A", 0)))]),
        ({("A", "B", 0): 1j, ("B", "A", 0): 1j}, [
            ("scalar_involution", str(("A", "B", 0))),
            ("scalar_involution", str(("B", "A", 0))),
            ("scalar_multiplicative", f"{('A', 'B', 0)},{('B', 'A', 0)}"),
            ("scalar_multiplicative", f"{('B', 'A', 0)},{('A', 'B', 0)}")]),
    ], ids=["nonunimodular", "nonmultiplicative"])
    def test_failure_witnesses_pinned(self, e1_spaceoid, scalars, failures):
        S = e1_spaceoid
        m = SpaceoidMorphism(S, S, {"A": "A", "B": "B"},
                             {A: {x: x for x in S.base_sets[A]} for A in "AB"}, scalars)
        report = validate_morphism(m)
        assert [(f.check, f.witness) for f in report.failures] == failures
        assert Counter(report.checks_run) == {
            "object_bijective": 1, "base_map_total": 2, "point_map_defined": 2,
            "scalar_unimodular": 2, "scalar_involution": 2, "scalar_multiplicative": 2,
            "component_preserving": 5, "converging_at_infinity": 1,
            "vanishing_at_infinity": 1}


def reference_isomorphic(S1, S2):
    """Brute-force verdict: some object bijection keeps base-set sizes and
    maps the multiset of gauge-fixed linked components onto the other's."""
    if len(S1.objects) != len(S2.objects):
        return False
    comps1, comps2 = ([c.objects for c in gauge_fix(S)[0].components() if len(c.objects) > 1]
                      for S in (S1, S2))
    for perm in permutations(S2.objects):
        f = dict(zip(S1.objects, perm))
        if all(len(S1.base_sets[A]) == len(S2.base_sets[f[A]]) for A in S1.objects) and \
                Counter(tuple(sorted(f[o] for o in objs)) for objs in comps1) == Counter(comps2):
            return True
    return False


def linked_spaceoid(objects, base_sets, links, rng):
    """Spaceoid whose components are ``links`` (each: object -> base point),
    with random unit frames."""
    points = {}
    for link in links:
        for A in link:
            for B in link:
                if A != B:
                    points.setdefault((A, B), []).append((link[A], link[B]))
    S = FiniteSpaceoid(objects, base_sets, points)
    return apply_gauge(S, {h: rng.phase() for h in S.all_points()})


def relinked(S, rng, kind):
    """S with objects and base points relabelled, after dropping one link
    (``drop``), moving one link end to another object (``move``), or neither."""
    objs = list(S.objects)
    links = [dict(c.diag) for c in S.components() if len(c.objects) > 1]
    if kind == "drop" and links:
        links.pop(rng.randrange(len(links)))
    if kind == "move" and links:
        link = links[rng.randrange(len(links))]
        free = {B: [x for x in S.base_sets[B] if all(lk.get(B) != x for lk in links)]
                for B in objs if B not in link}
        free = {B: xs for B, xs in free.items() if xs}
        if free:
            B = sorted(free)[rng.randrange(len(free))]
            del link[sorted(link)[rng.randrange(len(link))]]
            link[B] = free[B][rng.randrange(len(free[B]))]
    names = list(objs)
    rng.shuffle(names)
    ren = dict(zip(objs, names))
    lab = {A: {x: f"{x}-{k}" for k, x in enumerate(rng.sample(xs, len(xs)))}
           for A, xs in S.base_sets.items()}
    return linked_spaceoid(rng.sample(names, len(names)),
                           {ren[A]: [lab[A][x] for x in S.base_sets[A]] for A in objs},
                           [{ren[A]: lab[A][x] for A, x in lk.items()} for lk in links], rng)


def graph_spaceoid(n, edges, names):
    """One object per vertex, one base point per edge end and one two-object
    link per edge, so two such spaceoids are isomorphic exactly when the
    graphs are."""
    base, links = {names[v]: [] for v in range(n)}, []
    for k, (u, v) in enumerate(edges):
        base[names[u]].append(f"e{k}")
        base[names[v]].append(f"e{k}")
        links.append({names[u]: f"e{k}", names[v]: f"e{k}"})
    return linked_spaceoid(names[:n], base, links, Xoshiro256StarStar(len(edges)))


def torus_graph(steps):
    """Cayley graph of Z4 x Z4 with the given connection set, vertex 4a + b."""
    return sorted({tuple(sorted((4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)))
                   for a in range(4) for b in range(4) for da, db in steps})


ROOK = torus_graph([(d, 0) for d in (1, 2, 3)] + [(0, d) for d in (1, 2, 3)])
SHRIKHANDE = torus_graph([(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)])
NAMES = [f"O{k:02d}" for k in range(16)]


class TestIsomorphismSearch:
    @pytest.mark.parametrize("seed", range(8))
    def test_verdict_matches_brute_force(self, seed):
        rng = Xoshiro256StarStar(seed + 500)
        for k in range(25):
            params = GenParams(seed=100 * seed + k, n_objects=rng.randint(2, 6),
                               max_base=rng.randint(2, 3), edge_density=(0.5, 0.8, 1.0)[k % 3],
                               phase_mode="random")
            S = gen_spaceoid(params)
            kind = ("same", "drop", "move", "other")[k % 4]
            T = gen_spaceoid(replace(params, seed=params.seed + 7919)) if kind == "other" \
                else relinked(S, rng, kind)
            m = spaceoids_isomorphic(S, T)
            assert (m is not None) == reference_isomorphic(S, T), (seed, k, kind)
            if m is not None:
                assert m.source is S and m.target is T
                assert validate_morphism(m).ok
                assert validate_morphism(invert_morphism(m)).ok

    def test_relabelled_rook_graph_found(self):
        rng = Xoshiro256StarStar(3)
        S = graph_spaceoid(16, ROOK, NAMES)
        T = relinked(S, rng, "same")
        m = spaceoids_isomorphic(S, T)
        assert m is not None and validate_morphism(m).ok

    @pytest.mark.parametrize("edges1, edges2, n", [
        (ROOK, SHRIKHANDE, 16), (SHRIKHANDE, ROOK, 16),
        ([(k, (k + 1) % 12) for k in range(12)],
         [(k, (k + 1) % 6) for k in range(6)] + [(6 + k, 6 + (k + 1) % 6) for k in range(6)], 12),
    ], ids=["rook-shrikhande", "shrikhande-rook", "cycle12-two-cycle6"])
    def test_equal_profiles_rejected(self, edges1, edges2, n):
        # every object has the same base-set size and component sizes on both sides
        assert spaceoids_isomorphic(graph_spaceoid(n, edges1, NAMES),
                                    graph_spaceoid(n, edges2, NAMES[::-1])) is None

    def test_sixteen_unlinked_objects_found(self):
        S = FiniteSpaceoid(NAMES, {A: ["x", "y"] for A in NAMES}, {})
        T = FiniteSpaceoid(NAMES[::-1], {A: ["u", "v"] for A in NAMES}, {})
        m = spaceoids_isomorphic(S, T)
        assert m is not None and validate_morphism(m).ok
        assert m.obj_map == {A: A for A in NAMES}
