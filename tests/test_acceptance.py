"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each (run with ``pytest -s`` to see them on success).

The corpora are seeded and shared across criteria; per-criterion runtime
budgets are asserted, not just measured.
"""

import time

import numpy as np
import pytest

from cstardual.cstarcat import (
    check_non_degenerate,
    check_star_functor,
    corner,
    cstar_norm,
    identity_functor,
)
from cstardual.duality import (
    bimodule_spectrum,
    check_bimodule_isomorphism,
    check_gelfand_isomorphism,
    check_naturality_E,
    check_naturality_G,
    evaluation_transform,
)
from cstardual.errors import DegenerateFunctor
from cstardual.functors import sections_category, sigma_on_morphism, spectral_spaceoid
from cstardual.generators import (
    GenParams,
    gen_category,
    gen_functor_pair,
    gen_morphism_pair,
    gen_spaceoid,
)
from cstardual.spaceoid import (
    compose_morphisms,
    identity_morphism,
    invert_morphism,
    morphisms_equal,
    spaceoids_isomorphic,
    validate_morphism,
)

N_INSTANCES = 200
N_PAIRS = 50
TOL = 1e-6


def corpus_params(seed, scramble):
    return GenParams(
        seed=seed,
        n_objects=1 + seed % 5,
        max_base=1 + seed % 6,
        edge_density=(seed % 11) / 10.0,
        phase_mode="random",
        scramble=scramble)


def _line(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def unitary_corpus():
    return [(seed, *gen_category(corpus_params(seed, "unitary")))
            for seed in range(N_INSTANCES)]


@pytest.fixture(scope="module")
def invertible_corpus():
    return [(seed, *gen_category(corpus_params(seed, "invertible")))
            for seed in range(N_INSTANCES)]


def test_criterion_1_gelfand_round_trip(unitary_corpus):
    """Algebra-side round trip: the transform into the sections of the
    spectrum is bijective per Hom-set and isometric, 200 seeded instances."""
    from cstardual.numlin import numeric_rank

    start = time.monotonic()
    worst = 0.0
    for seed, cat, _ in unitary_corpus:
        F, report = check_gelfand_isomorphism(cat)
        assert report.ok, f"seed {seed}: {report}"
        for (A, B), H in F.hom_maps.items():
            d = cat.dim(A, B)
            assert H.shape == (d, d) and (d == 0 or numeric_rank(H) == d), \
                f"seed {seed} ({A},{B}) not bijective"
            for i in range(d):
                x = np.eye(d)[i]
                dev = abs(cstar_norm(cat, A, B, x)
                          - cstar_norm(F.target, A, B, H @ x))
                assert dev <= TOL * (1.0 + cstar_norm(cat, A, B, x)), \
                    f"seed {seed} ({A},{B}) basis {i}: isometry deviates by {dev}"
                worst = max(worst, dev)
    elapsed = time.monotonic() - start
    _line(1, elapsed <= 60.0,
          f"transform bijective+isometric on {N_INSTANCES} instances, "
          f"max deviation {worst:.2e} <= {TOL}, {elapsed:.1f}s (budget 60s)")


def test_criterion_2_evaluation_round_trip():
    """Spaceoid-side round trip: evaluation is invertible and the spaceoid is
    isomorphic to the spectrum of its sections, 200 seeded instances."""
    start = time.monotonic()
    for seed in range(N_INSTANCES):
        S = gen_spaceoid(corpus_params(seed, "none"))
        ev = evaluation_transform(S)
        assert validate_morphism(ev).ok, f"seed {seed}"
        inv = invert_morphism(ev)
        assert validate_morphism(inv).ok, f"seed {seed}"
        ident_ok, dev = morphisms_equal(compose_morphisms(ev, inv),
                                        identity_morphism(S), tol=TOL)
        assert ident_ok, f"seed {seed}: ev . ev^-1 deviates by {dev}"
        sec = sections_category(S, check=False)
        S2, _ = spectral_spaceoid(sec)
        assert spaceoids_isomorphic(S, S2) is not None, f"seed {seed}"
    elapsed = time.monotonic() - start
    _line(2, elapsed <= 30.0,
          f"evaluation invertible and round trip isomorphic on "
          f"{N_INSTANCES} instances, {elapsed:.1f}s (budget 30s)")


def test_criterion_3_oracle_recovery(invertible_corpus):
    """The spectrum of an invertibly scrambled section category recovers the
    generating spaceoid up to isomorphism."""
    for seed, cat, oracle in invertible_corpus:
        S, _ = spectral_spaceoid(cat)
        assert spaceoids_isomorphic(S, oracle) is not None, f"seed {seed}"
    _line(3, True,
          f"oracle spaceoid recovered from {N_INSTANCES} invertibly "
          f"scrambled instances")


def test_criterion_4_rank_bound(unitary_corpus, invertible_corpus):
    """Every corner has numeric dimension 0 or 1 and the dimensions add up
    to the Hom-set dimension exactly."""
    checked = 0
    for corpus in (unitary_corpus, invertible_corpus):
        for seed, cat, _ in corpus:
            for A in cat.objects:
                for B in cat.objects:
                    if A == B:
                        continue
                    total = 0
                    for p in range(cat.dim(A, A)):
                        for q in range(cat.dim(B, B)):
                            dim = corner(cat, A, B, p, q).shape[1]
                            assert dim in (0, 1), f"seed {seed} ({A},{B})"
                            total += dim
                    assert total == cat.dim(A, B), f"seed {seed} ({A},{B})"
                    checked += 1
    _line(4, True,
          f"corner dimensions in {{0,1}} with exact Hom-set sums "
          f"({checked} Hom-sets over {2 * N_INSTANCES} instances)")


def test_criterion_5_non_degeneracy_gate(footnote_embedding, unitary_corpus):
    """The footnote embedding is a *-functor but is rejected by the spectrum
    construction; identity functors always pass the gate."""
    assert check_star_functor(footnote_embedding).ok
    ok, witness = check_non_degenerate(footnote_embedding)
    assert not ok and witness is not None
    with pytest.raises(DegenerateFunctor):
        sigma_on_morphism(footnote_embedding)
    for seed, cat, _ in unitary_corpus:
        gate, _ = check_non_degenerate(identity_functor(cat))
        assert gate, f"seed {seed}"
    _line(5, True,
          "footnote embedding accepted as *-functor, rejected by the "
          f"spectrum gate; identity gate passed on {N_INSTANCES} instances")


def test_criterion_6_functoriality():
    """Contravariant functoriality of both constructions on composable
    pairs, scalar deviation within 1e-6."""
    worst = 0.0
    for seed in range(N_PAIRS):
        params = GenParams(seed=seed, n_objects=1 + seed % 3, max_base=1 + seed % 3,
                           edge_density=0.8, phase_mode="random",
                           scramble=("unitary", "invertible")[seed % 2])
        phi, psi = gen_functor_pair(params)
        s_phi = sigma_on_morphism(phi)
        s_psi = sigma_on_morphism(psi)
        s_comp = sigma_on_morphism(phi.then(psi))
        eq, dev = morphisms_equal(s_comp, compose_morphisms(s_psi, s_phi), tol=TOL)
        assert eq, f"seed {seed}: spectrum composition deviates by {dev}"
        worst = max(worst, dev)
    for seed in range(N_PAIRS):
        params = GenParams(seed=seed + 1000, n_objects=1 + seed % 4,
                           max_base=1 + seed % 3, edge_density=0.8,
                           phase_mode="random")
        m1, m2 = gen_morphism_pair(params)
        from cstardual.functors import gamma_on_morphism
        cat3 = sections_category(m2.target, check=False)
        cat2 = sections_category(m2.source, check=False)
        cat1 = sections_category(m1.source, check=False)
        g2 = gamma_on_morphism(m2, cats=(cat3, cat2), check=False)
        g1 = gamma_on_morphism(m1, cats=(cat2, cat1), check=False)
        direct = gamma_on_morphism(compose_morphisms(m1, m2),
                                   cats=(cat3, cat1), check=False)
        chained = g2.then(g1)
        for key in direct.hom_maps:
            dev = float(np.max(np.abs(direct.hom_maps[key] - chained.hom_maps[key]))) \
                if direct.hom_maps[key].size else 0.0
            assert dev <= TOL, f"seed {seed} {key}: {dev}"
            worst = max(worst, dev)
    _line(6, True,
          f"contravariant functoriality on {N_PAIRS}+{N_PAIRS} composable "
          f"pairs, max deviation {worst:.2e} <= {TOL}")


def test_criterion_7_naturality_squares():
    """Both naturality squares within 1e-6 on seeded morphisms."""
    worst = 0.0
    for seed in range(N_PAIRS):
        params = GenParams(seed=seed + 2000, n_objects=1 + seed % 3,
                           max_base=1 + seed % 3, edge_density=0.8,
                           phase_mode="random",
                           scramble=("none", "unitary", "invertible")[seed % 3])
        phi, _ = gen_functor_pair(params)
        report = check_naturality_G(phi)
        assert report.ok, f"seed {seed}: G-square deviates by {report.square_identity}"
        worst = max(worst, report.square_identity)
    for seed in range(N_PAIRS):
        params = GenParams(seed=seed + 3000, n_objects=1 + seed % 3,
                           max_base=1 + seed % 3, edge_density=0.8,
                           phase_mode="random")
        m1, _ = gen_morphism_pair(params)
        report = check_naturality_E(m1)
        assert report.ok, f"seed {seed}: E-square deviates by {report.square_identity}"
        worst = max(worst, report.square_identity)
    _line(7, True,
          f"naturality squares on {N_PAIRS}+{N_PAIRS} seeded morphisms, "
          f"max deviation {worst:.2e} <= {TOL}")


def test_criterion_8_bimodule_spectral_theorem(nonfull_bimodule):
    """Non-full fixture: partial bijection exactly {(1,1'),(2,2')}, right
    support {1',2'}; the module-to-sections map is bijective and preserves
    both inner products within 1e-9."""
    spec = bimodule_spectrum(nonfull_bimodule)

    def named(row, names):
        return names[int(np.argmax(row.real))]

    pairs = sorted((named(spec.left_characters[p], ["1", "2"]),
                    named(spec.right_characters[q], ["1'", "2'", "3'"]))
                   for p, q in spec.pairs)
    assert pairs == [("1", "1'"), ("2", "2'")]
    right = sorted(named(spec.right_characters[q], ["1'", "2'", "3'"])
                   for q in spec.right_support)
    assert right == ["1'", "2'"]
    assert spec.full_left() and not spec.full_right()
    dev = check_bimodule_isomorphism(nonfull_bimodule, spec)
    assert dev <= 1e-9
    _line(8, True,
          f"partial bijection {pairs}, right support {right}, inner product "
          f"deviation {dev:.2e} <= 1e-9")


def test_criterion_9_cstar_identity(unitary_corpus):
    """|‖x*x‖ - ‖x‖^2| <= 1e-6 (1 + ‖x‖^2) on 1000 random elements."""
    rng = np.random.default_rng(2024)
    count = 0
    worst = 0.0
    idx = 0
    corpus = [entry for entry in unitary_corpus if any(
        entry[1].dim(A, B) > 0 for A in entry[1].objects for B in entry[1].objects)]
    while count < 1000:
        seed, cat, _ = corpus[idx % len(corpus)]
        idx += 1
        homs = [(A, B) for A in cat.objects for B in cat.objects
                if cat.dim(A, B) > 0]
        for A, B in homs:
            if count >= 1000:
                break
            d = cat.dim(A, B)
            x = rng.normal(size=d) + 1j * rng.normal(size=d)
            xx = cat.compose(B, A, B, cat.star(A, B, x), x)
            lhs = cstar_norm(cat, B, B, xx)
            norm = cstar_norm(cat, A, B, x)
            dev = abs(lhs - norm ** 2)
            bound = TOL * (1.0 + norm ** 2)
            assert dev <= bound, f"seed {seed} ({A},{B}): {dev} > {bound}"
            worst = max(worst, dev / (1.0 + norm ** 2))
            count += 1
    _line(9, True,
          f"C*-identity on {count} random elements, max relative deviation "
          f"{worst:.2e} <= {TOL}")
