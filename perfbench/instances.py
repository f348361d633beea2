"""Seeded benchmark instances built from the library's public API.

``generators.GenParams`` caps base sets at 6 points, far below the sizes
where the pipeline's cost shows, so the benchmark samples its own
skeletons.  Links are drawn as ``generators._sample_skeleton`` draws them at
edge density 1 (whole components, until fewer than two objects have free
points), over base sets of fixed size.  Every instance carries its oracle:
the spaceoid it was generated from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cstardual.cstarcat import HilbertBimodule, StarFunctor, one_object_category
from cstardual.generators import OBJECT_POOL
from cstardual.rng import Xoshiro256StarStar
from cstardual.spaceoid import FiniteSpaceoid, SpaceoidMorphism, apply_gauge

SHAPE_SEED = 0x5EED5


def seeded_rng(seed, salt):
    return Xoshiro256StarStar((seed * 0x9E3779B97F4A7C15 + salt) & (2**64 - 1))


@dataclass
class Skeleton:
    """Objects, base sets and links (each link: object -> base point)."""

    objects: tuple
    base_sets: dict
    links: list

    def point_count(self, A, B):
        """Number of oracle points in Hom(A,B), A != B."""
        return sum(1 for link in self.links if A in link and B in link)


def _draw_links(rng, objects, base_sets):
    free = {A: list(base_sets[A]) for A in objects}
    links = []
    while True:
        avail = [A for A in objects if free[A]]
        if len(avail) < 2:
            return links
        members = sorted(rng.sample(avail, rng.randint(2, len(avail))))
        link = {}
        for A in members:
            x = free[A][rng.randrange(len(free[A]))]
            free[A].remove(x)
            link[A] = x
        links.append(link)


def sample_skeleton(rng, base_sizes):
    """Skeleton over base sets of the given sizes.

    The link shape (which object sets the components span) is drawn once
    from ``SHAPE_SEED``, and ``rng`` only shuffles which base points each
    link joins.  Drawing the shape from the workload seed instead makes the
    point count of an 8-object skeleton vary by about 15% between seeds and
    the associativity work by about 60%, which would swamp any code change;
    with a fixed shape every seed costs the same.
    """
    objects = OBJECT_POOL[: len(base_sizes)]
    base_sets = {A: [f"{A.lower()}{i}" for i in range(n)]
                 for A, n in zip(objects, base_sizes)}
    shape = _draw_links(Xoshiro256StarStar(SHAPE_SEED), objects, base_sets)
    relabel = {}
    for A in objects:
        labels = list(base_sets[A])
        rng.shuffle(labels)
        relabel[A] = dict(zip(base_sets[A], labels))
    links = [{A: relabel[A][x] for A, x in link.items()} for link in shape]
    return Skeleton(objects, base_sets, links)


def link_phases(rng, skel):
    """One random frame phase per off-diagonal point, keyed (A, B, t, s)."""
    lam = {}
    for link in skel.links:
        for A in link:
            for B in link:
                if A != B:
                    lam[(A, B, link[A], link[B])] = rng.phase()
    return lam


def spaceoid_of(skel, lam, links=None, rename=None):
    """Spaceoid on the skeleton's links (all, or the subset ``links``), with
    objects relabelled by ``rename`` and unit frames rescaled by ``lam``."""
    links = skel.links if links is None else links
    ren = rename or {A: A for A in skel.objects}
    back = {new: old for old, new in ren.items()}
    points = {}
    for link in links:
        for A in link:
            for B in link:
                if A != B:
                    points.setdefault((ren[A], ren[B]), []).append((link[A], link[B]))
    plain = FiniteSpaceoid([ren[A] for A in skel.objects],
                           {ren[A]: skel.base_sets[A] for A in skel.objects}, points)
    frames = {h: lam[(back[h[0]], back[h[1]], plain.target(h), plain.source(h))]
              for h in plain.all_points()}
    return apply_gauge(plain, frames)


def reversal(objects):
    """Relabelling that sends the i-th object to the i-th from last.

    The isomorphism search tries object bijections in lexicographic order,
    so against an oracle relabelled this way it walks every bijection
    before the one that matches; a seeded relabelling would make its cost
    depend on where the seed's permutation falls in that order.
    """
    return dict(zip(objects, reversed(objects)))


def bimodule_of_block(cat, A="A", B="B"):
    """Hilbert bimodule Hom(A,B) over the diagonals at A and B, read off the
    category: both actions and the inner products
    ``<x_i, x_j>_A = x_i . x_j*`` and ``<x_i, x_j>_B = x_i* . x_j``."""
    J = cat.invol[(A, B)]
    ipA = np.einsum("ikm,kj->ijm", cat.comp[(A, B, A)], J)
    ipB = np.einsum("kjm,ki->ijm", cat.comp[(B, A, B)], J)
    algA = one_object_category(cat.comp[(A, A, A)], cat.invol[(A, A)], cat.unit(A), "algA")
    algB = one_object_category(cat.comp[(B, B, B)], cat.invol[(B, B)], cat.unit(B), "algB")
    return HilbertBimodule(algA, algB, cat.dim(A, B), cat.comp[(A, A, B)],
                           cat.comp[(A, B, B)], ipA, ipB)


def scramble_functor(cat1, T1, cat2, T2):
    """Identity-on-objects *-functor between two scrambles of one category
    (``T1``, ``T2`` as ``scramble_category`` returns them): ``inv(T2) @ T1``
    on each Hom-set."""
    homs = {key: np.linalg.solve(T2[key], T1[key]) if T1[key].size else T1[key]
            for key in cat1.hom_pairs()}
    return StarFunctor(cat1, cat2, {A: A for A in cat1.objects}, homs)


def gauge_morphism(S, rng):
    """Morphism ``apply_gauge(S, lam) -> S`` with identity maps and scalars
    ``conj(lam)``, for fresh random phases ``lam``."""
    lam = {h: rng.phase() for h in S.all_points()}
    return SpaceoidMorphism(
        apply_gauge(S, lam), S, {A: A for A in S.objects},
        {A: {x: x for x in S.base_sets[A]} for A in S.objects},
        {h: np.conj(v) for h, v in lam.items()})
