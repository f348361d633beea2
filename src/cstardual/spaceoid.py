"""Finite spaceoids: groupoids of partial bijections carrying a rank-one
line-bundle structure.

Off-diagonal points are graphs of partial bijections between the finite base
sets; each point carries a one-dimensional fiber described, in a fixed unit
frame, by a composition phase ``c(p, q)`` per composable pair and an
involution phase ``nu(p)`` with ``(u_p)* = nu(p) u_{p*}``.  Diagonal Hom-sets
are implicit: they are always the full diagonal with canonical unit fibers,
which removes a class of invalid states.

At the boundary a point of Hom(A,B) is the handle ``(A, B, i)``, ``i`` its
index in the canonical order of Hom(A,B) (sorted by target/source labels).
Inside, the constructor numbers the points once, in ``all_points()`` order,
with per-point arrays: target and source object, target and source base
label (coded per object by diagonal basis index; a label outside the base
set gets a code past the end), ``nu`` and the inverse point (-1 if none).
What composes is one pair table of rows ``(p, q, r)``, one per pair with
``source(p) == target(q)``, ordered by ``p``, then the object order of q's
source, then ``q``; ``r`` is the composite point, ``DIAGONAL`` or
``NO_COMPOSITE``, and the phases ``c`` are a vector aligned with it.  A
phase given on adjacent points that do not compose is rejected.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import combinations, product

import numpy as np

from .cstarcat import ValidationReport
from .errors import EndpointMismatch, InvalidMorphism, InvalidSpaceoid
from .numlin import DEFAULT_TOL, Tolerance

DIAGONAL = -1      # pair-table composite: a unit on the diagonal
NO_COMPOSITE = -2  # pair-table composite: closure fails


def _runs(lo, counts):
    """Owner and position of every element of the runs ``[lo, lo + counts)``."""
    owner = np.repeat(np.arange(len(lo)), counts)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts - lo, counts)


class FiniteSpaceoid:
    """Finite non-full spaceoid.

    Parameters
    ----------
    objects : iterable of labels.
    base_sets : dict label -> iterable of base point labels (nonempty).
    points : dict (A, B) -> list of (target, source) label pairs, A != B
        declared objects.  Lists are normalized to the canonical order sorted
        by (t, s); the ``nu``/``cphase`` keys index the lists as given.
    nu : dict (A, B, i) -> complex involution phase, defaults to 1.
    cphase : dict ((A,B,i), (B,C,j)) -> complex composition phase for
        composable off-diagonal pairs, defaults to 1; ``ValueError`` on a
        pair that does not compose.

    A key of ``points``, ``nu`` or ``cphase`` that names no off-diagonal
    Hom-set or no given point raises ``ValueError`` naming the key.
    """

    def __init__(self, objects, base_sets, points, nu=None, cphase=None):
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object labels")
        self.base_sets, self._codes = {}, {}
        for A in self.objects:
            labels = tuple(str(x) for x in base_sets[A])
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate base labels at {A}")
            self.base_sets[A] = labels
            self._codes[A] = {x: k for k, x in enumerate(sorted(labels))}
        self.points = {(A, B): [] for A, B in product(self.objects, repeat=2) if A != B}
        given = {}  # per nonempty Hom(A,B): canonical place of each given point
        for key, pts in points.items():
            if key not in self.points:
                raise ValueError(f"points key {key!r} does not name two distinct declared objects")
            raw = [(str(t), str(s)) for t, s in pts]
            if raw:
                order = sorted(range(len(raw)), key=raw.__getitem__)
                self.points[key] = [raw[k] for k in order]
                given[key] = np.argsort(order)

        self._object_index = {A: a for a, A in enumerate(self.objects)}
        self._handles, self._offset, cols, codes = [], {}, [], self._codes
        for A, B in sorted(self.points):
            self._offset[(A, B)] = len(self._handles)
            for i, (t, s) in enumerate(self.points[(A, B)]):
                self._handles.append((A, B, i))
                cols.append((self._object_index[A], self._object_index[B], i,
                             codes[A].setdefault(t, len(codes[A])),
                             codes[B].setdefault(s, len(codes[B]))))
        self._radix = max([1] + [len(c) for c in codes.values()])
        n = len(self._handles)
        cols = np.array(cols, dtype=np.int64).reshape(n, 5).T
        self._tobj, self._sobj, self._local, self._tlab, self._slab = cols
        key = self._point_key(self._tobj, self._sobj, self._tlab, self._slab)
        by_key = np.argsort(key, kind="stable")
        # a sentinel above every key keeps each search in range
        self._keys = np.append(key[by_key], np.iinfo(np.int64).max)
        self._key_points = np.append(by_key, -1)
        self._star = self._find(self._sobj, self._tobj, self._slab, self._tlab)

        # the pair table joins where p ends with where q starts
        self._starts = self._tobj * self._radix + self._tlab
        self._ends = self._sobj * self._radix + self._slab
        by_start = np.lexsort((np.arange(n), self._sobj, self._starts))
        sorted_starts = self._starts[by_start]
        lo = np.searchsorted(sorted_starts, self._ends, "left")
        counts = np.searchsorted(sorted_starts, self._ends, "right") - lo
        self._p, pos = _runs(lo, counts)
        self._q = by_start[pos]
        self._first = np.cumsum(counts) - counts  # first row of each p
        self._rank = np.empty(n, dtype=np.int64)  # place of q within its rows
        self._rank[by_start] = np.arange(n) - np.searchsorted(sorted_starts, sorted_starts)
        a, c = self._tobj[self._p], self._sobj[self._q]
        r = self._find(a, c, self._tlab[self._p], self._slab[self._q])
        self._r = np.where(a == c, DIAGONAL, np.where(r < 0, NO_COMPOSITE, r))

        def number(handle, what, key):
            A, B, i = handle
            if (A, B) not in given or not 0 <= i < len(given[(A, B)]):
                raise ValueError(f"{what} key {key!r} does not name a point")
            return self._offset[(A, B)] + int(given[(A, B)][i])

        self._nu = np.ones(n, dtype=complex)
        for handle, value in (nu or {}).items():
            self._nu[number(handle, "nu", handle)] = complex(value)
        self._c = np.ones(len(self._p), dtype=complex)
        keys = list(cphase or {})
        ends = np.array([[number(h1, "cphase", (h1, h2)), number(h2, "cphase", (h1, h2))]
                         for h1, h2 in keys], dtype=np.int64)
        rows = self._row(*ends.reshape(-1, 2).T)
        for k in np.flatnonzero(rows < 0)[:1]:
            raise ValueError(f"phase on {keys[k][0]},{keys[k][1]}, which do not compose")
        self._c[rows] = [complex(v) for v in (cphase or {}).values()]

    def _point_key(self, a, b, t, s):
        return ((a * len(self.objects) + b) * self._radix + t) * self._radix + s

    def _find(self, a, b, t, s):
        """Point numbers from target/source objects and label codes, -1 where
        there is no such point."""
        key = self._point_key(a, b, t, s)
        k = np.searchsorted(self._keys, key)
        return np.where((self._keys[k] == key) & (np.asarray(t) >= 0) & (np.asarray(s) >= 0),
                        self._key_points[k], -1)

    def _row(self, p, q):
        """Pair-table rows of the point pairs ``(p, q)``, -1 where p and q do
        not compose."""
        return np.where(self._ends[p] == self._starts[q], self._first[p] + self._rank[q], -1)

    def _point(self, handle) -> int:
        A, B, i = handle
        if not 0 <= i < len(self.points[(A, B)]):
            raise KeyError(handle)
        return self._offset[(A, B)] + i

    def _with_phases(self, nu, c):
        """The same points with new phases: ``nu`` per point, ``c`` per row."""
        out = copy.copy(self)
        out._nu, out._c = np.asarray(nu, dtype=complex), np.asarray(c, dtype=complex)
        return out

    def _inverses(self):
        """The inverse point of every point; raises when one has none."""
        for p in np.flatnonzero(self._star < 0)[:1]:
            self.star(self._handles[p])
        return self._star

    def _composites(self):
        """The composite column of the pair table; raises when closure fails."""
        for row in np.flatnonzero(self._r == NO_COMPOSITE)[:1]:
            h1, h2 = self._handles[self._p[row]], self._handles[self._q[row]]
            raise InvalidSpaceoid(f"closure fails: {h1} . {h2} has no composite point")
        return self._r

    # -- geometry -------------------------------------------------------------

    def hom_points(self, A, B):
        """Handles of Hom(A,B) points in canonical order (A != B)."""
        return [(A, B, i) for i in range(len(self.points[(A, B)]))]

    def all_points(self):
        return list(self._handles)

    def target(self, handle) -> str:
        A, B, i = handle
        return self.points[(A, B)][i][0]

    def source(self, handle) -> str:
        A, B, i = handle
        return self.points[(A, B)][i][1]

    def lookup(self, A, B, t, s):
        """Handle of the point of Hom(A,B) with the given target/source."""
        p = int(self._find(self._object_index[A], self._object_index[B],
                           self._codes[A].get(t, -1), self._codes[B].get(s, -1)))
        return None if p < 0 else self._handles[p]

    def star(self, handle):
        q = self._star[self._point(handle)]
        if q < 0:
            A, B, _ = handle
            raise InvalidSpaceoid(f"point {handle} has no inverse in Hom({B},{A})")
        return self._handles[q]

    def c(self, h1, h2) -> complex:
        row = self._row(self._point(h1), self._point(h2))
        if row < 0:
            raise KeyError((h1, h2))
        return complex(self._c[row])

    @property
    def nu(self):
        """Involution phases by handle."""
        return dict(zip(self._handles, self._nu.tolist()))

    @property
    def cphase(self):
        """Composition phases by handle pair, in pair-table order."""
        h = self._handles
        return {(h[p], h[q]): v for p, q, v in
                zip(self._p.tolist(), self._q.tolist(), self._c.tolist())}

    # -- components -----------------------------------------------------------

    def components(self):
        """Maximal pair subgroupoids plus singleton components for unlinked
        base points, in deterministic order."""
        parent = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for A in self.objects:
            for x in self.base_sets[A]:
                parent[(A, x)] = (A, x)
        for A, B in self.points:
            for t, s in self.points[(A, B)]:
                rx, ry = find((A, t)), find((B, s))
                parent[max(rx, ry)] = min(rx, ry)
        groups = {}
        for node in parent:
            groups.setdefault(find(node), []).append(node)
        comps = {}
        for root in sorted(groups):
            nodes = groups[root]
            objs = sorted({A for A, _ in nodes})
            if len(nodes) != len(objs):
                raise InvalidSpaceoid(
                    f"component at {root} holds two base points of one object")
            comps[root] = Component(tuple(objs), dict(nodes), {})
        for h in self._handles:
            comps[find((h[0], self.target(h)))].points[h[:2]] = h
        return list(comps.values())


@dataclass
class Component:
    objects: tuple
    diag: dict    # object -> base point label
    points: dict  # (A, B) -> handle; the full pair groupoid when valid


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_spaceoid(S: FiniteSpaceoid, tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    """Exhaustive check of the spaceoid invariants; failures carry witnesses."""
    report = ValidationReport()
    h, P, Q, R = S._handles, S._p, S._q, S._r

    objs, n = S.objects, len(S.objects)
    sizes = np.array([len(S.base_sets[A]) for A in objs], dtype=np.int64)
    report.record("base_nonempty", sizes > 0, lambda k: f"({objs[k]})")

    # per Hom-set, in the order of ``S.points`` (object pairs A != B in object
    # order): a target or source label code twice, or a code past the base set
    pair = S._tobj * n + S._sobj
    bad = np.zeros((3, n * n), dtype=bool)
    for row, lab in enumerate((S._tlab, S._slab)):
        key = np.sort(pair * S._radix + lab)
        bad[row, key[1:][key[1:] == key[:-1]] // S._radix] = True
    bad[2, pair[(S._tlab >= sizes[S._tobj]) | (S._slab >= sizes[S._sobj])]] = True
    keys = list(S.points)
    report.record(np.tile(["target_injective", "source_injective", "labels_in_base"], len(keys)),
                  ~bad[:, ~np.eye(n, dtype=bool).ravel()].T.ravel(),
                  lambda k: "({},{})".format(*keys[k // 3]))
    if not report.ok:
        return report

    # witnesses follow the Hom-set order of ``S.points``, which is object order
    in_order = [S._point(g) for key in S.points for g in S.hom_points(*key)]
    inverse = S._star[in_order] >= 0
    report.record("inverse_present", inverse,
                  lambda k: "({},{}) point {}".format(*h[in_order[k]]))
    closed = np.where(R == DIAGONAL, S._slab[Q] == S._tlab[P], R >= 0)
    report.record("closure", closed, lambda k: f"{h[P[k]]}.{h[Q[k]]}")
    dev = np.abs(np.abs(S._nu) - 1.0)
    report.record("nu_unimodular", dev <= tol.phase(), lambda k: str(h[k]), dev)
    dev = np.abs(np.abs(S._c) - 1.0)
    report.record("c_unimodular", dev <= tol.phase(), lambda k: f"{h[P[k]]},{h[Q[k]]}", dev)

    if closed.all() and inverse.all():
        _check_cocycle(S, report, tol.phase(10))
        try:
            S.components()
            report.record("holonomy_trivial", True, "")
        except InvalidSpaceoid as exc:
            report.record("holonomy_trivial", False, str(exc))

    # Vacuous on finite discrete base spaces: every section vanishes at
    # infinity and every map converges at infinity.  Kept as named checks so
    # the axiom-to-check map stays one-to-one.
    report.record("sections_vanish_at_infinity", True, "finite base")
    report.record("converging_at_infinity", True, "finite base")
    return report


def _check_cocycle(S, report, bound):
    h, nu, c, star = S._handles, S._nu, S._c, S._star
    P, Q, R = S._p, S._q, S._r
    dev = np.abs(nu[star] - nu)
    report.record("nu_symmetric", dev <= bound, lambda k: str(h[k]), dev)

    # a pair (p, p*) landing on the diagonal unit: positivity pins c(p, p*);
    # a pair with a composite: the involution reverses the product
    unit = R == DIAGONAL
    lhs = np.conj(c) * nu[np.maximum(R, 0)]
    rhs = nu[P] * nu[Q] * c[S._row(star[Q], star[P])]
    dev = np.where(unit, np.abs(c - np.conj(nu[P])), np.abs(lhs - rhs))
    rows = np.flatnonzero(~unit | (Q == star[P]))
    report.record(np.where(unit, "c_matches_nu_on_units", "involution_antimultiplicative")[rows],
                  dev[rows] <= bound, lambda k: f"{h[P[rows[k]]]},{h[Q[rows[k]]]}",
                  dev[rows])

    # triples: each row (h1, h2) joined with the rows (h2, h3), and
    # c(h1,h2) c(h1.h2, h3) = c(h2,h3) c(h1, h2.h3) with c = 1 on a unit
    r1, r2 = _runs(S._first[Q], np.bincount(P, minlength=len(h))[Q])
    h12, h23 = R[r1], R[r2]
    lhs = c[r1] * np.where(h12 >= 0, c[S._row(h12, Q[r2])], 1.0)
    rhs = c[r2] * np.where(h23 >= 0, c[S._row(P[r1], h23)], 1.0)
    dev = np.abs(lhs - rhs)
    report.record("cocycle", dev <= bound,
                  lambda k: f"{h[P[r1[k]]]},{h[Q[r1[k]]]},{h[Q[r2[k]]]}", dev)


# ---------------------------------------------------------------------------
# gauge transformations
# ---------------------------------------------------------------------------

def apply_gauge(S: FiniteSpaceoid, lam: dict) -> FiniteSpaceoid:
    """Rescale the unit frames by per-point phases: u'_p = lam[p] u_p.

    Missing entries default to 1.  Phases transform as
    c' = c lam_p lam_q / lam_{p.q} and nu' = nu conj(lam_p) / lam_{p*};
    composites landing on the canonically framed diagonal divide by 1.
    """
    return _gauge(S, np.array([lam.get(g, 1.0) for g in S._handles], dtype=complex))


def _gauge(S, lam):
    """``apply_gauge`` with the phases as one vector in point order."""
    star, R = S._inverses(), S._composites()
    return S._with_phases(S._nu * np.conj(lam) / lam[star],
                          S._c * lam[S._p] * lam[S._q] / np.where(R >= 0, lam[R], 1.0))


def gauge_fix(S: FiniteSpaceoid):
    """Trivialize the cocycle on every maximal pair subgroupoid.

    Frames on the star of edges out of each component's least object are the
    spanning tree; the remaining frames are products of tree frames.  On the
    result every stored phase is 1 (pair-groupoid cohomology is trivial).
    Returns ``(S_fixed, lam)`` with ``lam`` the applied per-point phase
    change.  Idempotent.
    """
    S._inverses(), S._composites()  # raise here: every frame looked up below exists
    # per base node, the object index and label code of its component's root
    root = np.zeros((2, len(S.objects), S._radix), dtype=np.int64)
    for comp in S.components():
        r = comp.objects[0]
        node = S._object_index[r], S._codes[r][comp.diag[r]]
        for A, x in comp.diag.items():
            root[:, S._object_index[A], S._codes[A][x]] = node
    # the frame of A -> B: nu(root -> A) c(A -> root, root -> B), or 1 where A is the root
    ra, rl = root[:, S._tobj, S._tlab]
    x = S._find(S._tobj, ra, S._tlab, rl)  # A -> root, -1 where A is the root
    y = S._find(ra, S._sobj, rl, S._slab)  # root -> B, -1 where B is the root
    lam = np.where(x >= 0, S._nu[S._star[x]], 1.0)
    via = (x >= 0) & (y >= 0)
    lam[via] *= S._c[S._row(x[via], y[via])]
    return _gauge(S, lam), dict(zip(S._handles, lam.tolist()))


def is_gauge_trivial(S: FiniteSpaceoid, tol=DEFAULT_TOL.phase(100)) -> bool:
    """Every stored phase is 1 within ``tol``."""
    return bool(np.all(np.abs(S._nu - 1.0) <= tol) and np.all(np.abs(S._c - 1.0) <= tol))


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

@dataclass
class SpaceoidMorphism:
    """Bundle morphism: base maps forward, fiber scalars backward.

    ``scalars[p]`` expresses, in the unit frames, the fiberwise linear map
    from the pulled-back fiber over the image of p to the fiber over p.
    Diagonal fibers carry canonical units, so their scalar is fixed at 1 and
    only off-diagonal points are stored.  The point map is determined by the
    base maps: groupoid functoriality forces target/source compatibility.
    """

    source: FiniteSpaceoid
    target: FiniteSpaceoid
    obj_map: dict
    base_maps: dict  # A -> {x -> f(x)}
    scalars: dict = field(default_factory=dict)  # source handle -> complex

    def point_map(self, handle):
        A, B, _ = handle
        A2, B2 = self.obj_map[A], self.obj_map[B]
        t2 = self.base_maps[A][self.source.target(handle)]
        s2 = self.base_maps[B][self.source.source(handle)]
        out = self.target.lookup(A2, B2, t2, s2)
        if out is None:
            raise InvalidMorphism(f"point {handle} has no image in Hom({A2},{B2})")
        return out

    def _image_points(self):
        """Target point number of every source point; raises where one has
        no image."""
        images = self._images()
        for k in np.flatnonzero(images < 0)[:1]:
            self.point_map(self.source._handles[k])  # raises: no image
        return images

    def _image_handles(self):
        """``point_map`` of every source point, in point order."""
        return [self.target._handles[i] for i in self._image_points()]

    def scalar(self, handle) -> complex:
        return complex(self.scalars.get(handle, 1.0))

    def _images(self):
        """Target point number of every source point, -1 where the base maps
        send it to no point."""
        src, tgt = self.source, self.target
        obj = np.array([tgt._object_index[self.obj_map[A]] for A in src.objects],
                       dtype=np.int64)
        codes = np.full((len(src.objects), src._radix), -1, dtype=np.int64)
        for a, A in enumerate(src.objects):
            to_code, bm = tgt._codes[self.obj_map[A]], self.base_maps.get(A, {})
            for x, k in src._codes[A].items():
                codes[a, k] = to_code.get(bm.get(x), -1)
        return tgt._find(obj[src._tobj], obj[src._sobj],
                         codes[src._tobj, src._tlab], codes[src._sobj, src._slab])


def identity_morphism(S: FiniteSpaceoid) -> SpaceoidMorphism:
    return SpaceoidMorphism(
        S, S, {A: A for A in S.objects},
        {A: {x: x for x in S.base_sets[A]} for A in S.objects}, {})


def validate_morphism(m: SpaceoidMorphism, tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    """Groupoid-functor and fiberwise *-functor conditions, plus the two
    at-infinity conditions that hold vacuously over finite bases."""
    report = ValidationReport()
    src, tgt = m.source, m.target

    ok = sorted(m.obj_map.keys()) == sorted(src.objects) and \
        sorted(m.obj_map.values()) == sorted(tgt.objects)
    report.record("object_bijective", ok, str(m.obj_map))
    if not ok:
        return report
    for A in src.objects:
        bm = m.base_maps.get(A, {})
        ok = all(x in bm and bm[x] in tgt.base_sets[m.obj_map[A]]
                 for x in src.base_sets[A])
        report.record("base_map_total", ok, f"({A})")
    if not report.ok:
        return report

    h, images = src._handles, m._images()
    report.record("point_map_defined", images >= 0, lambda k: "point {} has no image in "
                  "Hom({},{})".format(h[k], *(m.obj_map[o] for o in h[k][:2])))
    if not report.ok:
        return report

    scalars = np.array([m.scalar(g) for g in h], dtype=complex)
    star, R = src._inverses(), src._composites()
    P, Q = src._p, src._q
    # per point, the unimodular and the involution check in turn
    dev = np.stack([np.abs(np.abs(scalars) - 1.0),
                    np.abs(tgt._nu[images] * scalars[star] - np.conj(scalars) * src._nu)],
                   axis=1).ravel()
    report.record(np.tile(["scalar_unimodular", "scalar_involution"], len(h)),
                  dev <= tol.phase(10), lambda k: str(h[k // 2]), dev)

    lhs = np.where(R >= 0, scalars[R], 1.0) * tgt._c[tgt._row(images[P], images[Q])]
    rhs = scalars[P] * scalars[Q] * src._c
    dev = np.abs(lhs - rhs)
    report.record("scalar_multiplicative", dev <= tol.phase(10),
                  lambda k: f"{h[P[k]]},{h[Q[k]]}", dev)

    # Components must map onto components covering exactly the corresponding
    # objects; otherwise the pull-back of sections fails to be multiplicative
    # (a composite would pull back past a point with no factorization).  This
    # is the spectrum-side shadow of the non-degeneracy condition on functors.
    comp_of_src, comp_of_tgt = ({node: comp.objects for comp in S.components()
                                 for node in comp.diag.items()} for S in (src, tgt))
    for A in src.objects:
        for x in src.base_sets[A]:
            image_objs = tuple(sorted(m.obj_map[o] for o in comp_of_src[(A, x)]))
            target_objs = comp_of_tgt[(m.obj_map[A], m.base_maps[A][x])]
            report.record("component_preserving", image_objs == target_objs,
                          f"({A},{x}): {image_objs} vs {target_objs}")

    report.record("converging_at_infinity", True, "finite base")
    report.record("vanishing_at_infinity", True, "finite base")
    return report


def compose_morphisms(fst: SpaceoidMorphism, snd: SpaceoidMorphism) -> SpaceoidMorphism:
    """Composite of fst : E1 -> E2 with snd : E2 -> E3.

    Object, base and point maps compose; frame scalars multiply along the
    chain: the result scalar at p is fst's scalar at p times snd's scalar at
    the image of p.
    """
    if fst.target is not snd.source:
        raise EndpointMismatch("morphisms do not share the middle spaceoid")
    obj = {A: snd.obj_map[fst.obj_map[A]] for A in fst.source.objects}
    base = {A: {x: snd.base_maps[fst.obj_map[A]][fst.base_maps[A][x]]
                for x in fst.source.base_sets[A]} for A in fst.source.objects}
    scalars = {h: fst.scalar(h) * snd.scalar(g)
               for h, g in zip(fst.source.all_points(), fst._image_handles())}
    return SpaceoidMorphism(fst.source, snd.target, obj, base, scalars)


def morphisms_equal(m1: SpaceoidMorphism, m2: SpaceoidMorphism, tol=DEFAULT_TOL.residual()):
    """(equal, max scalar deviation); maps must agree exactly, scalars within ``tol``."""
    if m1.source is not m2.source or m1.target is not m2.target:
        return False, float("inf")
    if m1.obj_map != m2.obj_map or m1.base_maps != m2.base_maps:
        return False, float("inf")
    m1._image_points()  # raises where a point has no image; equal maps agree elsewhere
    dev = max([0.0] + [abs(m1.scalar(h) - m2.scalar(h)) for h in m1.source.all_points()])
    return dev <= tol, dev


def invert_morphism(m: SpaceoidMorphism) -> SpaceoidMorphism:
    """Inverse of an invertible morphism (bijective object/base/point maps)."""
    obj = {v: k for k, v in m.obj_map.items()}
    if len(obj) != len(m.obj_map):
        raise InvalidMorphism("object map is not a bijection")
    base = {}
    for A in m.source.objects:
        A2 = m.obj_map[A]
        fwd = m.base_maps[A]
        if len(set(fwd.values())) != len(fwd) or \
                set(fwd.values()) != set(m.target.base_sets[A2]):
            raise InvalidMorphism(f"base map at {A} is not a bijection")
        base[A2] = {v: k for k, v in fwd.items()}
    scalars = {g: 1.0 / m.scalar(h)
               for h, g in zip(m.source.all_points(), m._image_handles())}
    return SpaceoidMorphism(m.target, m.source, obj, base, scalars)


# ---------------------------------------------------------------------------
# isomorphism search
# ---------------------------------------------------------------------------

def spaceoids_isomorphic(S1: FiniteSpaceoid, S2: FiniteSpaceoid,
                         tol: Tolerance = DEFAULT_TOL):
    """Invertible morphism S1 -> S2, or None when no isomorphism exists.

    Both sides are gauge-fixed first, so only combinatorics branch: object
    bijections compatible with the base-set sizes and the multiset of linked
    components; point matching inside a component is then forced by sources
    and targets.  Backtracking meets bijections in lexicographic order,
    pruning a candidate object unless its base-set size, component sizes and
    components shared with each earlier object agree (all are necessary).
    """
    if len(S1.objects) != len(S2.objects):
        return None
    F1, lam1 = gauge_fix(S1)
    F2, lam2 = gauge_fix(S2)
    comps1 = [c for c in F1.components() if len(c.objects) > 1]
    comps2 = sorted((c for c in F2.components() if len(c.objects) > 1), key=lambda c: c.objects)
    prof1, prof2 = ({A: (len(S.base_sets[A]), sorted(len(c.objects) for c in cs if A in c.objects))
                     for A in S.objects} for S, cs in ((S1, comps1), (S2, comps2)))
    if sorted(prof1.values()) != sorted(prof2.values()):
        return None
    share1, share2 = (Counter(frozenset(pair) for c in comps for pair in combinations(c.objects, 2))
                      for comps in (comps1, comps2))
    to_fixed = replace(identity_morphism(S1), target=F1, scalars=dict(lam1))
    from_fixed = replace(identity_morphism(F2), target=S2,
                         scalars={h: 1.0 / v for h, v in lam2.items()})
    src, tgt = sorted(S1.objects), sorted(S2.objects)

    def bijections(chosen):
        if len(chosen) == len(src):
            yield dict(zip(src, chosen))
            return
        A = src[len(chosen)]
        for B in tgt:
            if B not in chosen and prof1[A] == prof2[B] and all(
                    share1[frozenset((A, A2))] == share2[frozenset((B, B2))]
                    for A2, B2 in zip(src, chosen)):
                yield from bijections(chosen + [B])

    for obj_map in bijections([]):
        keys = [tuple(sorted(obj_map[o] for o in c.objects)) for c in comps1]
        order = sorted(range(len(comps1)), key=keys.__getitem__)
        if [keys[i] for i in order] != [c.objects for c in comps2]:
            continue
        base = {A: {} for A in S1.objects}
        for i, c2 in zip(order, comps2):
            for o, x in comps1[i].diag.items():
                base[o][x] = c2.diag[obj_map[o]]
        for A in S1.objects:  # free points pair up in base order
            used = set(base[A].values())
            base[A].update(zip([x for x in F1.base_sets[A] if x not in base[A]],
                               [x for x in F2.base_sets[obj_map[A]] if x not in used]))
        relabel = SpaceoidMorphism(F1, F2, obj_map, base, {})
        if not validate_morphism(relabel, tol).ok:
            continue
        m = compose_morphisms(compose_morphisms(to_fixed, relabel), from_fixed)
        if validate_morphism(m, tol).ok:
            return m
    return None
