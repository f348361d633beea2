"""JSON schemas and (de)serialization for every value the CLI exchanges.

A tensor is written packed: one base64 string of its little-endian complex128
bytes (the [re, im] doubles) in C order, so ``np.frombuffer(base64.b64decode(s),
"<c16").reshape(shape)`` decodes it.  Nested lists of [re, im] pairs of
decimal doubles are read as well.  Scalars (``nu``, ``c``, morphism scalars)
are [re, im] pairs.  Composition tensors are indexed [i][j][k] for the
coefficient of basis vector k of Hom(A,C) in b_i . b_j; involution matrices
are indexed [row][col] with rows over the opposite Hom-set.  Spaceoid point
ids are strings, unique within a document.
"""

from __future__ import annotations

import base64
import json
import math
import sys
from bisect import bisect_right
from itertools import chain

import numpy as np

from .cstarcat import (FiniteCStarCategory, HilbertBimodule, StarFunctor, _support_paths,
                       one_object_category)
from .errors import SchemaError
from .spaceoid import FiniteSpaceoid, SpaceoidMorphism


# ---------------------------------------------------------------------------
# complex leaves
# ---------------------------------------------------------------------------

# A JSON number is finite when its magnitude is at most this; the bound also
# rejects integer literals too large to become a double.
_FLOAT_MAX = sys.float_info.max

def array_to_json(a):
    """``a`` packed: base64 of its little-endian complex128 bytes in C order."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<c16").tobytes()).decode("ascii")

def _expect(cond, path, message):
    if not cond:
        raise SchemaError(path, message)

# The rules an [re, im] pair is checked by, in order; a fault code is the
# index of the first rule a pair breaks (0: none).
_PAIR_RULES = (None, "expected [re, im] pair", "re/im must be numbers", "entries must be finite")

def _complex_pairs(values):
    """The [re, im] pairs ``values`` as one complex array (0 where a pair is
    rejected) and one fault code per pair, indexing ``_PAIR_RULES``: a list or
    tuple of two, each a plain int or float (not bool), each finite (an
    integer past the largest double is not)."""
    n = len(values)
    # the common case: every pair two finite floats
    if set(map(type, values)) <= {list, tuple} and set(map(len, values)) == {2}:
        flat = list(chain.from_iterable(values))
        if set(map(type, flat)) == {float}:
            z = np.fromiter(flat, dtype=float, count=2 * n)
            if np.isfinite(z).all():
                return z.view(complex), np.zeros(n, dtype=np.int8)
    pair = np.array([isinstance(v, (list, tuple)) and len(v) == 2 for v in values], dtype=bool)
    cells = np.zeros((n, 2), dtype=object)
    pairs = [v for v, ok in zip(values, pair) if ok]
    cells[pair] = np.fromiter(chain.from_iterable(pairs), dtype=object,
                              count=2 * len(pairs)).reshape(-1, 2)
    z, fault = _leaf_faults(cells)
    fault[~pair] = 1
    return z, fault

def _leaf_faults(cells):
    """The object array ``cells`` of [re, im] leaves (last axis 2) as complex
    values, and per pair fault 2 where a leaf is not a plain int or float, 3
    where one is not finite (``_PAIR_RULES``); rejected pairs read 0."""
    kinds = np.frompyfunc(type, 1, 1)(cells)
    wrong = (kinds != int) & (kinds != float)
    cells[wrong] = 0.0
    with np.errstate(invalid="ignore"):  # NaN compares false, as intended
        infinite = ~(np.abs(cells) <= _FLOAT_MAX)
    cells[infinite] = 0.0
    fault = np.where(wrong.any(-1), 2, np.where(infinite.any(-1), 3, 0)).astype(np.int8)
    return cells.astype(float).view(complex)[..., 0], fault

def json_to_array(v, shape, path):
    """A packed string (``_packed_array``) or nested [re, im] arrays
    (``_checked_array``) into a complex ndarray of the given shape.

    Leaves must be plain ints or floats and finite; an error names the
    first offending [re, im] pair in index order."""
    shape = tuple(shape)
    if 0 in shape:
        return np.zeros(shape, dtype=complex)
    if isinstance(v, str):
        return _packed_array(v, shape, path)
    return _checked_array(v, shape, path)

def _packed_array(v, shape, path):
    """``json_to_array`` of a packed string: exactly ``16 * prod(shape)``
    bytes of finite doubles (the largest double included)."""
    try:
        raw = base64.b64decode(v, validate=True)
    except ValueError:  # a binascii.Error, or a non-ASCII character
        raise SchemaError(path, "expected base64 text")
    size = 16 * math.prod(shape)
    _expect(len(raw) == size, path, f"expected {size} packed bytes, got {len(raw)}")
    pairs = np.frombuffer(raw, "<f8").reshape(shape + (2,))
    bad = np.argwhere(~np.isfinite(pairs).all(-1))
    if bad.size:
        raise SchemaError(f"{path}{bad[0].tolist()}", "entries must be finite")
    return np.frombuffer(raw, "<c16").reshape(shape).astype(complex)  # owned and writable

def _checked_array(v, shape, path):
    """``json_to_array`` leaf by leaf, over an object array."""
    raw = np.array(v, dtype=object)
    _expect(raw.shape == shape + (2,), path, f"expected shape {list(shape + (2,))}")
    z, fault = _leaf_faults(raw)
    bad = np.argwhere(fault)
    if bad.size:
        raise SchemaError(f"{path}{bad[0].tolist()}", _PAIR_RULES[fault[tuple(bad[0])]])
    return z


# ---------------------------------------------------------------------------
# schema helpers
# ---------------------------------------------------------------------------

def _pair_key(A, B):
    return f"{A}|{B}"

def _object(v, path, *required):
    """``v``, which must be a JSON object holding every ``required`` field."""
    _expect(isinstance(v, dict), path, "expected object")
    for key in required:
        _expect(key in v, path, f"missing field '{key}'")
    return v

def _object_labels(v, path):
    _expect(isinstance(v, list) and v and all(isinstance(o, str) for o in v), path,
            "expected nonempty list of strings")
    return v

def _labelled(v, parts, objects, path):
    """Entries of the JSON object ``v`` keyed ``A|B`` (``parts`` 2) or
    ``A|B|C`` (``parts`` 3), each label one of ``objects``; yields
    ``(labels, path of the entry, value)``."""
    for key, val in _object(v, path).items():
        here = f"{path}.{key}"
        labels = tuple(key.split("|"))
        _expect(len(labels) == parts, here, f"expected {parts} '|'-separated labels")
        for label in labels:
            _expect(label in objects, here, f"undeclared object '{label}'")
        yield labels, here, val

def _construct(path, cls, *args):
    """``cls(*args)``, with a ``ValueError`` from the constructor as a schema error."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise SchemaError(path, str(exc))

def _obj_map(v, src, tgt, path):
    """An ``obj_map`` field: a JSON object from the source objects to target objects."""
    _object(v, path)
    _expect(sorted(v) == sorted(src.objects), path, "keys must be the source objects")
    _expect(all(B in tgt.objects for B in v.values()), path, "values must be target objects")
    return dict(v)


# ---------------------------------------------------------------------------
# categories
# ---------------------------------------------------------------------------

def category_to_json(cat: FiniteCStarCategory):
    objs = list(cat.objects)
    # every tensor of nonzero size, stored or read as zeros
    return {
        "objects": objs,
        "dims": {_pair_key(A, B): cat.dim(A, B) for A in objs for B in objs},
        "comp": {f"{A}|{B}|{C}": array_to_json(cat.comp[(A, B, C)])
                 for A, B, C in _support_paths(cat, 3) if cat.dim(A, C)},
        "invol": {_pair_key(A, B): array_to_json(cat.invol[(A, B)])
                  for A, B in _support_paths(cat, 2) if cat.dim(B, A)},
        "units": {A: array_to_json(cat.unit(A)) for A in objs},
    }


def category_from_json(doc, path="category"):
    _object(doc, path, "objects", "dims", "units")
    objs = _object_labels(doc["objects"], f"{path}.objects")
    dims = {}
    for (A, B), here, val in _labelled(doc["dims"], 2, objs, f"{path}.dims"):
        _expect(type(val) is int and val >= 0, here, "expected nonnegative integer")
        dims[(A, B)] = val
    for A in objs:
        for B in objs:
            _expect((A, B) in dims, f"{path}.dims", f"missing '{A}|{B}'")
    comp = {(A, B, C): json_to_array(val, (dims[(A, B)], dims[(B, C)], dims[(A, C)]), here)
            for (A, B, C), here, val in _labelled(doc.get("comp", {}), 3, objs, f"{path}.comp")}
    invol = {(A, B): json_to_array(val, (dims[(B, A)], dims[(A, B)]), here)
             for (A, B), here, val in _labelled(doc.get("invol", {}), 2, objs, f"{path}.invol")}
    doc_units = _object(doc["units"], f"{path}.units", *objs)
    units = {A: json_to_array(doc_units[A], (dims[(A, A)],), f"{path}.units.{A}")
             for A in objs}
    return _construct(path, FiniteCStarCategory, objs, dims, comp, invol, units)


# ---------------------------------------------------------------------------
# spaceoids
# ---------------------------------------------------------------------------

def _point_ids(S: FiniteSpaceoid):
    """The id ``A|B|t|s`` of every point of ``S``, in point order."""
    return [f"{A}|{B}|{t}|{s}" for A, B in sorted(S.points) for t, s in S.points[(A, B)]]


def _pairs_to_json(z):
    """Every entry of the complex array ``z`` as an [re, im] pair."""
    return np.stack([z.real, z.imag], axis=-1).tolist()


def _repeats(keys):
    """Per entry of the list ``keys``, whether an earlier entry has the same
    key (compared as Python values: NumPy's strings drop trailing NULs)."""
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return np.fromiter(map(first.__getitem__, keys), np.int64, len(keys)) != np.arange(len(keys))


def _raise_first(checks):
    """Raise the ``SchemaError`` of the first entry in document order that
    fails a check, naming the first check it fails.  ``checks`` are
    ``(fails, path(k), message(k))`` in the order an entry is checked, each
    ``fails`` an array over the entries, nonzero where entry ``k`` fails."""
    faults = []
    for order, (fails, _, _) in enumerate(checks):
        at = np.flatnonzero(fails)
        if at.size:
            faults.append((int(at[0]), order))
    if faults:
        k, order = min(faults)
        _, path_of, message_of = checks[order]
        raise SchemaError(path_of(k), message_of(k))


def spaceoid_to_json(S: FiniteSpaceoid):
    ids, nu = _point_ids(S), _pairs_to_json(S._nu)
    rows = np.lexsort((S._q, S._p))  # by (p, q), the order of the handle pairs
    return {
        "objects": list(S.objects),
        "base_sets": {A: list(S.base_sets[A]) for A in S.objects},
        "points": {_pair_key(A, B): [{"id": ids[k], "t": t, "s": s, "nu": nu[k]}
                                     for k, (t, s) in enumerate(pts, S._offset[(A, B)])]
                   for (A, B), pts in sorted(S.points.items())},
        "phases": [{"p": ids[p], "q": ids[q], "c": c} for p, q, c in
                   zip(S._p[rows].tolist(), S._q[rows].tolist(), _pairs_to_json(S._c[rows]))],
    }


def spaceoid_from_json(doc, path="spaceoid"):
    """A spaceoid document read field by field, each field as one column.

    An error names the first offending entry in document order and, at that
    entry, the first check it fails: a point entry is checked for its
    fields, a duplicate id, then ``nu``; a phase entry for its fields, an
    unknown ``p``, an unknown ``q``, adjacency, ``c``, then a pair of points
    an earlier entry already gave a phase."""
    _object(doc, path, "objects", "base_sets")
    objs = _object_labels(doc["objects"], f"{path}.objects")
    base_sets = _object(doc["base_sets"], f"{path}.base_sets", *objs)
    base = {}
    for A in objs:
        labels = base_sets[A]
        _expect(isinstance(labels, list) and labels, f"{path}.base_sets.{A}",
                "expected nonempty list")
        base[A] = [str(x) for x in labels]

    # the point entries of every Hom-set, in document order; a fault in a
    # Hom-set key is raised once the entries before it pass
    spans, entries, key_fault = [], [], None
    try:
        for (A, B), key_path, lst in _labelled(doc.get("points", {}), 2, objs, f"{path}.points"):
            _expect(A != B, key_path, "diagonal points are implicit")
            _expect(isinstance(lst, list), key_path, "expected list")
            spans.append((A, B, key_path, len(entries)))
            entries += lst
    except SchemaError as exc:
        key_fault = exc
    starts = [lo for *_, lo in spans]

    def at_point(k):
        _, _, key_path, lo = spans[bisect_right(starts, k) - 1]
        return f"{key_path}[{k - lo}]"

    shaped = np.array([isinstance(e, dict) and "id" in e and "t" in e and "s" in e
                       for e in entries], dtype=bool)
    good = entries[:np.argmin(shaped)] if not shaped.all() else entries
    ids = [str(e["id"]) for e in good]
    again = _repeats(ids)
    with_nu = [k for k, e in enumerate(good) if "nu" in e]
    nu, fault = _complex_pairs([good[k]["nu"] for k in with_nu])
    nu_fault = np.zeros(len(good), dtype=np.int8)
    nu_fault[with_nu] = fault
    _raise_first([(~shaped, at_point, lambda k: "expected {id, t, s[, nu]}"),
                  (again, at_point, lambda k: f"duplicate point id '{ids[k]}'"),
                  (nu_fault, lambda k: f"{at_point(k)}.nu", lambda k: _PAIR_RULES[nu_fault[k]])])
    if key_fault:
        raise key_fault

    bounds = starts + [len(entries)]
    t, s = [str(e["t"]) for e in entries], [str(e["s"]) for e in entries]
    points = {(A, B): list(zip(t[lo:hi], s[lo:hi]))
              for (A, B, _, lo), hi in zip(spans, bounds[1:])}
    handles = [(A, B, i) for (A, B, _, lo), hi in zip(spans, bounds[1:]) for i in range(hi - lo)]
    number = dict(zip(ids, range(len(ids))))
    index = {A: a for a, A in enumerate(objs)}
    counts = np.diff(bounds)
    tgt_obj = np.repeat(np.array([index[A] for A, *_ in spans], dtype=np.int64), counts)
    src_obj = np.repeat(np.array([index[B] for _, B, *_ in spans], dtype=np.int64), counts)

    phases = doc.get("phases", [])
    _expect(isinstance(phases, list), f"{path}.phases", "expected list")
    shaped = np.array([isinstance(e, dict) and "p" in e and "q" in e and "c" in e
                       for e in phases], dtype=bool)
    good = phases[:np.argmin(shaped)] if not shaped.all() else phases
    p = [number.get(str(e["p"]), -1) for e in good]
    q = [number.get(str(e["q"]), -1) for e in good]
    pa, qa = np.array(p, dtype=np.int64), np.array(q, dtype=np.int64)
    known = (pa >= 0) & (qa >= 0)
    apart = np.zeros(len(good), dtype=bool)
    apart[known] = src_obj[pa[known]] != tgt_obj[qa[known]]
    c, c_fault = _complex_pairs([e["c"] for e in good])
    again = _repeats(list(zip(p, q)))

    def at_phase(k):
        return f"{path}.phases[{k}]"

    _raise_first([(~shaped, at_phase, lambda k: "expected {p, q, c}"),
                  (pa < 0, lambda k: f"{at_phase(k)}.p",
                   lambda k: f"unknown point id '{good[k]['p']}'"),
                  (qa < 0, lambda k: f"{at_phase(k)}.q",
                   lambda k: f"unknown point id '{good[k]['q']}'"),
                  (apart, at_phase, lambda k: "phase pair is not adjacent"),
                  (c_fault, lambda k: f"{at_phase(k)}.c", lambda k: _PAIR_RULES[c_fault[k]]),
                  (again, at_phase, lambda k: "duplicate phase pair")])

    nu = dict(zip(map(handles.__getitem__, with_nu), nu.tolist()))
    cphase = dict(zip(zip(map(handles.__getitem__, p), map(handles.__getitem__, q)),
                      c.tolist()))
    return _construct(path, FiniteSpaceoid, objs, base, points, nu, cphase)


# ---------------------------------------------------------------------------
# bimodules
# ---------------------------------------------------------------------------

def _algebra_to_json(alg: FiniteCStarCategory):
    lbl = alg.objects[0]
    return {
        "dim": alg.dim(lbl, lbl),
        "comp": array_to_json(alg.comp[(lbl, lbl, lbl)]),
        "invol": array_to_json(alg.invol[(lbl, lbl)]),
        "unit": array_to_json(alg.unit(lbl)),
    }


def _algebra_from_json(doc, label, path):
    _object(doc, path, "dim", "comp", "invol", "unit")
    d = doc["dim"]
    _expect(type(d) is int and d >= 1, f"{path}.dim", "expected positive integer")
    comp = json_to_array(doc["comp"], (d, d, d), f"{path}.comp")
    invol = json_to_array(doc["invol"], (d, d), f"{path}.invol")
    unit = json_to_array(doc["unit"], (d,), f"{path}.unit")
    return one_object_category(comp, invol, unit, label)


def bimodule_to_json(M: HilbertBimodule):
    return {
        "algA": _algebra_to_json(M.algA),
        "algB": _algebra_to_json(M.algB),
        "module_dim": M.module_dim,
        "left_action": array_to_json(M.left_action),
        "right_action": array_to_json(M.right_action),
        "ipA": array_to_json(M.ipA),
        "ipB": array_to_json(M.ipB),
    }


def bimodule_from_json(doc, path="bimodule"):
    _object(doc, path, "algA", "algB", "module_dim", "left_action", "right_action",
            "ipA", "ipB")
    algA = _algebra_from_json(doc["algA"], "algA", f"{path}.algA")
    algB = _algebra_from_json(doc["algB"], "algB", f"{path}.algB")
    m = doc["module_dim"]
    _expect(type(m) is int and m >= 0, f"{path}.module_dim",
            "expected nonnegative integer")
    da = algA.dim("algA", "algA")
    db = algB.dim("algB", "algB")
    return _construct(
        path, HilbertBimodule, algA, algB, m,
        json_to_array(doc["left_action"], (da, m, m), f"{path}.left_action"),
        json_to_array(doc["right_action"], (m, db, m), f"{path}.right_action"),
        json_to_array(doc["ipA"], (m, m, da), f"{path}.ipA"),
        json_to_array(doc["ipB"], (m, m, db), f"{path}.ipB"))


# ---------------------------------------------------------------------------
# functors and morphisms
# ---------------------------------------------------------------------------

def functor_to_json(F: StarFunctor):
    return {
        "kind": "star_functor",
        "source": category_to_json(F.source),
        "target": category_to_json(F.target),
        "obj_map": dict(F.obj_map),
        "hom_maps": {
            _pair_key(A, B): array_to_json(H)
            for (A, B), H in sorted(F.hom_maps.items()) if H.size
        },
    }


def functor_from_json(doc, path="functor"):
    _object(doc, path, "source", "target", "obj_map", "hom_maps")
    _expect(doc.get("kind") == "star_functor", f"{path}.kind", "expected 'star_functor'")
    src = category_from_json(doc["source"], f"{path}.source")
    tgt = category_from_json(doc["target"], f"{path}.target")
    obj_map = _obj_map(doc["obj_map"], src, tgt, f"{path}.obj_map")
    _expect(sorted(obj_map.values()) == sorted(tgt.objects), f"{path}.obj_map",
            "values must enumerate the target objects")
    given = {AB: val for AB, _, val in
             _labelled(doc["hom_maps"], 2, src.objects, f"{path}.hom_maps")}
    homs = {}
    for A in src.objects:
        for B in src.objects:
            key = _pair_key(A, B)
            shape = (tgt.dim(obj_map[A], obj_map[B]), src.dim(A, B))
            _expect((A, B) in given or 0 in shape, f"{path}.hom_maps", f"missing '{key}'")
            homs[(A, B)] = json_to_array(given.get((A, B)), shape, f"{path}.hom_maps.{key}")
    return StarFunctor(src, tgt, obj_map, homs)


def morphism_to_json(m: SpaceoidMorphism):
    return {
        "kind": "spaceoid_morphism",
        "source": spaceoid_to_json(m.source),
        "target": spaceoid_to_json(m.target),
        "obj_map": dict(m.obj_map),
        "base_maps": {A: dict(m.base_maps[A]) for A in m.source.objects},
        "scalars": dict(zip(_point_ids(m.source), _pairs_to_json(np.array(
            [m.scalars.get(h, 1.0) for h in m.source._handles], dtype=complex)))),
    }


def morphism_from_json(doc, path="morphism"):
    _object(doc, path, "source", "target", "obj_map", "base_maps")
    _expect(doc.get("kind") == "spaceoid_morphism", f"{path}.kind",
            "expected 'spaceoid_morphism'")
    src = spaceoid_from_json(doc["source"], f"{path}.source")
    tgt = spaceoid_from_json(doc["target"], f"{path}.target")
    obj_map = _obj_map(doc["obj_map"], src, tgt, f"{path}.obj_map")
    doc_base_maps = _object(doc["base_maps"], f"{path}.base_maps", *src.objects)
    base_maps = {A: {str(k): str(v) for k, v in
                     _object(doc_base_maps[A], f"{path}.base_maps.{A}").items()}
                 for A in src.objects}
    given = _object(doc.get("scalars", {}), f"{path}.scalars")
    ids = dict(zip(_point_ids(src), range(len(src._handles))))
    keys = list(given)
    at = [ids.get(pid, -1) for pid in keys]
    z, fault = _complex_pairs(list(given.values()))

    def here(k):
        return f"{path}.scalars.{keys[k]}"

    _raise_first([(np.array(at, dtype=np.int64) < 0, here, lambda k: "unknown point id"),
                  (fault, here, lambda k: _PAIR_RULES[fault[k]])])
    scalars = dict(zip(map(src._handles.__getitem__, at), z.tolist()))
    return SpaceoidMorphism(src, tgt, obj_map, base_maps, scalars)


# ---------------------------------------------------------------------------
# gelfand data
# ---------------------------------------------------------------------------

def gelfand_to_json(G):
    return {
        "diag": {A: array_to_json(M) for A, M in sorted(G.diag.items())},
        "hom": {_pair_key(A, B): array_to_json(M)
                for (A, B), M in sorted(G.hat.items()) if M.size},
        "frames": {_pair_key(A, B): array_to_json(M)
                   for (A, B), M in sorted(G.frames.items()) if M.size},
    }


# ---------------------------------------------------------------------------
# document detection
# ---------------------------------------------------------------------------

def detect_kind(doc) -> str:
    if not isinstance(doc, dict):
        raise SchemaError("$", "top-level value must be an object")
    if doc.get("kind") in ("star_functor", "spaceoid_morphism"):
        return doc["kind"]
    if "dims" in doc:
        return "category"
    if "base_sets" in doc:
        return "spaceoid"
    if "algA" in doc:
        return "bimodule"
    raise SchemaError("$", "cannot determine document kind")


def load_document(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {exc.lineno} column {exc.colno}", exc.msg)
    except RecursionError:
        raise SchemaError("$", "document is nested too deeply")
    kind = detect_kind(doc)
    parser = {
        "category": category_from_json,
        "spaceoid": spaceoid_from_json,
        "bimodule": bimodule_from_json,
        "star_functor": functor_from_json,
        "spaceoid_morphism": morphism_from_json,
    }[kind]
    return kind, parser(doc)


def dump_json(doc) -> str:
    """``doc`` as one compact line with sorted keys, written by the C encoder."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
