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

def complex_to_json(z):
    z = complex(z)
    return [z.real, z.imag]

def array_to_json(a):
    """``a`` packed: base64 of its little-endian complex128 bytes in C order."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<c16").tobytes()).decode("ascii")

def _expect(cond, path, message):
    if not cond:
        raise SchemaError(path, message)

def json_to_complex(v, path):
    _expect(isinstance(v, (list, tuple)) and len(v) == 2, path,
            "expected [re, im] pair")
    _expect(all(type(x) in (int, float) for x in v), path, "re/im must be numbers")
    _expect(all(abs(x) <= _FLOAT_MAX for x in v), path, "entries must be finite")
    return complex(v[0], v[1])

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
    kinds = np.frompyfunc(type, 1, 1)(raw)
    wrong = (kinds != int) & (kinds != float)
    raw[wrong] = 0.0
    with np.errstate(invalid="ignore"):  # NaN compares false, as intended
        infinite = ~(np.abs(raw) <= _FLOAT_MAX)
    bad = np.argwhere(wrong.any(-1) | infinite.any(-1))
    if bad.size:
        here = f"{path}{bad[0].tolist()}"
        _expect(not wrong[tuple(bad[0])].any(), here, "re/im must be numbers")
        raise SchemaError(here, "entries must be finite")
    return raw.astype(float).view(complex).reshape(shape)


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

def point_id(S: FiniteSpaceoid, handle):
    A, B, _ = handle
    return f"{A}|{B}|{S.target(handle)}|{S.source(handle)}"


def spaceoid_to_json(S: FiniteSpaceoid):
    doc = {
        "objects": list(S.objects),
        "base_sets": {A: list(S.base_sets[A]) for A in S.objects},
        "points": {},
        "phases": [],
    }
    nu = S.nu
    for (A, B), pts in sorted(S.points.items()):
        doc["points"][_pair_key(A, B)] = [
            {"id": point_id(S, (A, B, i)), "t": t, "s": s,
             "nu": complex_to_json(nu[(A, B, i)])}
            for i, (t, s) in enumerate(pts)
        ]
    for (h1, h2), c in sorted(S.cphase.items()):
        doc["phases"].append({"p": point_id(S, h1), "q": point_id(S, h2),
                              "c": complex_to_json(c)})
    return doc


def spaceoid_from_json(doc, path="spaceoid"):
    _object(doc, path, "objects", "base_sets")
    objs = _object_labels(doc["objects"], f"{path}.objects")
    base_sets = _object(doc["base_sets"], f"{path}.base_sets", *objs)
    base = {}
    for A in objs:
        labels = base_sets[A]
        _expect(isinstance(labels, list) and labels, f"{path}.base_sets.{A}",
                "expected nonempty list")
        base[A] = [str(x) for x in labels]
    points = {}
    nu = {}
    ids = {}
    for (A, B), key_path, lst in _labelled(doc.get("points", {}), 2, objs, f"{path}.points"):
        _expect(A != B, key_path, "diagonal points are implicit")
        _expect(isinstance(lst, list), key_path, "expected list")
        pts = []
        for i, entry in enumerate(lst):
            here = f"{key_path}[{i}]"
            _expect(isinstance(entry, dict) and {"id", "t", "s"} <= set(entry),
                    here, "expected {id, t, s[, nu]}")
            pid = str(entry["id"])
            _expect(pid not in ids, here, f"duplicate point id '{pid}'")
            ids[pid] = (A, B, i)
            pts.append((str(entry["t"]), str(entry["s"])))
            if "nu" in entry:
                nu[(A, B, i)] = json_to_complex(entry["nu"], f"{here}.nu")
        points[(A, B)] = pts
    phases = doc.get("phases", [])
    _expect(isinstance(phases, list), f"{path}.phases", "expected list")
    cphase = {}
    for n, entry in enumerate(phases):
        here = f"{path}.phases[{n}]"
        _expect(isinstance(entry, dict) and {"p", "q", "c"} <= set(entry),
                here, "expected {p, q, c}")
        for which in ("p", "q"):
            _expect(str(entry[which]) in ids, f"{here}.{which}",
                    f"unknown point id '{entry[which]}'")
        h1, h2 = ids[str(entry["p"])], ids[str(entry["q"])]
        _expect(h1[1] == h2[0], here, "phase pair is not adjacent")
        cphase[(h1, h2)] = json_to_complex(entry["c"], f"{here}.c")
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
        "scalars": {
            point_id(m.source, h): complex_to_json(m.scalar(h))
            for h in m.source.all_points()
        },
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
    ids = {point_id(src, h): h for h in src.all_points()}
    scalars = {}
    for pid, val in _object(doc.get("scalars", {}), f"{path}.scalars").items():
        _expect(pid in ids, f"{path}.scalars.{pid}", "unknown point id")
        scalars[ids[pid]] = json_to_complex(val, f"{path}.scalars.{pid}")
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
