"""Per-entry references for the array-backed spaceoid code paths.

``spaceoid_from_json`` and ``morphism_from_json`` read one JSON entry at a
time and ``components`` is a union-find over base nodes: the readers and the
component walk as they were before the spaceoid path worked on whole
columns.  Tests compare the column code against them on every valid and
every mutated document they build.
"""

from cstardual.errors import InvalidSpaceoid, SchemaError
from cstardual.jsonio import (_construct, _FLOAT_MAX, _labelled, _obj_map, _object,
                              _object_labels)
from cstardual.spaceoid import Component, FiniteSpaceoid, SpaceoidMorphism


def _expect(cond, path, message):
    if not cond:
        raise SchemaError(path, message)


def json_to_complex(v, path):
    _expect(isinstance(v, (list, tuple)) and len(v) == 2, path,
            "expected [re, im] pair")
    _expect(all(type(x) in (int, float) for x in v), path, "re/im must be numbers")
    _expect(all(abs(x) <= _FLOAT_MAX for x in v), path, "entries must be finite")
    return complex(v[0], v[1])


def point_id(S, handle):
    A, B, _ = handle
    return f"{A}|{B}|{S.target(handle)}|{S.source(handle)}"


def spaceoid_from_json(doc, path="spaceoid"):
    """The per-entry reader; a repeated phase pair keeps its last entry."""
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


def components(S):
    """``S.components()`` by union-find: the root of a component is its least
    (object label, base label)."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for A in S.objects:
        for x in S.base_sets[A]:
            parent[(A, x)] = (A, x)
    for A, B in S.points:
        for t, s in S.points[(A, B)]:
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
    for h in S.all_points():
        comps[find((h[0], S.target(h)))].points[h[:2]] = h
    return list(comps.values())
