"""Spaceoid and morphism documents read, numbered, checked and written by
columns, against the per-entry references in ``spaceoid_reference``.

A reader must raise the reference's ``SchemaError`` text, or build a
spaceoid whose point and pair-table arrays are bit-identical to the
reference's; the one intended difference is a repeated phase pair, which
the reference silently overwrites and the column reader rejects.
"""

import contextlib
import copy
import io
import itertools
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import spaceoid_reference as ref
from cstardual import jsonio, spaceoid
from cstardual.cli import main
from cstardual.errors import InvalidSpaceoid, SchemaError
from cstardual.generators import GenParams, gen_morphism_pair, gen_spaceoid
from cstardual.rng import Xoshiro256StarStar
from cstardual.spaceoid import FiniteSpaceoid, apply_gauge, validate_spaceoid

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
ARRAYS = ("_tobj", "_sobj", "_tlab", "_slab", "_nu", "_c", "_p", "_q", "_r", "_star")
WHERE = ("first", "middle", "last")
BIG = sys.float_info.max


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def linked_spaceoid(objects, base_sets, links, seed=None):
    """Spaceoid with the points of every pair of objects in each of ``links``
    (each: object -> base point), and every unit frame rescaled by a phase
    drawn from ``seed`` when one is given."""
    points = {}
    for link in links:
        for A, B in itertools.permutations(link, 2):
            points.setdefault((A, B), []).append((link[A], link[B]))
    S = FiniteSpaceoid(objects, base_sets, points)
    if seed is None:
        return S
    rng = Xoshiro256StarStar(seed)
    return apply_gauge(S, {h: rng.phase() for h in S.all_points()})


def tangled_spaceoid(seed=3):
    """Objects declared out of string order, base labels whose string order
    differs from their declared order, and components of every size."""
    base = {"B": ["x2", "x10", "x1"], "A": ["y10", "y2", "y1"], "C": ["z2", "z10", "z1"]}
    links = [{"B": "x2", "A": "y10", "C": "z1"}, {"B": "x10", "A": "y2"},
             {"A": "y1", "C": "z10"}, {"B": "x1", "C": "z2"}]
    return linked_spaceoid(["B", "A", "C"], base, links, seed)


def generated(k):
    return GenParams(seed=k, n_objects=1 + k % 5, max_base=1 + (k // 5) % 6,
                     edge_density=(k % 11) / 10.0,
                     phase_mode="random" if k % 3 else "trivial")


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """``bench(workload, seed)``: the five documents the benchmark's set-up
    writes for ``workload`` at ``seed``, by name, as parsed JSON."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    built = {}

    def documents(workload, seed):
        if (workload, seed) not in built:
            inst = workloads.Instance(workload, seed, tmp_path_factory.mktemp(workload))
            built[workload, seed] = {name: json.loads(path.read_text())
                                     for name, path in inst.paths.items()}
        return built[workload, seed]
    return documents


# ---------------------------------------------------------------------------
# comparison with the references
# ---------------------------------------------------------------------------

def outcome(reader, doc):
    """``reader(doc)`` on a copy of ``doc``, or its ``SchemaError`` text."""
    try:
        return reader(copy.deepcopy(doc))
    except SchemaError as exc:
        return str(exc)


def assert_same_spaceoid(S1, S2):
    assert (S1.objects, S1.base_sets, S1.points) == (S2.objects, S2.base_sets, S2.points)
    for name in ARRAYS:
        a, b = getattr(S1, name), getattr(S2, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def scalar_bits(m):
    return list(m.scalars), np.array(list(m.scalars.values()), dtype=complex).tobytes()


def assert_same_outcome(doc, kind="spaceoid"):
    new, old = {"spaceoid": (jsonio.spaceoid_from_json, ref.spaceoid_from_json),
                "morphism": (jsonio.morphism_from_json, ref.morphism_from_json)}[kind]
    got, want = outcome(new, doc), outcome(old, doc)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
    elif kind == "spaceoid":
        assert_same_spaceoid(got, want)
    else:
        assert_same_spaceoid(got.source, want.source)
        assert_same_spaceoid(got.target, want.target)
        assert (got.obj_map, got.base_maps) == (want.obj_map, want.base_maps)
        assert scalar_bits(got) == scalar_bits(want)
    return got


# ---------------------------------------------------------------------------
# the mutation corpus
# ---------------------------------------------------------------------------

# [re, im] values: every rule of an [re, im] pair broken, then accepted
# values that take the checked path (ints, signed zeros, the extremes)
VALUES = {
    "short": [1.0], "long": [1.0, 0.0, 0.0], "number": 5, "string": "1", "null": None,
    "object": {"re": 1.0}, "bool-re": [True, 0.0], "bool-im": [0.0, False],
    "str-leaf": ["1", 0.0], "null-leaf": [0.0, None], "list-leaf": [[1.0], 0.0],
    "nan": [float("nan"), 0.0], "inf": [0.0, float("inf")], "-inf": [float("-inf"), 0.0],
    "huge-int": [10**400, 0], "-huge-int": [0, -10**400], "above-max-int": [int(BIG) + 1, 0],
    "int": [1, 0], "max-int": [int(BIG), -1], "neg-zero": [-0.0, 0.0], "extremes": [BIG, -5e-324],
    "big-int": [10**300, 0], "tuple": (0.6, 0.8),
}


def index(n, where):
    return {"first": 0, "middle": n // 2, "last": n - 1}[where]


def point_entries(doc):
    """(Hom-set key, index) of every point entry, in document order."""
    return [(key, i) for key, lst in doc["points"].items() for i in range(len(lst))]


def point_at(doc, where):
    key, i = point_entries(doc)[index(len(point_entries(doc)), where)]
    return doc["points"][key][i]


def replace_point(doc, where, value):
    key, i = point_entries(doc)[index(len(point_entries(doc)), where)]
    doc["points"][key][i] = value


def insert_key(mapping, where, key, value):
    """``mapping`` with ``key`` placed first, in the middle or last."""
    items = list(mapping.items())
    items.insert({"first": 0, "middle": len(items) // 2, "last": len(items)}[where], (key, value))
    mapping.clear()
    mapping.update(items)


def duplicate_id(doc, where, source):
    """The entry ``where`` (at least the second) takes the id of the entry
    before it, or of the first entry."""
    entries = point_entries(doc)
    k = max(1, index(len(entries), where))
    key, i = entries[0 if source == "first" else k - 1]
    target_key, j = entries[k]
    doc["points"][target_key][j]["id"] = doc["points"][key][i]["id"]


def hom_of(doc):
    """Point id -> its Hom-set (A, B)."""
    return {e["id"]: tuple(key.split("|")) for key, lst in doc["points"].items() for e in lst}


def not_adjacent(doc, where):
    """The phase ``where`` gets a first point whose source is not the
    target object of its second point."""
    homs, phase = hom_of(doc), doc["phases"][index(len(doc["phases"]), where)]
    phase["p"] = next(pid for pid, (_, B) in homs.items() if B != homs[phase["q"]][0])


def not_composing(doc, where):
    """The phase ``where`` gets a first point adjacent to its second point
    whose source label is not the target label of the second point."""
    homs = hom_of(doc)
    labels = {e["id"]: (e["t"], e["s"]) for lst in doc["points"].values() for e in lst}
    phase = doc["phases"][index(len(doc["phases"]), where)]
    B, t = homs[phase["q"]][0], labels[phase["q"]][0]
    phase["p"] = next(pid for pid, (_, B2) in homs.items() if B2 == B and labels[pid][1] != t)


def phase_at(doc, where):
    return doc["phases"][index(len(doc["phases"]), where)]


SPACEOID_MUTATIONS = {
    "point-not-object": lambda d, w: replace_point(d, w, 5),
    "point-no-id": lambda d, w: point_at(d, w).pop("id"),
    "point-no-t": lambda d, w: point_at(d, w).pop("t"),
    "point-no-s": lambda d, w: point_at(d, w).pop("s"),
    "point-no-nu": lambda d, w: point_at(d, w).pop("nu"),
    "point-number-id": lambda d, w: point_at(d, w).__setitem__("id", 12345),
    "duplicate-id-previous": lambda d, w: duplicate_id(d, w, "previous"),
    "duplicate-id-first": lambda d, w: duplicate_id(d, w, "first"),
    "nul-suffixed-id": lambda d, w: point_at(d, w).__setitem__(
        "id", d["points"][point_entries(d)[0][0]][0]["id"] + "\u0000"),
    "diagonal-key": lambda d, w: insert_key(d["points"], w, "A|A", []),
    "undeclared-key": lambda d, w: insert_key(d["points"], w, "A|Z", []),
    "three-label-key": lambda d, w: insert_key(d["points"], w, "A|B|C", []),
    "list-not-list": lambda d, w: d["points"].__setitem__(
        list(d["points"])[index(len(d["points"]), w)], {"id": "x"}),
    "points-not-object": lambda d, w: d.__setitem__("points", []),
    "phase-not-object": lambda d, w: d["phases"].__setitem__(
        index(len(d["phases"]), w), ["p", "q", "c"]),
    "phase-no-p": lambda d, w: phase_at(d, w).pop("p"),
    "phase-no-q": lambda d, w: phase_at(d, w).pop("q"),
    "phase-no-c": lambda d, w: phase_at(d, w).pop("c"),
    "unknown-p": lambda d, w: phase_at(d, w).__setitem__("p", "nowhere"),
    "unknown-q": lambda d, w: phase_at(d, w).__setitem__("q", "nowhere"),
    "unknown-both": lambda d, w: phase_at(d, w).update(p=7, q=["nowhere"]),
    "not-adjacent": not_adjacent,
    "not-composing": not_composing,
    "phases-not-list": lambda d, w: d.__setitem__("phases", {}),
}
for _name, _value in VALUES.items():
    SPACEOID_MUTATIONS[f"nu-{_name}"] = (
        lambda v: lambda d, w: point_at(d, w).__setitem__("nu", copy.deepcopy(v)))(_value)
    SPACEOID_MUTATIONS[f"c-{_name}"] = (
        lambda v: lambda d, w: phase_at(d, w).__setitem__("c", copy.deepcopy(v)))(_value)


def scalar_key(doc, where):
    return list(doc["scalars"])[index(len(doc["scalars"]), where)]


MORPHISM_MUTATIONS = {
    "scalar-unknown-id": lambda d, w: insert_key(d["scalars"], w, "A|B|nowhere|x", [1.0, 0.0]),
    "scalar-doc-id": lambda d, w: insert_key(d["scalars"], w, d["source"]["phases"][0]["p"] + "!",
                                             [1.0, 0.0]),
    "scalar-missing": lambda d, w: d["scalars"].pop(scalar_key(d, w)),
    "scalars-not-object": lambda d, w: d.__setitem__("scalars", [[1.0, 0.0]]),
    "source": lambda d, w: SPACEOID_MUTATIONS["unknown-q"](d["source"], w),
    "target": lambda d, w: SPACEOID_MUTATIONS["nu-nan"](d["target"], w),
}
for _name, _value in VALUES.items():
    MORPHISM_MUTATIONS[f"scalar-{_name}"] = (
        lambda v: lambda d, w: d["scalars"].__setitem__(scalar_key(d, w),
                                                        copy.deepcopy(v)))(_value)

# pairs of faults in one document: each in its own entry, or both in one
TWO_FAULTS = [
    (("nu-nan", "last"), ("unknown-p", "first")),
    (("unknown-p", "middle"), ("c-bool-re", "first")),
    (("c-bool-re", "middle"), ("unknown-q", "middle")),
    (("not-adjacent", "first"), ("c-huge-int", "first")),
    (("unknown-q", "first"), ("unknown-p", "first")),
    (("duplicate-id-first", "middle"), ("nu-string", "middle")),
    (("duplicate-id-previous", "last"), ("nu-short", "first")),
    (("point-no-t", "last"), ("diagonal-key", "last")),
    (("diagonal-key", "middle"), ("nu-null", "first")),
    (("list-not-list", "last"), ("point-no-id", "middle")),
    (("phase-no-c", "last"), ("not-composing", "first")),
    (("c-inf", "last"), ("not-composing", "middle")),
    (("nu-above-max-int", "middle"), ("phases-not-list", "first")),
    (("point-number-id", "first"), ("c-int", "last")),
]


@pytest.fixture(scope="module")
def spaceoid_doc():
    return jsonio.spaceoid_to_json(tangled_spaceoid())


@pytest.fixture(scope="module")
def morphism_doc():
    m1, _ = gen_morphism_pair(GenParams(seed=5, n_objects=3, max_base=3, edge_density=1.0,
                                        phase_mode="random"))
    return jsonio.morphism_to_json(m1)


class TestReaderParity:
    """Same error text, or bit-identical arrays, as the per-entry readers."""

    @pytest.mark.parametrize("where", WHERE)
    @pytest.mark.parametrize("name", sorted(SPACEOID_MUTATIONS))
    def test_spaceoid_mutation(self, spaceoid_doc, name, where):
        doc = copy.deepcopy(spaceoid_doc)
        SPACEOID_MUTATIONS[name](doc, where)
        assert_same_outcome(doc)

    @pytest.mark.parametrize("where", WHERE)
    @pytest.mark.parametrize("name", sorted(MORPHISM_MUTATIONS))
    def test_morphism_mutation(self, morphism_doc, name, where):
        doc = copy.deepcopy(morphism_doc)
        MORPHISM_MUTATIONS[name](doc, where)
        assert_same_outcome(doc, "morphism")

    @pytest.mark.parametrize("faults", TWO_FAULTS, ids=lambda f: "+".join(map("@".join, f)))
    def test_two_faults(self, spaceoid_doc, morphism_doc, faults):
        doc = copy.deepcopy(spaceoid_doc)
        for name, where in faults:
            SPACEOID_MUTATIONS[name](doc, where)
        assert isinstance(assert_same_outcome(doc), str)
        doc = copy.deepcopy(morphism_doc)
        for name, where in faults:
            SPACEOID_MUTATIONS[name](doc["source"], where)
        assert isinstance(assert_same_outcome(doc, "morphism"), str)

    def test_corpus_reaches_every_rule(self, spaceoid_doc, morphism_doc):
        """Every message either reader can raise is raised by some mutant."""
        seen = []
        for name, where in itertools.product(SPACEOID_MUTATIONS, WHERE):
            doc = copy.deepcopy(spaceoid_doc)
            SPACEOID_MUTATIONS[name](doc, where)
            seen.append(outcome(jsonio.spaceoid_from_json, doc))
        for name, where in itertools.product(MORPHISM_MUTATIONS, WHERE):
            doc = copy.deepcopy(morphism_doc)
            MORPHISM_MUTATIONS[name](doc, where)
            seen.append(outcome(jsonio.morphism_from_json, doc))
        rules = ["expected object", "expected list", "expected {id, t, s[, nu]}",
                 "duplicate point id", "diagonal points are implicit", "undeclared object",
                 "expected 2 '|'-separated labels", "expected {p, q, c}", "unknown point id",
                 "phase pair is not adjacent", "which do not compose", "expected [re, im] pair",
                 "re/im must be numbers", "entries must be finite"]
        texts = [text for text in seen if isinstance(text, str)]
        assert all(any(rule in text for text in texts) for rule in rules)
        assert all(any(rule in text for rule in rules) for text in texts)
        assert len(seen) - len(texts) >= 10  # accepted mutants

    @pytest.mark.parametrize("k", range(200))
    def test_generated_documents(self, k):
        """Generated spaceoids and morphisms: the same arrays as the
        reference reader, and the writer gives back the bytes it read."""
        doc = jsonio.spaceoid_to_json(gen_spaceoid(generated(k)))
        text = jsonio.dump_json(doc)
        S = assert_same_outcome(json.loads(text))
        assert jsonio.dump_json(jsonio.spaceoid_to_json(S)) == text
        m1, m2 = gen_morphism_pair(generated(k))
        for m in (m1, m2):
            text = jsonio.dump_json(jsonio.morphism_to_json(m))
            m_read = assert_same_outcome(json.loads(text), "morphism")
            assert jsonio.dump_json(jsonio.morphism_to_json(m_read)) == text

    def test_fixture_round_trip(self):
        text = (FIXTURES / "e1_spaceoid.json").read_text()
        S = assert_same_outcome(json.loads(text))
        assert jsonio.dump_json(jsonio.spaceoid_to_json(S)) == jsonio.dump_json(json.loads(text))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("workload", ["wide", "mesh", "sheaf"])
    def test_benchmark_documents(self, bench, workload, seed):
        """All five documents of a benchmark instance read and write back
        their bytes; the spaceoid and morphism read as the references do."""
        writers = {"category": jsonio.category_to_json, "spaceoid": jsonio.spaceoid_to_json,
                   "bimodule": jsonio.bimodule_to_json, "star_functor": jsonio.functor_to_json,
                   "spaceoid_morphism": jsonio.morphism_to_json}
        for name, doc in bench(workload, seed).items():
            text = jsonio.dump_json(doc)
            kind, value = jsonio.load_document(text)
            if name in ("spaceoid", "morphism"):
                assert_same_outcome(json.loads(text), name)
            assert jsonio.dump_json(writers[kind](value)) == text, name

    def test_writer_phase_order(self):
        """Phases are written sorted by the handles of their points, which
        is not the pair table's order when objects are declared out of
        string order."""
        S = tangled_spaceoid()
        pairs = list(zip(S._p.tolist(), S._q.tolist()))
        assert pairs != sorted(pairs)
        ids = jsonio._point_ids(S)
        written = [(ids.index(e["p"]), ids.index(e["q"]))
                   for e in jsonio.spaceoid_to_json(S)["phases"]]
        assert written == sorted(pairs)
        assert [S._handles.index(h) for h in sorted(S._handles)] == list(range(len(S._handles)))


class TestDuplicatePhasePair:
    DOC = {"objects": ["A", "B"], "base_sets": {"A": ["a"], "B": ["b"]},
           "points": {"A|B": [{"id": "p", "t": "a", "s": "b"}],
                      "B|A": [{"id": "q", "t": "b", "s": "a"}]},
           "phases": [{"p": "p", "q": "q", "c": [1, 0]}, {"p": "p", "q": "q", "c": [0, 1]}]}

    def test_second_entry_rejected(self):
        with pytest.raises(SchemaError) as err:
            jsonio.spaceoid_from_json(copy.deepcopy(self.DOC))
        assert str(err.value) == "spaceoid.phases[1]: duplicate phase pair"
        # the per-entry reader kept the second entry and dropped the first
        S = ref.spaceoid_from_json(copy.deepcopy(self.DOC))
        assert S.c(("A", "B", 0), ("B", "A", 0)) == 1j

    def test_checked_after_the_entry_fields(self):
        doc = copy.deepcopy(self.DOC)
        doc["phases"][1]["c"] = [True, 0]
        with pytest.raises(SchemaError) as err:
            jsonio.spaceoid_from_json(doc)
        assert str(err.value) == "spaceoid.phases[1].c: re/im must be numbers"

    def test_cli_exit_code(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(self.DOC))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(["validate", "--input", str(path)]) == 1
        assert "spaceoid.phases[1]: duplicate phase pair" in err.getvalue()


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def component_items(comps):
    """Components with the order of their dicts made visible."""
    return [(c.objects, list(c.diag.items()), list(c.points.items())) for c in comps]


def components_or_error(components, S):
    try:
        return component_items(components(S))
    except InvalidSpaceoid as exc:
        return str(exc)


def holonomy(report):
    """The ``holonomy_trivial`` record of a report: (ran, ok, witness)."""
    failures = [f.witness for f in report.failures if f.check == "holonomy_trivial"]
    return "holonomy_trivial" in report.checks_run, not failures, failures


def random_points(rng, objects, base_sets, n):
    """``n`` random off-diagonal points, each with its inverse."""
    points = {}
    for _ in range(n):
        A, B = rng.sample(list(objects), 2)
        (t,), (s,) = rng.sample(base_sets[A], 1), rng.sample(base_sets[B], 1)
        points.setdefault((A, B), []).append((t, s))
        points.setdefault((B, A), []).append((s, t))
    return points


class TestComponents:
    """Roots by min-label propagation against the union-find reference."""

    @pytest.mark.parametrize("k", range(100))
    def test_generated(self, k):
        S = gen_spaceoid(generated(k))
        want = components_or_error(ref.components, S)
        assert components_or_error(FiniteSpaceoid.components, S) == want
        assert holonomy(validate_spaceoid(S)) == (True, True, [])

    def test_string_order_differs_from_declared_order(self):
        S = tangled_spaceoid()
        got = components_or_error(FiniteSpaceoid.components, S)
        assert got == components_or_error(ref.components, S)
        # roots are least as (object label, base label) strings
        # roots ('A', 'y1') < ('A', 'y10') < ('A', 'y2') < ('B', 'x1'); each
        # diag in declared object order
        assert [objs for objs, _, _ in got] == [("A", "C"), ("A", "B", "C"), ("A", "B"),
                                                ("B", "C")]
        assert [diag for _, diag, _ in got][:2] == [[("A", "y1"), ("C", "z10")],
                                                   [("B", "x2"), ("A", "y10"), ("C", "z1")]]

    @pytest.mark.parametrize("links, message", [
        # B: x2 and x10 in one component, reached from A: y1
        ([{"B": "x2", "A": "y1"}, {"A": "y1", "B": "x10"}],
         "component at ('A', 'y1') holds two base points of one object"),
        # two bad components, rooted at ('A', 'y2') and ('A', 'y1'): the
        # least root is named, though its links are listed last and A
        # declares y10 before y1
        ([{"B": "x2", "A": "y2"}, {"A": "y2", "B": "x1"},
          {"B": "x10", "A": "y10"}, {"A": "y10", "C": "z2"}, {"C": "z2", "A": "y1"}],
         "component at ('A', 'y1') holds two base points of one object"),
        # a chain through C: B: x10 and x2 meet with no point of A
        ([{"B": "x10", "C": "z1"}, {"C": "z1", "B": "x2"}],
         "component at ('B', 'x10') holds two base points of one object"),
    ])
    def test_two_base_points_of_one_object(self, links, message):
        base = {"B": ["x2", "x10", "x1"], "A": ["y10", "y2", "y1"], "C": ["z2", "z10", "z1"]}
        S = linked_spaceoid(["B", "A", "C"], base, links)
        assert components_or_error(ref.components, S) == message
        assert components_or_error(FiniteSpaceoid.components, S) == message
        with pytest.raises(InvalidSpaceoid, match=message.replace("(", r"\(").replace(")", r"\)")):
            S._roots()

    @pytest.mark.parametrize("k", range(60))
    def test_random_point_sets(self, k):
        """Points drawn at random, most holding two base points of one object."""
        rng = Xoshiro256StarStar(k)
        objects = ["D", "B", "C", "A"][: 2 + k % 3]
        base = {A: [f"{A.lower()}{j}" for j in rng.sample(range(12), 1 + k % 4)] for A in objects}
        S = FiniteSpaceoid(objects, base, random_points(rng, objects, base, 1 + k % 5))
        assert components_or_error(FiniteSpaceoid.components, S) == \
            components_or_error(ref.components, S)
        report = validate_spaceoid(S)
        ran, ok, witness = holonomy(report)
        if ran:
            want = components_or_error(ref.components, S)
            assert (ok, witness) == ((True, []) if isinstance(want, list) else (False, [want]))


# ---------------------------------------------------------------------------
# work per read on the sheaf-shaped document
# ---------------------------------------------------------------------------

def calls_in(module, run):
    """Calls of each code object of ``module`` while ``run()`` runs; a
    comprehension is one call, a generator one per item it yields."""
    calls = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == module.__file__:
            calls[code.co_name, code.co_firstlineno] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


class TestSheafDocumentCallCounts:
    """On the benchmark's ``sheaf`` spaceoid document at seed 1 (368 points,
    1928 phases, 80 base points, 56 nonempty Hom-sets) and its morphism
    document, reading, numbering and checking make no Python call per point
    or phase.  The per-entry code checked each
    ``[re, im]`` pair in its own call (2296 calls on the spaceoid, 4960 on
    the morphism), numbered each handle in its own call (4224), and
    ``validate_spaceoid`` walked ``components()`` once."""

    HOM_SETS = 56

    @pytest.fixture(scope="class")
    def documents(self, bench):
        return bench("sheaf", 1)

    def test_sizes(self, documents):
        doc = documents["spaceoid"]
        assert sum(map(len, doc["points"].values())) == 368 and len(doc["phases"]) == 1928
        assert sum(map(len, doc["base_sets"].values())) == 80
        assert sum(1 for lst in doc["points"].values() if lst) == self.HOM_SETS

    @pytest.mark.parametrize("kind", ["spaceoid", "morphism"])
    def test_no_read_call_per_entry(self, documents, kind):
        """The schema checks of a Hom-set key (its labels, its list) are a
        few calls each; nothing is called per point, phase or scalar."""
        doc = copy.deepcopy(documents[kind])
        read = {"spaceoid": jsonio.spaceoid_from_json, "morphism": jsonio.morphism_from_json}[kind]
        spaceoids = [doc] if kind == "spaceoid" else [doc["source"], doc["target"]]
        keys = sum(len(d["points"]) for d in spaceoids)
        calls = calls_in(jsonio, lambda: read(doc))
        assert max(calls.values()) <= 6 * keys, calls

    def test_no_numbering_call_per_handle(self, documents):
        args = {}

        class Capture(FiniteSpaceoid):
            def __init__(self, *a):
                args["a"] = a
                super().__init__(*a)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jsonio, "FiniteSpaceoid", Capture)
            jsonio.spaceoid_from_json(copy.deepcopy(documents["spaceoid"]))
        objects, base, points, nu, cphase = args["a"]
        assert len(nu) == 368 and len(cphase) == 1928
        calls = calls_in(spaceoid, lambda: FiniteSpaceoid(objects, base, points, nu, cphase))
        assert max(calls.values()) <= self.HOM_SETS, calls

    def test_validate_walks_no_components(self, documents, monkeypatch):
        S = jsonio.spaceoid_from_json(copy.deepcopy(documents["spaceoid"]))
        calls = Counter()
        components = FiniteSpaceoid.components

        def counting(self):
            calls["components"] += 1
            return components(self)

        monkeypatch.setattr(FiniteSpaceoid, "components", counting)
        assert validate_spaceoid(S).ok and calls == {}
