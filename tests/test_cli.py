import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cstardual import duality, jsonio
from cstardual.cli import main
from cstardual.errors import SchemaError
from cstardual.generators import (GenParams, _transport_category, gen_category,
                                  gen_morphism_pair, gen_spaceoid, scramble_category)
from cstardual.cstarcat import (FiniteCStarCategory, StarFunctor, check_star_functor,
                                identity_functor)
from cstardual.functors import sections_category, spectral_spaceoid
from cstardual.rng import Xoshiro256StarStar
from cstardual.spaceoid import FiniteSpaceoid

from conftest import conditioned_category
from test_functors import perturbed_category


@pytest.fixture
def footnote_file(tmp_path, footnote_category):
    path = tmp_path / "footnote.json"
    path.write_text(jsonio.dump_json(jsonio.category_to_json(footnote_category)))
    return path


@pytest.fixture
def e1_file(tmp_path, e1_spaceoid):
    path = tmp_path / "e1.json"
    path.write_text(jsonio.dump_json(jsonio.spaceoid_to_json(e1_spaceoid)))
    return path


# a (2, 2) tensor of [re, im] pairs, mixing int and float leaves
TENSOR = [[[1.5, -2], [0.25, 3]], [[-4, 0.5], [6, -0.125]]]


def _tensor_with(index, text):
    """``TENSOR`` as JSON text, with the node at ``index`` replaced by ``text``."""
    doc = json.loads(json.dumps(TENSOR))
    node = doc
    for i in index[:-1]:
        node = node[i]
    node[index[-1]] = "@"
    return json.dumps(doc).replace('"@"', text)


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
TO_JSON = {"category": jsonio.category_to_json, "spaceoid": jsonio.spaceoid_to_json,
           "bimodule": jsonio.bimodule_to_json}

# ``TENSOR`` as its (2, 2) complex array, its packed bytes and its packed text
TENSOR_ARRAY = np.array(TENSOR, dtype=float).view(complex)[..., 0]
RAW = TENSOR_ARRAY.astype("<c16").tobytes()
PACKED = base64.b64encode(RAW).decode("ascii")


def _packed_with(double, value):
    """``PACKED`` with the double at flat index ``double`` set to ``value``."""
    doubles = np.frombuffer(RAW, "<f8").copy()
    doubles[double] = value
    return base64.b64encode(doubles.tobytes()).decode("ascii")


def _exact_bytes(arrays):
    """Nonempty arrays keyed by ``|``-joined labels, as their packed bytes."""
    return {"|".join(k) if isinstance(k, tuple) else k: np.ascontiguousarray(M, "<c16").tobytes()
            for k, M in arrays.items() if M.size}


class TestJsonIo:
    def test_spaceoid_round_trip_exact(self, tmp_path):
        S = gen_spaceoid(GenParams(seed=12, n_objects=3, max_base=3,
                                   edge_density=0.8, phase_mode="random"))
        text = jsonio.dump_json(jsonio.spaceoid_to_json(S))
        kind, S2 = jsonio.load_document(text)
        assert kind == "spaceoid"
        assert S2.points == S.points
        assert all(S.nu[k] == S2.nu[k] for k in S.nu)
        assert all(S.cphase[k] == S2.cphase[k] for k in S.cphase)
        assert jsonio.dump_json(jsonio.spaceoid_to_json(S2)) == text

    def test_category_round_trip_exact(self):
        cat, _ = gen_category(GenParams(seed=3, n_objects=2, max_base=3,
                                        edge_density=0.9, scramble="unitary"))
        text = jsonio.dump_json(jsonio.category_to_json(cat))
        kind, cat2 = jsonio.load_document(text)
        assert kind == "category"
        assert all(np.array_equal(cat.comp[k], cat2.comp[k]) for k in cat.comp)
        assert jsonio.dump_json(jsonio.category_to_json(cat2)) == text

    def test_functor_round_trip(self, footnote_category):
        F = identity_functor(footnote_category)
        text = jsonio.dump_json(jsonio.functor_to_json(F))
        kind, F2 = jsonio.load_document(text)
        assert kind == "star_functor"
        assert F2.obj_map == F.obj_map

    def test_morphism_round_trip(self):
        m1, _ = gen_morphism_pair(GenParams(seed=4, n_objects=2, max_base=2,
                                            edge_density=0.9, phase_mode="random"))
        text = jsonio.dump_json(jsonio.morphism_to_json(m1))
        kind, m2 = jsonio.load_document(text)
        assert kind == "spaceoid_morphism"
        assert m2.obj_map == m1.obj_map
        for h in m1.source.all_points():
            assert m2.scalar(h) == pytest.approx(m1.scalar(h))

    def test_bimodule_round_trip(self, nonfull_bimodule):
        text = jsonio.dump_json(jsonio.bimodule_to_json(nonfull_bimodule))
        kind, M2 = jsonio.load_document(text)
        assert kind == "bimodule"
        assert np.array_equal(M2.ipA, nonfull_bimodule.ipA)

    def test_schema_error_paths(self):
        with pytest.raises(SchemaError) as err:
            jsonio.load_document('{"objects": ["A"], "dims": {"A|A": 1}}')
        assert "units" in str(err.value)
        with pytest.raises(SchemaError) as err:
            jsonio.load_document(
                '{"objects": ["A"], "dims": {"A|A": 1}, "units": {"A": [[1, "x"]]}}')
        assert "units" in str(err.value)

    def test_extreme_values_round_trip(self):
        # signed zero, the smallest subnormal, the largest double, and
        # integer-valued leaves written both as JSON ints and as floats
        big = 1.7976931348623157e308
        pairs = [[[[-0.0, 0.0], [5e-324, -0.0]], [[big, -5e-324], [3, 7]]],
                 [[[-2, 1.5], [0.0, -big]], [[1e16, 0], [-4.0, 2.0]]]]
        doc = {"objects": ["A"], "dims": {"A|A": 2},
               "comp": {"A|A|A": pairs},
               "invol": {"A|A": [[[1, 0], [0.0, -0.0]], [[0, 0], [1.0, 0.0]]]},
               "units": {"A": [[1, 0], [1.0, 0.0]]}}
        _, cat = jsonio.load_document(json.dumps(doc))
        text = jsonio.dump_json(jsonio.category_to_json(cat))
        _, cat2 = jsonio.load_document(text)
        assert jsonio.dump_json(jsonio.category_to_json(cat2)) == text
        want = np.array(pairs, dtype=float)
        for loaded in (cat, cat2):
            got = loaded.comp[("A", "A", "A")].view(float).reshape(want.shape)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("leaf", ["1.0", True, None], ids=["str", "bool", "null"])
    @pytest.mark.parametrize("part", [0, 1], ids=["re", "im"])
    def test_non_number_leaf_path(self, leaf, part):
        pairs = np.zeros((2, 2, 2, 2)).tolist()
        pairs[0][1][0][part] = leaf
        pairs[1][1][1][0] = "later"
        doc = {"objects": ["A"], "dims": {"A|A": 2}, "comp": {"A|A|A": pairs},
               "units": {"A": [[1.0, 0.0], [0.0, 0.0]]}}
        with pytest.raises(SchemaError) as err:
            jsonio.load_document(json.dumps(doc))
        assert str(err.value) == "category.comp.A|A|A[0, 1, 0]: re/im must be numbers"

    @pytest.mark.parametrize("text, outcome", [
        ('[[[1, 0], [2, 0], [3, 0]], [[4, 0]]]', "t: expected shape [2, 2, 2]"),
        (json.dumps([[[[x, 0] for x in p] for p in r] for r in TENSOR]),
         "t: expected shape [2, 2, 2]"),
        (_tensor_with((0, 1, 1), "[1, 2]"), "t[0, 1]: re/im must be numbers"),
        (_tensor_with((1, 0), '"ab"'), "t: expected shape [2, 2, 2]"),
        (_tensor_with((1, 1, 0), "true"), "t[1, 1]: re/im must be numbers"),
        (_tensor_with((0, 1, 1), '"1.5"'), "t[0, 1]: re/im must be numbers"),
        (_tensor_with((1, 0, 0), "null"), "t[1, 0]: re/im must be numbers"),
        (_tensor_with((0, 0, 1), str(10**30)),
         [[1.5, 1e30, 0.25, 3.0], [-4.0, 0.5, 6.0, -0.125]]),
        (_tensor_with((1, 1, 1), str(10**400)), "t[1, 1]: entries must be finite"),
        # rounds to the largest double, but exceeds it
        (_tensor_with((1, 0, 1), str(int(sys.float_info.max) + 1)),
         "t[1, 0]: entries must be finite"),
        (_tensor_with((0, 1), "[NaN, 0]"), "t[0, 1]: entries must be finite"),
        (_tensor_with((1, 1), "[1, -Infinity]"), "t[1, 1]: entries must be finite"),
        (_tensor_with((0, 1, 0), "-0.0"),
         [[1.5, -2.0, -0.0, 3.0], [-4.0, 0.5, 6.0, -0.125]]),
    ], ids=["ragged", "list-leaf-regular", "list-leaf-irregular", "str-pair", "bool",
            "str-leaf", "null-leaf", "big-int", "huge-int", "above-max-int", "nan",
            "infinity", "neg-zero"])
    def test_leaf_screen_outcome(self, text, outcome):
        if isinstance(outcome, str):
            with pytest.raises(SchemaError) as err:
                jsonio.json_to_array(json.loads(text), (2, 2), "t")
            assert str(err.value) == outcome
        else:
            got = jsonio.json_to_array(json.loads(text), (2, 2), "t").view(float)
            want = np.array(outcome)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("text, message", [
        (PACKED[:-1], "t: expected base64 text"),
        (base64.b64encode(RAW[:-1]).decode(), "t: expected 64 packed bytes, got 63"),
        (PACKED[:-8] + PACKED[-4:], "t: expected 64 packed bytes, got 61"),
        (PACKED[:-4] + "AAAA" + PACKED[-4:], "t: expected 64 packed bytes, got 67"),
        (PACKED + "AAAA", "t: expected base64 text"),
        (PACKED[:-2] + "=A", "t: expected base64 text"),
        (PACKED[:5] + "*" + PACKED[6:], "t: expected base64 text"),
        (PACKED[:5] + "\u00e9" + PACKED[6:], "t: expected base64 text"),
        (PACKED[:8] + " " + PACKED[8:], "t: expected base64 text"),
        (PACKED[:8] + "\n" + PACKED[8:], "t: expected base64 text"),
        ("", "t: expected 64 packed bytes, got 0"),
        (_packed_with(4, np.nan), "t[1, 0]: entries must be finite"),
        (_packed_with(3, np.inf), "t[0, 1]: entries must be finite"),
        (_packed_with(7, -np.inf), "t[1, 1]: entries must be finite"),
    ], ids=["truncated-char", "truncated-byte", "truncated-quantum", "extra-quantum",
            "quantum-after-padding", "bad-padding", "non-alphabet", "non-ascii", "space",
            "newline", "empty", "nan", "inf", "neg-inf"])
    def test_packed_mutant_rejected(self, text, message):
        with pytest.raises(SchemaError) as err:
            jsonio.json_to_array(text, (2, 2), "t")
        assert str(err.value) == message

    def test_packed_writer_layout(self):
        # views, real arrays and the other byte order all write C-order <c16 bytes
        for a in (TENSOR_ARRAY.T, TENSOR_ARRAY.real, np.arange(4.0).reshape(2, 2),
                  TENSOR_ARRAY.astype(">c16")):
            text = jsonio.array_to_json(a)
            assert text == jsonio.array_to_json(np.array(a, dtype="<c16", order="C"))
            assert base64.b64decode(text) == np.asarray(a, dtype="<c16").tobytes()
            got = jsonio.json_to_array(text, a.shape, "t")
            assert np.array_equal(got, a)
            assert got.flags.owndata and got.flags.writeable and got.dtype == complex

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_fixture_loads_same_from_packed_redump(self, name):
        text = (FIXTURES / name).read_text()
        kind, value = jsonio.load_document(text)
        packed = jsonio.dump_json(TO_JSON[kind](value))
        kind2, value2 = jsonio.load_document(packed)
        # packed text carries the bytes: equal text is bit-identical arrays
        assert kind2 == kind and jsonio.dump_json(TO_JSON[kind](value2)) == packed

    def test_valid_documents_skip_checked_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a valid document reached the checked path")
        docs = []
        for path in sorted(FIXTURES.glob("*.json")):
            kind, value = jsonio.load_document(path.read_text())
            docs.append(jsonio.dump_json(TO_JSON[kind](value)))
        assert docs
        cat, _ = gen_category(GenParams(seed=3, n_objects=3, scramble="invertible"))
        docs.append(jsonio.dump_json(jsonio.category_to_json(cat)))
        monkeypatch.setattr(jsonio, "_checked_array", refuse)
        for text in docs:  # packed tensors never reach the list reader
            jsonio.load_document(text)

    def test_malformed_json_position(self):
        with pytest.raises(SchemaError) as err:
            jsonio.load_document("{broken")
        assert "line 1" in str(err.value)


class TestCli:
    def test_validate_pass(self, footnote_file, capsys):
        assert main(["validate", "--input", str(footnote_file)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_failure_exit_two(self, tmp_path, c2_negative_square, capsys):
        path = tmp_path / "bad.json"
        path.write_text(jsonio.dump_json(jsonio.category_to_json(c2_negative_square)))
        assert main(["validate", "--input", str(path)]) == 2

    def test_spectrum_of_footnote(self, footnote_file, capsys):
        assert main(["--format", "json", "spectrum", "--input",
                     str(footnote_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["spaceoid"]["points"]["A|B"]) == 1

    def test_sections_of_e1(self, e1_file, capsys):
        assert main(["--format", "json", "sections", "--input", str(e1_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["category"]["dims"]["A|A"] == 2
        assert doc["category"]["dims"]["B|B"] == 3

    def test_roundtrip_generated(self, capsys):
        assert main(["--format", "json", "roundtrip", "--gen", "--seed", "7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True

    def test_roundtrip_from_file(self, e1_file, capsys):
        assert main(["roundtrip", "--input", str(e1_file)]) == 0

    def test_naturality_morphism(self, tmp_path, capsys):
        m1, _ = gen_morphism_pair(GenParams(seed=6, n_objects=2, max_base=2,
                                            edge_density=0.9, phase_mode="random"))
        path = tmp_path / "m.json"
        path.write_text(jsonio.dump_json(jsonio.morphism_to_json(m1)))
        assert main(["--format", "json", "naturality", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True

    def test_naturality_functor(self, tmp_path, footnote_category, capsys):
        path = tmp_path / "id.json"
        path.write_text(jsonio.dump_json(
            jsonio.functor_to_json(identity_functor(footnote_category))))
        assert main(["--format", "json", "naturality", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["side"] == "algebra" and doc["pass"] is True

    def test_naturality_degenerate_exit_three(self, tmp_path, footnote_embedding):
        path = tmp_path / "emb.json"
        path.write_text(jsonio.dump_json(jsonio.functor_to_json(footnote_embedding)))
        assert main(["--format", "json", "spectrum", "--input", str(path)]) == 3
        assert main(["--format", "json", "naturality", "--input", str(path)]) == 3

    def test_degenerate_message_names_the_matched_pair(self, tmp_path, capsys):
        # the footnote embedding plus a disjoint object C: the message names
        # the target's matched characters at A and B, and nothing at C
        bases = {"A": ["a"], "B": ["b"], "C": ["c"]}
        link = {("A", "B"): [("a", "b")], ("B", "A"): [("b", "a")]}
        src = sections_category(FiniteSpaceoid("ABC", bases, {}))
        tgt = sections_category(FiniteSpaceoid("ABC", bases, link))
        homs = {(A, B): np.eye(tgt.dim(A, B), src.dim(A, B)) for A, B in src.hom_pairs()}
        F = StarFunctor(src, tgt, {A: A for A in "ABC"}, homs)
        assert check_star_functor(F).ok
        path = tmp_path / "emb3.json"
        path.write_text(jsonio.dump_json(jsonio.functor_to_json(F)))
        assert main(["spectrum", "--input", str(path)]) == 3
        assert capsys.readouterr().err == (
            "degenerate functor: functional {'A': 0, 'B': 0} vanishes after "
            "pull-back on Hom(A,B)\n")

    @pytest.mark.parametrize("text, message", [
        # the NaN tensor here is one level short of shape (1, 1, 1, 2)
        ('{"objects": ["A"], "dims": {"A|A": 1}, '
         '"comp": {"A|A|A": [[[NaN, 0.0]]]}, '
         '"invol": {"A|A": [[[1.0, 0.0]]]}, '
         '"units": {"A": [[1.0, 0.0]]}}',
         "category.comp.A|A|A: expected shape [1, 1, 1, 2]"),
        ('{"objects": ["A"], "dims": {"A|A": 1}, '
         '"comp": {"A|A|A": [[[[NaN, 0.0]]]]}, '
         '"invol": {"A|A": [[[1.0, 0.0]]]}, '
         '"units": {"A": [[1.0, 0.0]]}}',
         "category.comp.A|A|A[0, 0, 0]: entries must be finite"),
        ('{"objects": ["A"], "dims": {"A|A": 1}, '
         '"comp": {"A|A|A": [[[[1.0, 1' + "0" * 400 + ']]]]}, '
         '"invol": {"A|A": [[[1.0, 0.0]]]}, '
         '"units": {"A": [[1.0, 0.0]]}}',
         "category.comp.A|A|A[0, 0, 0]: entries must be finite"),
        ('{"objects": ["A", "B"], "base_sets": {"A": ["a"], "B": ["b"]}, '
         '"points": {"A|B": [{"id": "p", "t": "a", "s": "b", "nu": [-1' + "0" * 400 + ', 0]}], '
         '"B|A": [{"id": "q", "t": "b", "s": "a"}]}}',
         "spaceoid.points.A|B[0].nu: entries must be finite"),
    ], ids=["nan-short-nesting", "nan", "big-int-leaf", "big-int-nu"])
    @pytest.mark.parametrize("command", ["validate", "sections"])
    def test_nonfinite_entries_rejected(self, tmp_path, capsys, text, message, command):
        path = tmp_path / "nan.json"
        path.write_text(text)
        assert main([command, "--input", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("kind, mutate, where", [
        ("category", lambda d: d.update(dims=[]), "category.dims"),
        ("category", lambda d: d.update(comp=[]), "category.comp"),
        ("category", lambda d: d.update(invol="A|B"), "category.invol"),
        ("category", lambda d: d.update(units=["A", "B"]), "category.units"),
        ("category", lambda d: d["comp"].update({"A|B|Z": [[[1.0, 0.0]]]}),
         "category.comp.A|B|Z"),
        ("category", lambda d: d["dims"].update({"A|Z": 1}), "category.dims.A|Z"),
        ("category", lambda d: d["dims"].update({"A|B": True}), "category.dims.A|B"),
        ("spaceoid", lambda d: d.update(base_sets=["A", "B"]), "spaceoid.base_sets"),
        ("spaceoid", lambda d: d.update(points=[]), "spaceoid.points"),
        ("spaceoid", lambda d: d.update(phases=5), "spaceoid.phases"),
        ("spaceoid", lambda d: d.update(points={"A|Z": [{"id": "p", "t": "1", "s": "q"}]}),
         "spaceoid.points.A|Z"),
        ("functor", lambda d: d.update(hom_maps=["A|A"]), "functor.hom_maps"),
        ("morphism", lambda d: d.update(base_maps=["A", "B"]), "morphism.base_maps"),
        ("morphism", lambda d: d.update(scalars=[]), "morphism.scalars"),
        ("morphism", lambda d: d["obj_map"].update(A=["A"]), "morphism.obj_map"),
    ], ids=["dims", "comp", "invol", "units", "comp-label", "dims-label", "dims-bool",
            "base-sets", "points", "phases", "points-label", "hom-maps", "base-maps",
            "scalars", "obj-map-value"])
    def test_malformed_document_rejected(self, tmp_path, capsys, footnote_category,
                                         e1_spaceoid, kind, mutate, where):
        m, _ = gen_morphism_pair(GenParams(seed=6, n_objects=2, max_base=2,
                                           edge_density=0.9, phase_mode="random"))
        doc = {"category": jsonio.category_to_json(footnote_category),
               "spaceoid": jsonio.spaceoid_to_json(e1_spaceoid),
               "functor": jsonio.functor_to_json(identity_functor(footnote_category)),
               "morphism": jsonio.morphism_to_json(m)}[kind]
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f" {where}: " in err

    def test_zero_dimensional_diagonal(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text('{"objects": ["A"], "dims": {"A|A": 0}, "units": {"A": []}}')
        assert main(["--format", "json", "validate", "--input", str(path)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert [f["check"] for f in doc["failures"]] == ["diagonal_semisimple"]
        assert main(["--format", "json", "spectrum", "--input", str(path)]) == 2
        assert "zero-dimensional" in capsys.readouterr().err

    def test_link_nonfull(self, tmp_path, nonfull_bimodule, capsys):
        path = tmp_path / "bimodule.json"
        path.write_text(jsonio.dump_json(jsonio.bimodule_to_json(nonfull_bimodule)))
        assert main(["--format", "json", "link", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["pairs"]) == 2
        assert doc["full_left"] is True and doc["full_right"] is False
        assert doc["inner_product_deviation"] <= 1e-9

    @pytest.mark.parametrize("dev, code", [(None, 0), (float("inf"), 2), (1e-3, 2)],
                             ids=["fixture", "singular", "far"])
    def test_link_exit_follows_deviation(self, monkeypatch, capsys, dev, code):
        if dev is not None:
            monkeypatch.setattr(duality, "check_bimodule_isomorphism", lambda *args: dev)
        path = str(FIXTURES / "nonfull_bimodule.json")
        assert main(["link", "--input", path]) == code
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("inner product deviation ")
        assert last.endswith(" FAIL") == (code == 2)
        assert main(["--format", "json", "link", "--input", path]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is (code == 0)
        assert doc["pass"] is (doc["inner_product_deviation"] <= doc["tolerance"])

    @pytest.mark.parametrize("command", ["spectrum", "sections", "link"])
    def test_json_tensors_are_packed(self, capsys, command):
        name = {"spectrum": "footnote_full", "sections": "e1_spaceoid",
                "link": "nonfull_bimodule"}[command]
        path = FIXTURES / f"{name}.json"
        assert main(["--format", "json", command, "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        _, value = jsonio.load_document(path.read_text())
        if command == "spectrum":
            _, G = spectral_spaceoid(value)
            got, want = out["gelfand"], {"diag": G.diag, "hom": G.hat, "frames": G.frames}
        elif command == "sections":
            cat = sections_category(value)
            got = out["category"]
            want = {"comp": cat.comp, "invol": cat.invol,
                    "units": {A: cat.unit(A) for A in cat.objects}}
        else:
            spec = duality.bimodule_spectrum(value)
            fields = ("iso", "left_characters", "right_characters")
            got = {"link": {f: out[f] for f in fields}}
            want = {"link": {f: getattr(spec, f) for f in fields}}
        for field, arrays in want.items():
            assert {k: base64.b64decode(v, validate=True) for k, v in got[field].items()} \
                == _exact_bytes(arrays)

    def test_ring_labels_sorting_out_of_index_order(self, tmp_path, capsys):
        # a 12-object ring, 2 base points per object, one link per edge:
        # O10 sorts before O2, O01..O12 sort in index order; both must pass
        # and give the same spectrum up to the relabelling
        counts = []
        for width in (1, 2):
            objs = [f"O{i:0{width}d}" for i in range(1, 13)]
            bases = {A: ["p0", "p1"] for A in objs}
            links = {}
            for A, B in zip(objs, objs[1:] + objs[:1]):
                links[(A, B)], links[(B, A)] = [("p1", "p0")], [("p0", "p1")]
            cat, _ = scramble_category(
                sections_category(FiniteSpaceoid(objs, bases, links)),
                Xoshiro256StarStar(12), "unitary")
            path = tmp_path / f"ring{width}.json"
            path.write_text(jsonio.dump_json(jsonio.category_to_json(cat)))
            for command in ("validate", "roundtrip"):
                assert main([command, "--input", str(path)]) == 0
            capsys.readouterr()
            assert main(["--format", "json", "spectrum", "--input", str(path)]) == 0
            points = json.loads(capsys.readouterr().out)["spaceoid"]["points"]
            index = {A: i for i, A in enumerate(objs)}
            counts.append({tuple(index[A] for A in key.split("|")): len(pts)
                           for key, pts in points.items()})
        assert counts[0] == counts[1]
        assert sum(counts[0].values()) == 24

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_tolerance_rejected(self, footnote_file, capsys, value):
        assert main(["--tol", value, "validate", "--input", str(footnote_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --tol: ") and "Traceback" not in err

    def test_ill_conditioned_basis_validates(self, tmp_path, capsys):
        # condition number 100 per Hom-set: the canonical Gram form is
        # Hermitian only to about 1e-9 absolute, 1e-13 relative
        cat, _ = conditioned_category(2, 100)
        path = tmp_path / "kappa100.json"
        path.write_text(jsonio.dump_json(jsonio.category_to_json(cat)))
        assert main(["validate", "--input", str(path)]) == 0
        assert main(["spectrum", "--input", str(path)]) == 0

    def test_io_error_exit_one(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["validate", "--input", str(missing)]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["validate", "--input", str(bad)]) == 1

    def test_gen_then_reingest(self, tmp_path, capsys):
        assert main(["--format", "json", "gen", "--out", str(tmp_path),
                     "--seed", "11", "--what", "both"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["written"]) == 3
        for path in doc["written"]:
            kind, value = jsonio.load_document(open(path).read())
            assert kind in ("category", "spaceoid")
        # emit then re-ingest yields an equal in-memory value
        spaceoid_path = [p for p in doc["written"] if "spaceoid" in p][0]
        text = open(spaceoid_path).read().strip()
        _, S = jsonio.load_document(text)
        assert jsonio.dump_json(jsonio.spaceoid_to_json(S)) == text

    @pytest.mark.parametrize("argv, message", [
        (["validate", "--input", "{tmp}/latin1.json"],
         "{tmp}/latin1.json: 'utf-8' codec can't decode byte 0xff in position 0: "
         "invalid start byte"),
        (["gen", "--out", "{tmp}/latin1.json"],
         "{tmp}/latin1.json: [Errno 17] File exists: '{tmp}/latin1.json'"),
        (["roundtrip", "--gen", "--n-objects", "9"], "parameters: n_objects must be in 1..8"),
        (["roundtrip", "--gen", "--max-base", "0"], "parameters: max_base must be in 1..6"),
    ], ids=["non-utf8-input", "gen-out-is-file", "n-objects", "max-base"])
    def test_bad_input_no_traceback(self, tmp_path, capsys, argv, message):
        (tmp_path / "latin1.json").write_bytes(b"\xff\xfe{}")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n".replace("{tmp}", str(tmp_path))

    @pytest.mark.parametrize("argv", [
        ["validate", "--input", "fixtures/footnote_full.json"],
        ["validate", "--input", "fixtures/e1_spaceoid.json"],
        ["spectrum", "--input", "fixtures/footnote_full.json"],
        ["sections", "--input", "fixtures/e1_spaceoid.json"],
        ["roundtrip", "--input", "fixtures/e1_spaceoid.json"],
        ["roundtrip", "--gen", "--seed", "7"],
        ["naturality", "--input", "{tmp}/morphism.json"],
        ["link", "--input", "fixtures/nonfull_bimodule.json"],
        ["gen", "--out", "{tmp}/gen", "--seed", "11"],
    ], ids=["validate-category", "validate-spaceoid", "spectrum", "sections",
            "roundtrip-file", "roundtrip-gen", "naturality", "link", "gen"])
    def test_json_output_is_one_compact_line(self, tmp_path, capsys, argv):
        m, _ = gen_morphism_pair(GenParams(seed=6, n_objects=2, max_base=2,
                                           edge_density=0.9, phase_mode="random"))
        (tmp_path / "morphism.json").write_text(jsonio.dump_json(jsonio.morphism_to_json(m)))
        root = Path(__file__).resolve().parents[1]
        argv = [a.replace("{tmp}", str(tmp_path)).replace("fixtures/", f"{root}/fixtures/")
                for a in argv]
        assert main(["--format", "json", *argv]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
        assert out.count("\n") == 1
        for path in json.loads(out).get("written", []):  # gen: files load back exactly
            text = Path(path).read_text()
            kind, value = jsonio.load_document(text)
            to_json = {"spaceoid": jsonio.spaceoid_to_json,
                       "category": jsonio.category_to_json}[kind]
            assert text == jsonio.dump_json(to_json(value)) + "\n"

    @pytest.mark.parametrize("command", ["validate", "sections"])
    def test_noncomposable_phase_rejected(self, tmp_path, capsys, command):
        # p1 = (a1, b1) and q2 = (b2, a2) are adjacent but do not compose
        doc = {"objects": ["A", "B"],
               "base_sets": {"A": ["a1", "a2"], "B": ["b1", "b2"]},
               "points": {"A|B": [{"id": "p1", "t": "a1", "s": "b1"},
                                  {"id": "p2", "t": "a2", "s": "b2"}],
                          "B|A": [{"id": "q1", "t": "b1", "s": "a1"},
                                  {"id": "q2", "t": "b2", "s": "a2"}]},
               "phases": [{"p": "p1", "q": "q2", "c": [0, 1]}]}
        path = tmp_path / "two_links.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: spaceoid:")

    def test_deeply_nested_document_rejected(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["validate", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_closed_stdout_exits_quietly(self):
        src = Path(__file__).resolve().parents[1] / "src"
        fixture = src.parent / "fixtures" / "footnote_full.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        read_end, write_end = os.pipe()
        os.close(read_end)  # nobody reads: the first write raises EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cstardual.cli", "--format", "json", "spectrum",
                 "--input", str(fixture)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""


class TestCertifiedVerdicts:
    """``spectrum`` and ``roundtrip`` validate the spaceoid they build, so on a
    category that ``validate`` rejects, ``roundtrip`` never passes and every
    spectrum that ``spectrum`` emits is a valid spaceoid."""

    @pytest.mark.parametrize("involution", [False, True])
    @pytest.mark.parametrize("scramble", ["unitary", "invertible"])
    @pytest.mark.parametrize("seed", range(50))
    def test_no_pass_on_rejected_input(self, tmp_path, capsys, seed, scramble, involution):
        path = tmp_path / "cat.json"
        path.write_text(jsonio.dump_json(jsonio.category_to_json(
            perturbed_category(seed, scramble, involution))))
        run = lambda *argv: (main(["--format", "json", *argv, "--input", str(path)]),
                             capsys.readouterr().out)
        assert run("validate")[0] == 2
        code, out = run("roundtrip")
        assert code != 0 and (not out or json.loads(out)["pass"] is False)
        code, out = run("spectrum")
        if code == 0:
            spectrum = tmp_path / "spectrum.json"
            spectrum.write_text(jsonio.dump_json(json.loads(out)["spaceoid"]))
            assert main(["validate", "--input", str(spectrum)]) == 0

    @pytest.mark.parametrize("involution", [False, True])
    @pytest.mark.parametrize("scramble", ["unitary", "invertible"])
    @pytest.mark.parametrize("seed", range(50))
    def test_spectrum_verdict_is_basis_and_label_free(self, tmp_path, seed, scramble,
                                                      involution):
        """The ``spectrum`` exit code does not change under a random basis
        permutation per Hom-set or under reversed object labels."""
        cat = perturbed_category(seed, scramble, involution)
        rng = np.random.default_rng(seed)
        permuted = _transport_category(cat, {
            key: np.eye(cat.dim(*key))[:, rng.permutation(cat.dim(*key))]
            for key in cat.hom_pairs()})
        ren = dict(zip(cat.objects, reversed(cat.objects)))
        relabel = lambda tensors: {tuple(ren[A] for A in key): T for key, T in tensors.items()}
        reversed_labels = FiniteCStarCategory(
            [ren[A] for A in cat.objects], relabel(cat.dims), relabel(cat.comp),
            relabel(cat.invol), {ren[A]: u for A, u in cat.units.items()})

        def spectrum_code(category):
            path = tmp_path / "cat.json"
            path.write_text(jsonio.dump_json(jsonio.category_to_json(category)))
            return main(["--format", "json", "spectrum", "--input", str(path)])

        code = spectrum_code(cat)
        assert spectrum_code(permuted) == code
        assert spectrum_code(reversed_labels) == code
