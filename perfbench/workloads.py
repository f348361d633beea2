"""The three workloads: instance set-up, timed operations and oracle checks.

Every workload runs the same seven operations, each on documents of its own
shape (see README.md for why each shape was chosen):

* ``validate``   - CLI ``validate`` on the category (on the spaceoid for sheaf)
* ``spectrum``   - CLI ``spectrum`` on the category
* ``sections``   - CLI ``sections`` on the oracle spaceoid
* ``roundtrip``  - CLI ``roundtrip`` on the category and on the spaceoid
* ``naturality`` - CLI ``naturality`` on a *-functor and on a spaceoid morphism
* ``link``       - CLI ``link`` on the bimodule Hom(A,B) of the category
* ``recover``    - library: load the category, take its spectrum, and search
  for an isomorphism to the relabelled oracle (must exist) and to a decoy
  with one linked component removed (must not)

CLI commands run in-process through ``cstardual.cli.main`` with stdout
captured, so each one parses its input file afresh: no character, idempotent
or matching cache survives from one timed operation to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

from cstardual import cli, functors, generators, jsonio, spaceoid
from cstardual.spaceoid import validate_morphism  # unwrapped: checks are not traced

from instances import (
    bimodule_of_block,
    gauge_morphism,
    link_phases,
    reversal,
    sample_skeleton,
    scramble_functor,
    seeded_rng,
    spaceoid_of,
)


@dataclass(frozen=True)
class Spec:
    base_sizes: tuple
    scrambled: bool  # category = scrambled sections (else the sections as they are)
    salt: int


SPECS = {
    "wide": Spec((28, 20), True, 0x1D),
    "mesh": Spec((9,) * 8, True, 0x3E5),
    "sheaf": Spec((10,) * 8, False, 0x5EAF),
}

LINK_TOL = 1e-6  # inner-product deviation accepted from ``link``


@dataclass
class Task:
    """One timed call and the check on its outcome."""

    op: str
    run: object    # () -> outcome
    check: object  # outcome -> bool
    reads: Path    # input file, for the bytes-read count


def run_cli(argv):
    """``cstardual.cli.main(argv)`` with output captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Instance:
    """Input files for one workload and seed, and the tasks of one pass."""

    def __init__(self, workload, seed, workdir):
        spec = SPECS[workload]
        rng = seeded_rng(seed, spec.salt)
        skel = sample_skeleton(rng, spec.base_sizes)
        lam = link_phases(rng, skel)
        S = spaceoid_of(skel, lam)
        sec = functors.sections_category(S, check=False)
        morphism = gauge_morphism(S, rng)
        if spec.scrambled:
            cat, T1 = generators.scramble_category(sec, rng, "unitary")
            cat2, T2 = generators.scramble_category(sec, rng, "invertible")
            functor = scramble_functor(cat, T1, cat2, T2)
        else:
            cat = sec
            functor = functors.gamma_on_morphism(
                morphism, cats=(sec, functors.sections_category(morphism.source, check=False)),
                check=False)
        self.skeleton = skel
        # the bimodule is the off-diagonal Hom-set with the most points
        self.block = max(((A, B) for A in skel.objects for B in skel.objects if A != B),
                         key=lambda pair: skel.point_count(*pair))
        self.relabelled = spaceoid_of(skel, lam, rename=reversal(skel.objects))
        self.decoy = spaceoid_of(skel, lam, links=skel.links[1:])
        self.paths = {}
        workdir.mkdir(parents=True, exist_ok=True)
        for name, doc in (
                ("category", jsonio.category_to_json(cat)),
                ("spaceoid", jsonio.spaceoid_to_json(S)),
                ("functor", jsonio.functor_to_json(functor)),
                ("morphism", jsonio.morphism_to_json(morphism)),
                ("bimodule", jsonio.bimodule_to_json(bimodule_of_block(cat, *self.block)))):
            path = workdir / f"{name}.json"
            path.write_text(jsonio.dump_json(doc) + "\n")
            self.paths[name] = path
        self.tasks = self._tasks(spec)

    # -- oracle checks on a command's JSON output ----------------------------

    def _dims_ok(self, p):
        skel, dims = self.skeleton, p["category"]["dims"]
        return all(
            dims[f"{A}|{B}"] == (len(skel.base_sets[A]) if A == B else skel.point_count(A, B))
            for A in skel.objects for B in skel.objects)

    def _spectrum_ok(self, p):
        skel, doc = self.skeleton, p["spaceoid"]
        return (all(len(doc["base_sets"][A]) == len(skel.base_sets[A]) for A in skel.objects)
                and all(len(doc["points"].get(f"{A}|{B}", [])) == skel.point_count(A, B)
                        for A in skel.objects for B in skel.objects if A != B))

    def _link_ok(self, p):
        skel, (A, B) = self.skeleton, self.block
        n = skel.point_count(A, B)
        return (len(p["pairs"]) == len(p["left_support"]) == len(p["right_support"]) == n
                and p["full_left"] == (n == len(skel.base_sets[A]))
                and p["full_right"] == (n == len(skel.base_sets[B]))
                and p["inner_product_deviation"] <= LINK_TOL)

    def recover(self):
        """Spectrum of the category file, matched against both oracles."""
        _, cat = jsonio.load_document(self.paths["category"].read_text())
        S, _ = functors.spectral_spaceoid(cat)
        return (spaceoid.spaceoids_isomorphic(S, self.relabelled),
                spaceoid.spaceoids_isomorphic(S, self.decoy))

    # -- one pass -------------------------------------------------------------

    def _tasks(self, spec):
        def cli_task(op, command, doc, check):
            """Exit code 0 and ``check`` holding on the JSON payload."""
            argv = ["--format", "json", command, "--input", str(self.paths[doc])]
            return Task(op, lambda: run_cli(argv),
                        lambda out: out[0] == 0 and check(json.loads(out[1])),
                        self.paths[doc])

        passed = lambda key: (lambda p: p[key] is True)
        primary = "category" if spec.scrambled else "spaceoid"
        return [
            cli_task("validate", "validate", primary, passed("valid")),
            cli_task("spectrum", "spectrum", "category", self._spectrum_ok),
            cli_task("sections", "sections", "spaceoid", self._dims_ok),
            cli_task("roundtrip", "roundtrip", "category", passed("pass")),
            cli_task("roundtrip", "roundtrip", "spaceoid", passed("pass")),
            cli_task("naturality", "naturality", "functor", passed("pass")),
            cli_task("naturality", "naturality", "morphism", passed("pass")),
            cli_task("link", "link", "bimodule", self._link_ok),
            Task("recover", self.recover,
                 lambda found: (found[0] is not None and validate_morphism(found[0]).ok
                                and found[1] is None),
                 self.paths["category"]),
        ]
