"""Command-line interface.

Exit codes: 0 pass, 1 I/O or schema error, 2 validation failure,
3 degenerate-functor gate.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import duality, jsonio
from .cstarcat import ValidationReport, check_star_functor
from .errors import (
    BimoduleAxiomViolation,
    CstarDualError,
    DegenerateFunctor,
    DiagonalNotSemisimple,
    SchemaError,
)
from .functors import sections_category, sigma_on_morphism, spectral_spaceoid
from .generators import GenParams, gen_category, gen_spaceoid
from .numlin import DEFAULT_EPS, Tolerance, max_abs
from .spaceoid import (
    invert_morphism,
    morphisms_equal,
    compose_morphisms,
    identity_morphism,
    spaceoids_isomorphic,
    validate_morphism,
    validate_spaceoid,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3


def _read_input(args):
    if args.input is None:
        raise SchemaError("$", "--input FILE is required for this command")
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(args.input, str(exc))
    return jsonio.load_document(text)


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(jsonio.dump_json(payload))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args):
    kind, value = _read_input(args)
    if kind == "category":
        report = duality.certified_validate(value, args.tol)
    elif kind == "spaceoid":
        report = validate_spaceoid(value, args.tol)
    elif kind == "spaceoid_morphism":
        report = validate_morphism(value, args.tol)
    elif kind == "star_functor":
        report = check_star_functor(value, args.tol)
    else:  # bimodule: its linking category is assembled and validated
        report = ValidationReport()
        try:
            duality.validated_linking_category(value, args.tol)
            report.record("bimodule_axioms", True)
        except (BimoduleAxiomViolation, DiagonalNotSemisimple) as exc:
            report.record("bimodule_axioms", False, str(exc))
    payload = {"kind": kind, **report.to_json()}
    _emit(args, payload, [f"{kind}: {report}"])
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_spectrum(args):
    kind, value = _read_input(args)
    if kind == "category":
        S, G, _ = duality.certified_spectrum(value, args.tol)
        payload = {"spaceoid": jsonio.spaceoid_to_json(S),
                   "gelfand": jsonio.gelfand_to_json(G)}
        lines = [f"spectrum over {len(S.objects)} objects"]
        for (A, B), pts in sorted(S.points.items()):
            lines.append(f"  Hom({A},{B}): {len(pts)} points")
        _emit(args, payload, lines)
        return EXIT_OK
    if kind == "star_functor":
        m = sigma_on_morphism(value, args.tol)
        payload = jsonio.morphism_to_json(m)
        _emit(args, payload, ["spectrum morphism computed"])
        return EXIT_OK
    raise SchemaError("$", f"spectrum expects a category or functor, got {kind}")


def cmd_sections(args):
    kind, value = _read_input(args)
    if kind != "spaceoid":
        raise SchemaError("$", f"sections expects a spaceoid, got {kind}")
    cat = sections_category(value, args.tol)
    payload = {"category": jsonio.category_to_json(cat)}
    dims = ", ".join(f"{A}|{B}:{cat.dim(A, B)}" for A, B in sorted(cat.dims))
    _emit(args, payload, [f"section category dims: {dims}"])
    return EXIT_OK


def cmd_roundtrip(args):
    if args.gen:
        params = _params_from_args(args)
        cat, oracle = gen_category(params, args.tol)
        S = gen_spaceoid(params)
    else:
        kind, value = _read_input(args)
        if kind == "category":
            cat, oracle, S = value, None, None
        elif kind == "spaceoid":
            cat, oracle, S = None, None, value
        else:
            raise SchemaError("$", f"roundtrip expects a category or spaceoid, got {kind}")
    payload = {}
    lines = []
    ok = True
    if cat is not None:
        _, report, _ = duality.axiom_certificate(cat, args.tol)
        payload["gelfand"] = {"pass": report.ok, "failures": report.to_json()["failures"]}
        lines.append(f"algebra-side transform: {'pass' if report.ok else 'FAIL'}")
        ok = ok and report.ok
        if oracle is not None:
            iso = spaceoids_isomorphic(spectral_spaceoid(cat, args.tol)[0], oracle, args.tol)
            payload["oracle_recovered"] = iso is not None
            lines.append(f"oracle recovery: {'pass' if iso is not None else 'FAIL'}")
            ok = ok and iso is not None
    if S is not None:
        ev = duality.evaluation_transform(S, args.tol)
        rep = validate_morphism(ev, args.tol)
        inv_ok = False
        if rep.ok:
            inv = invert_morphism(ev)
            inv_ok = validate_morphism(inv, args.tol).ok
            ident, _ = morphisms_equal(
                compose_morphisms(ev, inv), identity_morphism(S), args.tol.residual())
            inv_ok = inv_ok and ident
        iso = spaceoids_isomorphic(S, ev.target, args.tol)  # the spectrum of S's sections
        payload["evaluation"] = {"valid": rep.ok, "invertible": inv_ok,
                                 "isomorphic": iso is not None}
        lines.append(
            f"spaceoid-side transform: "
            f"{'pass' if rep.ok and inv_ok and iso is not None else 'FAIL'}")
        ok = ok and rep.ok and inv_ok and iso is not None
    payload["pass"] = ok
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_INVALID


def cmd_naturality(args):
    kind, value = _read_input(args)
    if kind == "star_functor":
        report = duality.check_naturality_G(value, args.tol)
        side = "algebra"
    elif kind == "spaceoid_morphism":
        rep = validate_morphism(value, args.tol)
        if not rep.ok:
            payload = {"kind": kind, **rep.to_json()}
            _emit(args, payload, [f"invalid morphism: {rep}"])
            return EXIT_INVALID
        report = duality.check_naturality_E(value, args.tol)
        side = "spaceoid"
    else:
        raise SchemaError("$", f"naturality expects a functor or morphism, got {kind}")
    payload = {"side": side, **report.to_json()}
    _emit(args, payload, [
        f"{side}-side naturality: {'pass' if report.ok else 'FAIL'} "
        f"(max deviation {report.square_identity:.3g})"])
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_link(args):
    kind, value = _read_input(args)
    if kind != "bimodule":
        raise SchemaError("$", f"link expects a bimodule, got {kind}")
    spec = duality.bimodule_spectrum(value, args.tol)
    dev = duality.check_bimodule_isomorphism(value, spec, args.tol)
    bound = args.tol.residual(max(1.0, max_abs(value.ipA), max_abs(value.ipB)))
    ok = dev <= bound
    payload = spec.to_json()
    payload["iso"] = jsonio.array_to_json(spec.iso)
    payload["inner_product_deviation"] = dev
    payload["pass"] = ok
    payload["tolerance"] = bound
    payload["left_characters"] = jsonio.array_to_json(spec.left_characters)
    payload["right_characters"] = jsonio.array_to_json(spec.right_characters)
    lines = [
        f"partial bijection of size {len(spec.pairs)}: {spec.pairs}",
        f"left support {spec.left_support} "
        f"({'full' if spec.full_left() else 'proper'})",
        f"right support {spec.right_support} "
        f"({'full' if spec.full_right() else 'proper'})",
        f"inner product deviation {dev:.3g}{'' if ok else ' FAIL'}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_INVALID


def _params_from_args(args) -> GenParams:
    try:
        return GenParams(
            seed=args.seed, n_objects=args.n_objects, max_base=args.max_base,
            edge_density=args.density, phase_mode=args.phase_mode,
            scramble=args.scramble)
    except ValueError as exc:
        raise SchemaError("parameters", str(exc))


def cmd_gen(args):
    params = _params_from_args(args)
    out = Path(args.out)
    docs = {}
    if args.what in ("spaceoid", "both"):
        docs["spaceoid"] = jsonio.spaceoid_to_json(gen_spaceoid(params))
    if args.what in ("category", "both"):
        cat, oracle = gen_category(params)
        docs["category"] = jsonio.category_to_json(cat)
        docs["oracle"] = jsonio.spaceoid_to_json(oracle)
    written = [str(out / f"{name}_{params.seed}.json") for name in docs]
    try:
        out.mkdir(parents=True, exist_ok=True)
        for path, doc in zip(written, docs.values()):
            Path(path).write_text(jsonio.dump_json(doc) + "\n")
    except OSError as exc:
        raise SchemaError(args.out, str(exc))
    _emit(args, {"written": written}, [f"wrote {p}" for p in written])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="cstardual",
        description="Spectra and sections of finite commutative C*-categories")
    parser.add_argument("--format", choices=("json", "text"), default="text",
                        help="output format (text summaries are not stable)")
    parser.add_argument("--tol", type=float, default=DEFAULT_EPS,
                        help="absolute/relative tolerance; every threshold derives from it")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--input", help="input JSON file")
        return p

    add("validate", cmd_validate, "axiom sweep over any input document")
    add("spectrum", cmd_spectrum, "spectral spaceoid of a category, or the "
                                  "spectrum morphism of a functor")
    add("sections", cmd_sections, "section category of a spaceoid")
    p = add("roundtrip", cmd_roundtrip, "both duality round trips")
    p.add_argument("--gen", action="store_true",
                   help="generate the instance instead of reading --input")
    _add_gen_params(p)
    add("naturality", cmd_naturality, "naturality square for a functor or morphism")
    add("link", cmd_link, "spectral data of a Hilbert C*-bimodule")
    p = sub.add_parser("gen", help="write generated instance files")
    p.set_defaults(fn=cmd_gen)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--what", choices=("spaceoid", "category", "both"),
                   default="both")
    _add_gen_params(p)
    return parser


def _add_gen_params(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-objects", type=int, default=3, dest="n_objects")
    p.add_argument("--max-base", type=int, default=3, dest="max_base")
    p.add_argument("--density", type=float, default=0.7)
    p.add_argument("--phase-mode", choices=("trivial", "random"),
                   default="random", dest="phase_mode")
    p.add_argument("--scramble", choices=("none", "unitary", "invertible"),
                   default="unitary")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.tol = Tolerance(args.tol, args.tol)
    except ValueError as exc:
        print(f"error: --tol: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # the reader is gone: drop the rest of the output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DegenerateFunctor as exc:
        print(f"degenerate functor: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except CstarDualError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
