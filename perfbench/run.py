"""Benchmark runner: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up builds the instance and writes its input files under
``.perfbench/``; the timed passes then run every operation of the workload
until the next pass would end after ``--seconds``.  With ``--trace 0`` the
last line of standard output carries the end-to-end metrics (medians over
passes); with ``--trace 1`` untraced and traced passes alternate and it
carries the per-layer metrics of the traced passes.  Earlier lines record
the environment and a per-operation summary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

SETUP_REPEATS = 3
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer metrics of one traced pass: ``<module>.<function>.s`` is the
# function's self time and ``.calls`` its call count; ``layer.<module>.s``
# is the self time of every wrapped function of the module together.
FUNCTION_METRICS = (
    "numlin.hermitian_eig.s", "numlin.hermitian_eig.calls",
    "numlin.simultaneous_diag.s", "numlin.simultaneous_diag.calls",
    "numlin.numeric_rank.s", "numlin.numeric_rank.calls",
    "cstarcat.compose.s", "cstarcat.compose.calls",
    "cstarcat.cstar_norm.s", "cstarcat.cstar_norm.calls",
    "cstarcat.characters.s", "cstarcat.characters.calls",
    "cstarcat.corner.s", "cstarcat.corner.calls",
    "cstarcat.corner_projection_matrix.s", "cstarcat.corner_matching.s",
    "cstarcat.validate_category.s", "cstarcat.check_star_functor.s",
    "cstarcat.linking_category.s", "cstarcat.check_non_degenerate.s",
    "spaceoid.validate_spaceoid.s", "spaceoid.components.calls",
    "spaceoid.gauge_fix.s", "spaceoid.spaceoids_isomorphic.s",
    "spaceoid.validate_morphism.s", "spaceoid.validate_morphism.calls",
    "functors.sections_category.s", "functors.spectral_spaceoid.s",
    "functors.sigma_on_morphism.s", "functors.gamma_on_morphism.s",
    "duality.check_gelfand_isomorphism.s", "duality.evaluation_transform.s",
    "duality.check_naturality_G.s", "duality.check_naturality_E.s",
    "duality.bimodule_spectrum.s", "duality.check_bimodule_isomorphism.s",
    "jsonio.load_document.s", "jsonio.json_to_array.s",
    "jsonio.category_to_json.s", "jsonio.dump_json.s",
    "cli.main.s",
)
MEASURED_LAYERS = ("numlin", "cstarcat", "spaceoid", "functors", "duality", "jsonio", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment():
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "machine": platform.machine(),
        "commit": commit(),
    }


class Runner:
    """Set-up and timed passes of one workload."""

    def __init__(self, workload, seed, tracer=None):
        from workloads import Instance
        self.workload = workload
        self.make = lambda: Instance(workload, seed, WORKDIR / "work")
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def setup(self):
        start = time.perf_counter()
        self.instance = self.make()
        return time.perf_counter() - start

    def one_pass(self, traced):
        """Seconds per operation, plus bytes read and written, for one pass
        over the instance's tasks.  Checks run outside the timed region."""
        gc.collect()  # every pass starts with the collector in the same state
        times = {}
        moved = {"bytes_in": 0, "bytes_out": 0}
        for task in self.instance.tasks:
            call = self.tracer.wrap(f"bench.{task.op}", task.run) if traced else task.run
            start = time.perf_counter()
            try:
                outcome = call()
            except Exception:  # a crash is a failed operation, counted below
                traceback.print_exc()
                outcome = None
            times[task.op] = times.get(task.op, 0.0) + time.perf_counter() - start
            self.attempted += 1
            try:
                ok = outcome is not None and task.check(outcome)
            except (KeyError, TypeError, ValueError):  # malformed output
                ok = False
            self.failed += not ok
            moved["bytes_in"] += task.reads.stat().st_size
            if isinstance(outcome, tuple) and isinstance(outcome[1], str):
                moved["bytes_out"] += len(outcome[1])
        times["total"] = sum(times.values())
        return times, moved

    def measure(self, seconds, step):
        """Repeat ``step`` until the next repetition would end after
        ``seconds``, judged by the last one's duration; at least once."""
        deadline = time.perf_counter() + seconds
        results = []
        while True:
            start = time.perf_counter()
            results.append(step())
            now = time.perf_counter()
            if now + (now - start) > deadline:
                return results


def plain_run(runner, seconds):
    setup = [runner.setup() for _ in range(SETUP_REPEATS)]
    passes = [t for t, _ in runner.measure(seconds, lambda: runner.one_pass(False))]
    metrics = {f"{op}_s": median([p[op] for p in passes]) for op in passes[0] if op != "total"}
    metrics["total_s"] = median([p["total"] for p in passes])
    metrics["setup_s"] = median(setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = {name: ("MB" if name == "peak_rss_mb" else "s") for name in metrics}
    return metrics, units, len(passes)


def traced_run(runner, seconds):
    tracer = runner.tracer
    tracer.install()
    first = len(tracer.spans)
    runner.setup()
    setup_summary = tracer.summary(first)
    tracer.uninstall()

    def pair():
        plain, _ = runner.one_pass(False)
        tracer.install()
        first = len(tracer.spans)
        try:
            traced, moved = runner.one_pass(True)
        finally:
            tracer.uninstall()
        return plain["total"], traced["total"], tracer.summary(first), moved

    pairs = runner.measure(seconds, pair)
    metrics = {}
    for name in FUNCTION_METRICS:
        func, kind = name.rsplit(".", 1)
        metrics[name] = median([s.get(func, {}).get(kind, 0) for _, _, s, _ in pairs])
    for layer in MEASURED_LAYERS:
        metrics[f"layer.{layer}.s"] = median([
            sum(v["s"] for k, v in s.items() if k.startswith(layer + "."))
            for _, _, s, _ in pairs])
    metrics["jsonio.bytes_in"] = median([m["bytes_in"] for *_, m in pairs])
    metrics["jsonio.bytes_out"] = median([m["bytes_out"] for *_, m in pairs])
    metrics["setup.jsonio.s"] = sum(v["s"] for k, v in setup_summary.items()
                                    if k.startswith("jsonio."))
    metrics["generators.scramble_category.calls"] = \
        setup_summary.get("generators.scramble_category", {}).get("calls", 0)
    metrics["trace.total_s"] = median([t for _, t, _, _ in pairs])
    metrics["trace.overhead_s"] = metrics["trace.total_s"] - median([p for p, _, _, _ in pairs])
    units = {}
    for name in metrics:
        if name.endswith(".calls"):
            units[name] = "count"
        elif name.startswith("jsonio.bytes"):
            units[name] = "bytes"
        else:
            units[name] = "s"
    WORKDIR.mkdir(exist_ok=True)
    tracer.write(WORKDIR / f"spans-{runner.workload}.jsonl")
    return metrics, units, len(pairs)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cstardual" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy loads its BLAS
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    from workloads import SPECS
    from tracing import Tracer
    if args.workload not in SPECS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(SPECS)}",
              file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment()), flush=True)
    runner = Runner(args.workload, args.seed, Tracer() if args.trace else None)
    try:
        run = traced_run if args.trace else plain_run
        metrics, units, passes = run(runner, args.seconds)
    finally:
        shutil.rmtree(WORKDIR / "work", ignore_errors=True)
    print(f"# {args.workload} seed {args.seed}: {passes} passes, "
          f"{runner.failed}/{runner.attempted} operations failed "
          f"(error_rate {runner.failed / runner.attempted:.4f})")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
