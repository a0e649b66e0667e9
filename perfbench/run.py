"""Run one benchmark workload at one seed and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay-diurnal --seed 1 \\
        --seconds 40 --trace 0

The run repeats the workload for ``--seconds`` seconds, each repetition in
a fresh Python process that imports the program from ``src/``, sets it up,
runs the timed phase once and checks the outputs.  A fresh process per
repetition means set-up (imports, spec building, deploys) is measured
every time, peak RSS belongs to that one repetition, and nothing the
program memoises in-process makes a later repetition cheaper.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics listed in
``BENCHMARK.json`` (medians over the repetitions); with ``--trace 1``
they are the per-layer metrics, taken from traced repetitions that
alternate with untraced ones.  The lines before it report every metric
of the workload by name, unit and kind (host or sim), the operation
counts and the fingerprint of the simulated outputs.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
from statistics import median
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: A run must end within 180 s; no repetition starts after this.
RUN_LIMIT_S = 150.0
#: One thread per process: BLAS stays single-threaded (at most nproc).
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
    )
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="input size; tiny is for the benchmark's own tests",
    )
    # One repetition in this process (internal: the parent passes these).
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--launched", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- one repetition (child process) -------------------------------------------


def child(args: argparse.Namespace) -> None:
    sys.path.insert(0, SRC)
    import resource

    from tracing import Tracer, self_times
    from workloads import WORKLOADS

    tracer = Tracer(bool(args.trace))
    rep = WORKLOADS[args.workload](args.seed, args.size, tracer)
    record = {
        "setup_s": rep.timed_start - args.launched,
        "wall_s": rep.timed_end - rep.timed_start,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "arrivals_served": rep.arrivals_served,
        "sim": rep.sim,
        "fingerprint": rep.fingerprint(),
        "traced": tracer.enabled,
        "layers": rep.layers,
        "self_s": self_times(tracer.spans, "timed"),
        "spans": tracer.spans,
    }
    print(json.dumps(record))


# -- the run (parent process) -------------------------------------------------


def run_rep(args: argparse.Namespace, traced: bool, timeout: float) -> dict:
    env = {**os.environ, **THREAD_ENV}
    launched = time.perf_counter()
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1" if traced else "0",
        "--size", args.size,
        "--launched", repr(launched),
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, env=env, timeout=timeout
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(
            f"perfbench: {args.workload} repetition exited "
            f"{done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.child:
        child(args)
        return 0
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {names}",
            file=sys.stderr,
        )
        return 2
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no program to measure at {SRC}; run from the root "
            "of a checkout",
            file=sys.stderr,
        )
        return 2

    # In a traced run, traced and untraced repetitions alternate.
    reps: list[dict] = []
    need = 2 if args.trace else 1
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_rep(args, traced, timeout=RUN_LIMIT_S + 20 - elapsed))
        elapsed = time.perf_counter() - started
        next_end = elapsed * (len(reps) + 1) / len(reps)
        if len(reps) >= need and next_end > min(args.seconds, RUN_LIMIT_S):
            break

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    fingerprints = {r["fingerprint"] for r in reps}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0 and len(fingerprints) == 1

    host = {
        "setup_s": (median([r["setup_s"] for r in plain]), "s"),
        "wall_s": (median([r["wall_s"] for r in plain]), "s"),
        "peak_rss_mib": (median([r["rss_mib"] for r in plain]), "MiB"),
        "fail_share": (failed / attempted, "share"),
    }
    if plain[0]["arrivals_served"]:
        host["arrivals_per_s"] = (
            median([r["arrivals_served"] / r["wall_s"] for r in plain]),
            "1/s",
        )
    sim = {name: tuple(v) for name, v in reps[0]["sim"].items()}

    print(
        f"perfbench {args.workload} seed={args.seed} size={args.size}: "
        f"{len(plain)} untraced + {len(traced_reps)} traced repetitions"
    )
    for name, (value, unit) in host.items():
        print(f"  host {name:<24} {value!r:>24} {unit}")
    for name, (value, unit) in sim.items():
        print(f"  sim  {name:<24} {value!r:>24} {unit}")
    walls = " ".join(
        f"{r['wall_s']:.4f}{'t' if r['traced'] else ''}" for r in reps
    )
    print(f"  wall_s per repetition (t = traced): {walls}")
    print(f"  ops attempted {attempted}, failed {failed}")
    print(f"  sim fingerprint sha256:{' '.join(sorted(fingerprints))}")

    if args.trace:
        metrics = traced_metrics(spec, plain, traced_reps, args)
    else:
        metrics = {
            m["name"]: {"value": host[m["name"]][0], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def traced_metrics(
    spec: dict, plain: list[dict], traced: list[dict], args
) -> dict[str, dict[str, object]]:
    """Per-layer medians over the traced repetitions, plus trace cost.

    Layers a workload does not exercise read 0.  The blocking path of a
    traced repetition is its timed phase; the sum of self times along it
    is that repetition's traced ``wall_s``, and the tracing overhead
    relates it to the untraced ``wall_s``.
    """
    known = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for rep in traced:
        unknown = set(rep["layers"]) - set(known)
        if unknown:
            raise SystemExit(f"perfbench: undeclared metrics {unknown}")
    untraced_wall = median([r["wall_s"] for r in plain])
    traced_wall = median([r["wall_s"] for r in traced])
    values = {
        name: median([float(r["layers"].get(name, 0.0)) for r in traced])
        for name in known
    }
    # Each traced repetition against the untraced one just before it:
    # pairing cancels the host's slow drift in speed.
    values["trace.overhead_share"] = (
        median([t["wall_s"] / u["wall_s"] for u, t in zip(plain, traced)])
        - 1
    )

    layers = sorted({k for r in traced for k in r["self_s"]})
    print("  self time along the timed phase (median of traced reps):")
    for layer in layers:
        own = median([r["self_s"].get(layer, 0.0) for r in traced])
        print(f"    {layer:<12} {own:>10.4f} s")
    print(
        f"  wall_s medians: traced {traced_wall:.4f} s (in each traced "
        f"repetition, the sum of its self times), untraced "
        f"{untraced_wall:.4f} s; trace.overhead_share "
        f"{values['trace.overhead_share']:+.4f}"
    )
    for name, unit in known.items():
        print(f"  layer {name:<28} {values[name]!r:>24} {unit}")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            [
                {"rep": i, **span}
                for i, rep in enumerate(traced)
                for span in rep["spans"]
            ],
            fh,
        )
    print(f"  spans written to {os.path.relpath(path, ROOT)}")
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in known.items()
    }


if __name__ == "__main__":
    sys.exit(main())
