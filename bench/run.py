"""rhomin benchmark: one workload, measured for a fixed time, checked.

    python3 bench/run.py --workload theorem --seed 1 --seconds 32 --trace 0

Run from the root of a rhomin checkout; the package is imported from its
`src/`. Every pass is a fresh interpreter (`bench/worker.py`), because a CLI
user pays cold module caches on every call, with OpenBLAS pinned to one
thread. Passes repeat while the next one is expected to end within
`--seconds`; there is always at least one. Times are counted in reference
loops (`bench/refclock.py`), which cancels the drift of a shared host's speed;
totals are medians over passes, and latency percentiles are taken over the
operations of all passes.

With `--trace 0` the end-to-end metrics are printed. With `--trace 1` the run
alternates untraced and traced passes and prints the per-layer metrics, the
count metrics, the cache hit ratios derived from call counts, and the tracing
overhead (median traced minus median untraced pass `wall_ref`). The spans of
the i-th traced pass are written to `bench/out/<workload>-<i>.npz`. Either
way the untraced passes' times in seconds are printed too, for reading.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A failed check, a crashed pass or a
missing `src/rhomin` makes the exit status non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("theorem", "oracle", "certify")
# Every run must end well inside 180 s; a pass still running then is killed.
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 25
# `import rhomin` in a fresh interpreter, then the reference loop's time
# measured right after it (bench/refclock.py).
IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); import rhomin; "
    "t = time.perf_counter() - t0; sys.path.insert(0, {bench!r}); "
    "from refclock import loop_time; print(t, loop_time())"
).format(bench=str(HERE))
# setup_s is the import time scaled to a host on which the reference loop
# takes this long, so that it does not move with the host's speed.
REF_LOOP_S = 1e-4
TIMED_FNS = (
    "families.spec_diameter", "families.screen", "families.realize",
    "graphs.canonical_code", "graphs.diameter", "graphs.distances",
    "graphs.build_graph", "graphs.two_core_cycle",
    "search.unicyclic_graphs", "search.free_trees", "search.brute_force_all_graphs",
    "search.minimize_over_quipus", "search.verify_theorem",
    "exactpoly.rho_float", "exactpoly.rho_certified", "exactpoly.refine",
    "exactpoly.count_roots_halfopen", "exactpoly.charpoly",
    "exactpoly.charpoly_recursive", "exactpoly.charpoly_dense",
    "exactpoly.sturm_chain", "exactpoly.poly_gcd", "exactpoly.compare_roots",
    "exactpoly.below_3_over_sqrt2", "transfer.t_compose_rho",
)
ENUMERATION = "families.enumerate_quipus"


class PassFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_child(args: list[str], deadline: float) -> str:
    """Run a Python child to completion and return its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed("no time left for another pass")
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass exceeded the run limit: {args}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(deadline: float) -> list[tuple[float, float]]:
    """Fresh-interpreter `import rhomin` times, each with the reference loop
    time after it, after one untimed import that writes the bytecode cache,
    as an installed package would have it."""
    run_child(["-c", IMPORT_PROBE], deadline)
    probes = (run_child(["-c", IMPORT_PROBE], deadline).split() for _ in range(SETUP_SAMPLES))
    return [(float(t), float(loop)) for t, loop in probes]


def one_pass(workload: str, seed: int, trace: bool, deadline: float, spans: Path | None) -> dict:
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--trace", str(int(trace))]
    if spans is not None:
        args += ["--spans", str(spans)]
    return json.loads(run_child(args, deadline))


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup: list[tuple[float, float]],
               passes: list[dict]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics. Times are in reference loops (see refclock.py):
    pass totals are medians over passes, and the percentiles are taken over
    the operations of all passes together. setup_s is the median import time
    at a reference loop time of REF_LOOP_S."""
    latencies = [x for p in passes for x in p["latencies_ref"]]
    return {
        "setup_s": (statistics.median(t * REF_LOOP_S / loop for t, loop in setup), "s"),
        "wall_ref": (statistics.median(p["wall_ref"] for p in passes), "ref"),
        "cpu_ref": (statistics.median(p["cpu_ref"] for p in passes), "ref"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "query_p50_ref": (percentile(latencies, 50), "ref"),
        "query_p95_ref": (percentile(latencies, 95), "ref"),
    }


def in_seconds(setup: list[tuple[float, float]],
               passes: list[dict]) -> dict[str, tuple[float, str]]:
    """The same times in seconds, printed for reading but not bounded: they
    move with the host's speed."""
    latencies = [x for p in passes for x in p["latencies_ms"]]
    out = {"import_s": (statistics.median(t for t, _ in setup), "s")} if setup else {}
    return out | {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "query_p50_ms": (percentile(latencies, 50), "ms"),
        "query_p95_ms": (percentile(latencies, 95), "ms"),
        "ref_loop_us": (statistics.median(p["ref_loop_us"] for p in passes), "us"),
    }


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    def med(values):
        return statistics.median(values)

    def layer(key):
        return med(p["layers"].get(key, 0) for p in traced)

    out: dict[str, tuple[float, str]] = {}
    for fn in TIMED_FNS:
        out[f"{fn}.self_s"] = (layer(f"{fn}.self_s"), "s")
        out[f"{fn}.calls"] = (layer(f"{fn}.calls"), "count")
    for kind in ("open", "closed"):
        out[f"{ENUMERATION}.{kind}.self_s"] = (layer(f"{ENUMERATION}.{kind}.self_s"), "s")
        out[f"{ENUMERATION}.{kind}.specs"] = (layer(f"{ENUMERATION}.{kind}.specs"), "count")
    for key in traced[0]["counts"]:
        unit = "ratio" if key.endswith("share") else "count"
        out[key] = (med(p["counts"][key] for p in traced), unit)
    # A cache miss is the call made directly under the cached function.
    for name, cached, misses in (
        ("exactpoly.root_cache.hit_ratio", "exactpoly.rho_certified_graph",
         ["exactpoly.rho_certified"]),
        ("exactpoly.charpoly_cache.hit_ratio", "exactpoly.charpoly",
         ["exactpoly.charpoly_recursive", "exactpoly.charpoly_dense"]),
    ):
        calls = layer(f"{cached}.calls")
        missed = sum(layer(f"{m}.under.{cached}") for m in misses)
        out[name] = (1.0 - missed / calls if calls else 0.0, "ratio")
    out["trace.overhead_ref"] = (
        med(p["wall_ref"] for p in traced) - med(p["wall_ref"] for p in plain), "ref")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "rhomin" / "__init__.py").is_file():
        print(f"no rhomin sources under {ROOT / 'src'}; run from a rhomin checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    spans_dir = HERE / "out"
    try:
        setup = [] if args.trace else measure_setup(deadline)
        start = time.monotonic()
        durations: list[float] = []
        while not durations or (time.monotonic() - start
                                + statistics.median(durations) <= args.seconds):
            t0 = time.monotonic()
            plain.append(one_pass(args.workload, args.seed, False, deadline, None))
            if args.trace:
                spans_dir.mkdir(exist_ok=True)
                spans = spans_dir / f"{args.workload}-{len(traced)}.npz"
                traced.append(one_pass(args.workload, args.seed, True, deadline, spans))
            durations.append(time.monotonic() - t0)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        attempted = sum(p["attempted"] for p in plain + traced) + 1
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": 1 + sum(p["failed"] for p in plain + traced),
                          "metrics": {}}))
        return 1

    runs = plain + traced
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    metrics = layer_metrics(plain, traced) if args.trace else end_to_end(setup, plain)
    for p in runs:
        for msg in p["failures"]:
            print(f"FAIL {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes")
    for name, (value, unit) in {**in_seconds(setup, plain), **metrics}.items():
        print(f"{name} {value!r} {unit}")
    print(f"fail_frac {failed / attempted!r} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
