"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --workload theorem --seed 1 --trace 0

Builds the workload's inputs from the seed, runs its operations against
rhomin in a closed loop (one caller, next operation after the previous one
returns), times the loop, then checks every output against a reference the
benchmark computes itself: adjacency matrices it builds from its own edge
lists, numpy eigenvalues, networkx isomorphism and known minimizer counts.
Prints one JSON object. `bench/run.py` starts one of these per pass.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from refclock import RefClock
from spans import Tracer

WORKLOADS = ("theorem", "oracle", "certify")

# verify_theorem(k) for k = 3..6: the tied family has floor(k/2)+1 members.
THEOREM_WINNERS = {3: 2, 4: 3, 5: 3, 6: 4}
# Certify queries per pass, by kind: (fresh queries, repeats of them). Every
# kind gets the same weight and one query in four repeats an earlier one of
# its kind; neither figure is measured from real use. The repeats stand for a
# caller that keeps one process across queries (a library user, or a suite
# asking about the same graph twice): they read rhomin's root cache across
# queries, where `theorem` and `oracle` read it only within one search. Sizes
# step evenly through each kind's
# range and only shapes are drawn at random, so every seed asks for about the
# same work.
CERTIFY_MIX = dict.fromkeys(
    ("rho", "compare", "tie", "threshold", "compose", "dense"), (60, 20))

# A float reference can only decide a comparison when its gap exceeds this.
FLOAT_GAP = 1e-8
THREE_OVER_SQRT2 = 3.0 / 2.0**0.5


# ---------------------------------------------------------------------------
# reference graphs built by the benchmark itself

def open_quipu(ks, ms):
    """(n, edges): a backbone of segments ks with a pendant path of length
    ms[i] at the i-th branch vertex between segments i and i+1."""
    backbone, branch, n = [], [], 0
    for i, k in enumerate(ks):
        backbone.extend(range(n, n + k))
        n += k
        if i < len(ms):
            backbone.append(n)
            branch.append(n)
            n += 1
    edges = list(zip(backbone, backbone[1:]))
    for b, m in zip(branch, ms):
        for v in range(n, n + m):
            edges.append((b if v == n else v - 1, v))
        n += m
    return n, edges


def closed_quipu(ks, ms):
    """(n, edges): a cycle with r branch vertices separated by gaps ks and a
    pendant path of length ms[i] at branch vertex i."""
    c = sum(ks) + len(ks)
    edges = [(i, (i + 1) % c) for i in range(c)]
    n, pos = c, 0
    for k, m in zip(ks, ms):
        for v in range(n, n + m):
            edges.append((pos if v == n else v - 1, v))
        n += m
        pos += k + 1
    return n, edges


def random_tree(rng: random.Random, n: int):
    return n, [(rng.randrange(v), v) for v in range(1, n)]


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def float_rho(n: int, edges) -> float:
    return float(np.linalg.eigvalsh(adjacency(n, edges))[-1])


def graph6(n: int, edges) -> str:
    es = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [int((i, j) in es) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = (int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6))
    return chr(n + 63) + "".join(chr(b + 63) for b in body)


def literal(kind: str, ks, ms) -> str:
    return f"{kind}:ks={','.join(map(str, ks))};ms={','.join(map(str, ms))}"


def family_member(k: int, i: int):
    j = k - i
    return (i, i + j - 1, j), (i, j)


def _parts(rng: random.Random, total: int, count: int, least: int):
    """Random composition of `total` into `count` parts, each >= least."""
    free = total - count * least
    cuts = sorted(rng.randint(0, free) for _ in range(count - 1))
    return tuple(b - a + least for a, b in zip([0] + cuts, cuts + [free]))


def random_quipu(rng: random.Random, n: int):
    """(spec literal, (n, edges)) of a random open or closed quipu."""
    r = rng.randint(1, 4)
    if rng.random() < 0.5:
        parts = _parts(rng, n - r, 2 * r + 1, 1)
        ks, ms = parts[: r + 1], parts[r + 1:]
        return literal("open", ks, ms), open_quipu(ks, ms)
    c = rng.randint(max(3, r), n - r)
    ks, ms = _parts(rng, c - r, r, 0), _parts(rng, n - c, r, 1)
    return literal("closed", ks, ms), closed_quipu(ks, ms)


# ---------------------------------------------------------------------------
# operations

@dataclass
class Op:
    kind: str
    args: tuple
    refs: tuple = ()


def theorem_ops(rng: random.Random, ks) -> list[Op]:
    """verify_theorem(k) for each k, in a seeded order."""
    order = list(ks)
    rng.shuffle(order)
    return [Op("theorem", (k,)) for k in order]


def _grid(lo: int, hi: int, count: int, i: int) -> int:
    """The i-th of `count` values stepping evenly from lo to hi."""
    return lo + (i * (hi - lo + 1)) // count


def certify_op(rng: random.Random, kind: str, i: int, count: int) -> Op:
    """The i-th of `count` fresh queries of one kind."""
    if kind in ("rho", "threshold"):
        tok, ref = random_quipu(rng, _grid(20, 60, count, i))
        return Op(kind, (tok,), (ref,))
    if kind == "compare":
        n = _grid(20, 60, count, i)
        (t1, r1), (t2, r2) = random_quipu(rng, n), random_quipu(rng, n)
        return Op(kind, (t1, t2), (r1, r2))
    if kind == "tie":
        k = _grid(4, 19, count, i)
        members = [family_member(k, j) for j in rng.sample(range(k // 2 + 1), 2)]
        return Op(kind, tuple(literal("open", *m) for m in members),
                  tuple(open_quipu(*m) for m in members))
    if kind == "compose":
        trees = [random_tree(rng, rng.randint(1, 6)) for _ in range(3)]
        roots = [rng.randrange(n) for n, _ in trees]
        return Op(kind, tuple(zip(trees, roots)), (composed(trees, roots),))
    if kind == "dense":
        n, edges = random_tree(rng, _grid(12, 20, count, i))
        present = {frozenset(e) for e in edges}
        target = n - 1 + 2 + i % 5
        while len(present) < target:
            present.add(frozenset(rng.sample(range(n), 2)))
        edges = [tuple(sorted(e)) for e in present]
        return Op(kind, (graph6(n, edges),), ((n, edges),))
    raise ValueError(f"unknown query kind {kind!r}")


def certify_ops(rng: random.Random, scale: float = 1.0) -> list[Op]:
    """The seeded query stream of one pass, in seeded order."""
    ops: list[Op] = []
    for kind, (fresh, repeats) in CERTIFY_MIX.items():
        fresh, repeats = max(1, round(fresh * scale)), round(repeats * scale)
        made = [certify_op(rng, kind, i, fresh) for i in range(fresh)]
        ops += made + rng.choices(made, k=repeats)
    rng.shuffle(ops)
    return ops


def composed(trees, roots):
    """(n, edges) of the three-branch composition: a new center joined to
    the root of tree 2 by an edge and to the roots of trees 1 and 3 by paths
    of length two."""
    edges, offsets, n = [], [], 0
    for tn, tedges in trees:
        offsets.append(n)
        edges.extend((u + n, v + n) for u, v in tedges)
        n += tn
    w1, c, w3 = n, n + 1, n + 2
    edges += [(c, offsets[1] + roots[1]), (c, w1), (w1, offsets[0] + roots[0]),
              (c, w3), (w3, offsets[2] + roots[2])]
    return n + 3, edges


def make_ops(workload: str, seed: int, small: bool = False) -> list[Op]:
    """The operations of one pass. `small` is a cut-down pass for self-tests."""
    rng = random.Random(seed)
    if workload == "theorem":
        return theorem_ops(rng, (3, 4) if small else tuple(THEOREM_WINNERS))
    if workload == "oracle":
        # The two independent oracles at fixed instances. (13, 6) fills the
        # tree and unicyclic caches that (13, 8) then reads, so the order is fixed.
        return [Op("all_graphs", (7, 4)), Op("sparse", (13, 6)), Op("sparse", (13, 8))]
    if workload == "certify":
        return certify_ops(rng, 0.1 if small else 1.0)
    raise ValueError(f"unknown workload {workload!r}")


def execute(op: Op, rm):
    """Run one operation through rhomin's public API, resolving every name at
    call time so that a traced run sees the wrapped functions."""
    fam, ep, search = rm.families, rm.exactpoly, rm.search

    def spec_graph(tok):
        return fam.realize(fam.parse_spec_literal(tok))

    if op.kind == "theorem":
        return search.verify_theorem(*op.args)
    if op.kind == "all_graphs":
        return search.brute_force_all_graphs(*op.args)
    if op.kind == "sparse":
        return search.brute_force_sparse(*op.args)
    if op.kind == "rho":
        return ep.rho_certified_graph(spec_graph(op.args[0]))
    if op.kind == "compare":
        return ep.compare_rho(spec_graph(op.args[0]), spec_graph(op.args[1]))
    if op.kind == "tie":
        return ep.equal_rho_certificate(spec_graph(op.args[0]), spec_graph(op.args[1]))
    if op.kind == "threshold":
        return ep.below_3_over_sqrt2(ep.rho_certified_graph(spec_graph(op.args[0])))
    if op.kind == "compose":
        parts = [rm.transfer.RootedGraph(rm.graphs.build_graph(n, edges), root)
                 for (n, edges), root in op.args]
        return rm.transfer.t_compose_rho(*parts)
    if op.kind == "dense":
        return ep.rho_certified_graph(rm.graphs.graph6_decode(op.args[0]))
    raise ValueError(f"unknown operation {op.kind!r}")


# ---------------------------------------------------------------------------
# checks against the benchmark's own references

def interval_failures(root, lam: float) -> list[str]:
    lo, hi = float(root.lo), float(root.hi)
    if lo - lam > FLOAT_GAP or lam - hi > FLOAT_GAP:
        return [f"certified interval [{lo!r}, {hi!r}] misses eigvalsh {lam!r}"]
    return []


def ordering_failures(order, lam1: float, lam2: float) -> list[str]:
    if abs(lam1 - lam2) <= FLOAT_GAP:
        return []
    want = "Less" if lam1 < lam2 else "Greater"
    if order.value != want:
        return [f"ordering {order.value}, eigvalsh says {want} ({lam1!r} vs {lam2!r})"]
    return []


def same_graphs(got, expected) -> bool:
    """Whether two lists of (n, edges) agree up to isomorphism, as multisets."""
    import networkx as nx

    def nxg(n, edges):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        return g

    left = [nxg(*g) for g in got]
    right = [nxg(*g) for g in expected]
    if len(left) != len(right):
        return False
    for g in left:
        match = next((h for h in right if nx.is_isomorphic(g, h)), None)
        if match is None:
            return False
        right.remove(match)
    return True


def _winner_graphs(report):
    return [(w.graph.n, w.graph.edges()) for w in report.winners]


def check(op: Op, result, winners=THEOREM_WINNERS) -> list[str]:
    """Failures of one operation's output; empty when it is correct."""
    if op.kind == "theorem":
        k = op.args[0]
        report = result.data["report"]
        out = [f"k={k}: {f}" for f in result.failures]
        if not result.passed:
            out.append(f"k={k}: verdict failed")
        if not report.sound:
            out.append(f"k={k}: report not sound")
        if len(report.winners) != winners[k]:
            out.append(f"k={k}: {len(report.winners)} winners, expected {winners[k]}")
        family = [open_quipu(*family_member(k, i)) for i in range(k // 2 + 1)]
        if not same_graphs(_winner_graphs(report), family):
            out.append(f"k={k}: winners are not the tied family")
        out += interval_failures(report.min_rho, float_rho(*open_quipu((k, k), (k,))))
        return out
    if op.kind in ("all_graphs", "sparse"):
        n, d = op.args
        if result.min_rho is None:
            return [f"({n},{d}): no minimizer"]
        out = [] if result.sound else [f"({n},{d}): report not sound"]
        if (n, d) == (13, 8):
            expected = [open_quipu(*family_member(4, i)) for i in range(3)]
            out += interval_failures(result.min_rho, float_rho(*expected[0]))
        else:
            expected = ([open_quipu(*family_member(2, i)) for i in range(2)]
                        if (n, d) == (7, 4) else [(13, [(i, (i + 1) % 13) for i in range(13)])])
            if not (result.min_rho.exact and result.min_rho.lo == 2):
                out.append(f"({n},{d}): minimum is not exactly 2")
        if not same_graphs(_winner_graphs(result), expected):
            out.append(f"({n},{d}): wrong minimizers")
        return out
    if op.kind == "compose":
        return interval_failures(result, float_rho(*op.refs[0]))
    lams = [float_rho(*ref) for ref in op.refs]
    if op.kind in ("rho", "dense"):
        out = interval_failures(result, lams[0])
        if not result.exact and result.hi - result.lo > 1e-12:
            out.append("certified interval wider than the default tolerance")
        return out
    if op.kind == "compare":
        return ordering_failures(result, *lams)
    if op.kind == "tie":
        ok, witness = result
        if not ok or witness is None or witness.factor.degree < 1:
            return ["tied family members lack an equality certificate"]
        if abs(lams[0] - lams[1]) > FLOAT_GAP:
            return [f"certified equal but eigvalsh differs: {lams[0]!r} vs {lams[1]!r}"]
        return []
    if op.kind == "threshold":
        if abs(lams[0] - THREE_OVER_SQRT2) > FLOAT_GAP and result != (lams[0] < THREE_OVER_SQRT2):
            return [f"threshold decision {result} contradicts eigvalsh {lams[0]!r}"]
        return []
    raise ValueError(f"unknown operation {op.kind!r}")


# ---------------------------------------------------------------------------
# report counts

COUNT_KEYS = ("candidates_examined", "screened_out", "float_dropped",
              "exactly_compared", "audited")


def report_counts(report) -> dict[str, int]:
    """Counts from one MinimizerReport, under the quipu search's names.
    brute_force_sparse reports its float-screen drops as `screened_out`;
    the all-graphs oracle reports its exact tournament size as `pool`."""
    s = report.stats
    counts = dict.fromkeys(COUNT_KEYS, 0)
    counts["candidates_examined"] = report.candidates_examined
    counts["audited"] = s.get("audited", 0)
    if report.search_space == "quipu-family":
        for key in ("screened_out", "float_dropped", "exactly_compared"):
            counts[key] = s.get(key, 0)
    elif report.search_space == "sparse":
        counts["float_dropped"] = s.get("screened_out", 0)
        counts["exactly_compared"] = s.get("matched", 0) - s.get("screened_out", 0)
    else:
        counts["exactly_compared"] = s.get("pool", 0)
    return counts


def pass_counts(ops: list[Op], results) -> dict[str, float]:
    total = dict.fromkeys(COUNT_KEYS, 0)
    for op, res in zip(ops, results):
        if res is None or op.kind not in ("theorem", "all_graphs", "sparse"):
            continue
        report = res.data["report"] if op.kind == "theorem" else res
        for key, value in report_counts(report).items():
            total[key] += value
    out = {f"search.{k}": v for k, v in total.items()}
    examined = total["candidates_examined"]
    out["search.exact_share"] = total["exactly_compared"] / examined if examined else 0.0
    return out


# ---------------------------------------------------------------------------
# one pass

def run_pass(rm, workload: str, seed: int, trace: bool, *, small: bool = False,
             spans_path: Path | None = None, winners=THEOREM_WINNERS) -> dict:
    """Run one pass in this process and return its measurements.

    `rm` is the imported rhomin package; `small` and `winners` let the
    self-tests run a cut-down pass and plant a wrong reference.
    """
    ops = make_ops(workload, seed, small)
    tracer = Tracer() if trace else None
    # In a traced pass the clock's handler runs inside the spans and adds its
    # 1 % to 2 % to their self time.
    clock = RefClock()
    if tracer is not None:
        tracer.install()
    results, errors, latencies, latencies_ref = [], {}, [], []
    try:
        clock.start()
        ref0 = clock.read()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            t0, r0 = time.perf_counter(), clock.read()[0]
            try:
                results.append(execute(op, rm))
            except Exception as exc:  # a failing operation is counted, not fatal
                results.append(None)
                errors[i] = f"{op.kind}{op.args!r}: {type(exc).__name__}: {exc}"
            latencies_ref.append(clock.read()[0] - r0)
            latencies.append((time.perf_counter() - t0) * 1e3)
        wall = time.perf_counter() - wall0 - clock.handler_wall_s
        cpu = time.process_time() - cpu0 - clock.handler_cpu_s
        ref1 = clock.read()
    finally:
        clock.stop()
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = []
    for i, (op, res) in enumerate(zip(ops, results)):
        if i in errors:
            failures.append(errors[i])
            continue
        try:
            msgs = check(op, res, winners)
        except Exception as exc:  # malformed output fails its check
            msgs = [f"check raised {type(exc).__name__}: {exc}"]
        if msgs:
            failures.append(f"{op.kind}{op.args!r}: " + "; ".join(msgs))
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": latencies,
        "wall_ref": ref1[0] - ref0[0],
        "cpu_ref": ref1[1] - ref0[1],
        "latencies_ref": latencies_ref,
        "ref_loop_us": 1e6 * statistics.median(clock.samples),
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        "counts": pass_counts(ops, results),
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
        if spans_path is not None:
            tracer.write(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    import rhomin

    src = Path(__file__).resolve().parents[1] / "src"
    if Path(rhomin.__file__).resolve().parent.parent != src:
        print(f"rhomin imported from {rhomin.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = run_pass(rhomin, args.workload, args.seed, bool(args.trace), spans_path=args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
