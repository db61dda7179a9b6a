"""Command-line interface: certified spectral radii, family classification,
enumeration, minimizer searches, and verification batches.

Graphs cross the boundary as graph6 strings or family spec literals
(`open:ks=...;ms=...`, `closed:ks=...;ms=...`, `dagger:t=...`). Exit codes:
0 success/pass, 1 verdict failure, 2 usage error or closed output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .exactpoly import (
    compare_rho,
    poly_to_json,
    charpoly,
    rho_certified_graph,
)
from .families import (
    ClosedQuipu,
    OpenQuipu,
    classify,
    enumerate_quipus,
    parse_spec_literal,
    realize,
    spec_literal,
    spec_to_json,
)
from .graphs import GRAPH6_MAX_N, Graph6Error, graph6_decode, graph6_encode
from .search import (
    brute_force_all_graphs,
    brute_force_sparse,
    minimize_over_quipus,
    rho_k,
    verify_theorem,
)
from .suites import ALL_SUITES, run_suites

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _check_order(n: int) -> None:
    """Every command prints its graphs in graph6, so an order beyond it is
    refused before any work is done."""
    if n > GRAPH6_MAX_N:
        raise Graph6Error(f"only n <= {GRAPH6_MAX_N} supported")


def _load_graph(token: str):
    """A graph argument is either a spec literal or a graph6 string."""
    body = token.removeprefix("spec:")
    if body.startswith(("open:", "closed:", "dagger:")):
        spec = parse_spec_literal(body)
        _check_order(spec.order)
        return realize(spec)
    try:
        return graph6_decode(token)
    except Graph6Error as exc:
        raise ValueError(
            f"not a spec literal or graph6 string: {token!r}"
        ) from exc


def _emit(payload: dict, fmt: str, text_lines):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_rho(args) -> int:
    g = _load_graph(args.graph)
    root = rho_certified_graph(g, args.tolerance)
    payload = {"graph6": graph6_encode(g), "rho": root.to_json()}
    _emit(payload, args.format, [
        f"graph: {graph6_encode(g)}",
        f"rho in ({root.lo}, {root.hi}]" if not root.exact else f"rho = {root.lo}",
        f"rho ~ {root.as_float():.12f}",
    ])
    return EXIT_OK


def cmd_charpoly(args) -> int:
    g = _load_graph(args.graph)
    poly = charpoly(g)
    payload = {"graph6": graph6_encode(g), "charpoly": poly_to_json(poly)}
    _emit(payload, args.format, [
        f"graph: {graph6_encode(g)}",
        "coefficients (lowest degree first): " + " ".join(poly_to_json(poly)),
    ])
    return EXIT_OK


def cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    spec = classify(g)
    payload = {
        "graph6": graph6_encode(g),
        "family": spec_to_json(spec) if spec is not None else None,
        "spec": spec_literal(spec) if spec is not None else None,
    }
    _emit(payload, args.format, [
        f"graph: {graph6_encode(g)}",
        f"family: {spec_literal(spec)}" if spec is not None else "family: none",
    ])
    return EXIT_OK


def _listing_key(spec):
    """The order `enumerate` lists members in: open, closed, dagger; an open
    quipu by its number of branch vertices, then segment sum, ks and ms; a
    closed one with the bare cycle first, then by cycle length, number of
    branch vertices, ks and ms."""
    if isinstance(spec, OpenQuipu):
        return (0, spec.r, sum(spec.ks) if spec.r else 0, spec.ks, spec.ms)
    if isinstance(spec, ClosedQuipu):
        return (1, spec.ms != (0,), spec.cycle_length, spec.r, spec.ks, spec.ms)
    return (2,)


def cmd_enumerate(args) -> int:
    _check_order(args.n)
    kinds = frozenset(args.kinds.split(","))
    specs = sorted(enumerate_quipus(args.n, args.d, kinds), key=_listing_key)
    payload = {
        "n": args.n,
        "d": args.d,
        "count": len(specs),
        "members": [
            {"spec": spec_literal(s), "graph6": graph6_encode(realize(s))}
            for s in specs
        ],
    }
    _emit(payload, args.format,
          [f"{len(specs)} members"] + [spec_literal(s) for s in specs])
    return EXIT_OK


def cmd_minimize(args) -> int:
    if args.space == "all":
        report = brute_force_all_graphs(args.n, args.d)
    elif args.space == "sparse":
        report = brute_force_sparse(args.n, args.d)
    else:
        _check_order(args.n)
        report = minimize_over_quipus(args.n, args.d)
    payload = report.to_json()
    lines = [
        f"search space: {report.search_space}  candidates: {report.candidates_examined}",
        f"sound: {report.sound}",
    ]
    if report.min_rho is not None:
        lines.append(f"min rho ~ {report.min_rho.as_float():.12f}")
    for w in payload["winners"]:
        lines.append(f"winner: {w['graph6']}  {w['spec'] or ''}".rstrip())
    _emit(payload, args.format, lines)
    if report.min_rho is None:
        return EXIT_FAIL
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    if args.k < 2:
        raise ValueError("need k >= 2")
    _check_order(3 * args.k + 1)
    ks = range(2, args.k + 1) if args.all_up_to else [args.k]
    rows = []
    ok = True
    for k in ks:
        verdict = verify_theorem(k)
        report = verdict.data["report"]
        root = rho_k(k)
        rows.append({
            "k": k,
            "n": 3 * k + 1,
            "d": 2 * k,
            "winners": len(report.winners),
            "rho_lo": str(root.lo),
            "rho_hi": str(root.hi),
            "passed": verdict.passed,
            "failures": verdict.failures,
            "winner_graph6": [graph6_encode(w.graph) for w in report.winners],
        })
        ok = ok and verdict.passed
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["k", "n", "d", "winners", "rho_lo", "rho_hi", "passed"])
        for r in rows:
            writer.writerow([r["k"], r["n"], r["d"], r["winners"],
                             r["rho_lo"], r["rho_hi"], r["passed"]])
        sys.stdout.write(buf.getvalue())
    else:
        _emit({"results": rows, "passed": ok}, args.format, [
            f"k={r['k']}: {'pass' if r['passed'] else 'FAIL'} "
            f"({r['winners']} winners) " + " ".join(r["winner_graph6"])
            for r in rows
        ])
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify_lemmas(args) -> int:
    names = [args.suite] if args.suite else None
    results = run_suites(names)
    ok = all(r.passed for r in results)
    payload = {
        "passed": ok,
        "suites": [
            {"name": r.name, "passed": r.passed, "checks": r.checks,
             "failures": r.failures}
            for r in results
        ],
    }
    _emit(payload, args.format, [
        f"{r.name}: {'pass' if r.passed else 'FAIL'} ({r.checks} checks)"
        + ("" if r.passed else " " + "; ".join(r.failures))
        for r in results
    ])
    return EXIT_OK if ok else EXIT_FAIL


def cmd_compare(args) -> int:
    g1, g2 = _load_graph(args.graph1), _load_graph(args.graph2)
    order = compare_rho(g1, g2)
    payload = {
        "graph1": graph6_encode(g1),
        "graph2": graph6_encode(g2),
        "ordering": order.value,
    }
    _emit(payload, args.format, [order.value])
    return EXIT_OK


def _tolerance(text: str) -> Fraction:
    try:
        tol = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    if tol <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhomin",
        description="Exact spectral-radius minimization over graphs of "
                    "fixed order and diameter.",
    )
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output rendering")
    parser.add_argument("--tolerance", type=_tolerance, default="1/1000000000000",
                        help="interval width target for certified roots (> 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rho", help="certified spectral radius")
    p.add_argument("graph", help="graph6 string or spec literal")
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("charpoly", help="exact characteristic polynomial")
    p.add_argument("graph")
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("classify", help="parse a graph into a family spec")
    p.add_argument("graph")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="all family members with (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--kinds", default="open,closed,dagger")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("minimize", help="minimum spectral radius at (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--space", choices=("all", "sparse", "quipu"),
                   default="quipu")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("verify-theorem",
                       help="check the tied-family minimizers at (3k+1, 2k)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--all-up-to", action="store_true",
                   help="run every k from 2 up to --k")
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("verify-lemmas", help="run the property suites")
    p.add_argument("--suite", choices=sorted(ALL_SUITES), default=None)
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("compare", help="exact ordering of two spectral radii")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed our output; point stdout at devnull so that the
        # interpreter's last flush does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
