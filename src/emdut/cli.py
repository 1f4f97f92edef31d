"""Command-line front end: solve, generate, and benchmark.

Solve results go to stdout as a single JSON object with exact rational
values rendered as reduced "p" or "p/q" strings.  Exit codes: 0 on
success, 1 when a candidate budget is exhausted, 2 on bad input (with a
one-line diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from fractions import Fraction

from .core import (
    Metric,
    PointFormatError,
    PointSet,
    format_scalar,
    parse_point_set,
    point_set_1d,
    serialize_point_set,
)
from .emd import emd_1d_monotone, emd_bruteforce, emd_hungarian
from .emdut_hd import DEFAULT_BUDGET, BudgetExceeded, emdut_hd
# candidate_translations is unused here but kept importable: the benchmark's
# tracer patches ``emdut.cli.candidate_translations`` by name.
from .emdut_hd import candidate_translations  # noqa: F401
from .hardness import (
    Graph,
    OVInstance,
    clique_instance,
    ov_reduction,
)
from .sweep1d import emdut_1d_sweep, emdut_1d_symmetric, emdut_1d_alignment_oracle

EXIT_OK = 0
EXIT_BUDGET = 1
EXIT_INPUT = 2


class InputError(ValueError):
    pass


def _read_points(path: str) -> PointSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_point_set(fh.read())
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except PointFormatError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _matching_pairs(phi) -> list:
    return [[b, r] for b, r in enumerate(phi)]


def _cmd_solve(args) -> int:
    blue = _read_points(args.blue)
    red = _read_points(args.red)
    t0 = time.perf_counter()
    stats = {"events": None, "candidates": None, "evaluated": None}
    translation = None
    if args.solver == "emd":
        metric = Metric.parse(args.metric)
        if args.algorithm == "monotone":
            value, phi = emd_1d_monotone(blue, red)
        elif args.algorithm == "bruteforce":
            value = emd_bruteforce(blue, red, metric)
            phi = None
        else:
            value, phi = emd_hungarian(blue, red, metric)
        algorithm = args.algorithm
    elif args.solver == "emdut1d":
        if args.algorithm == "symmetric":
            value, tau, phi = emdut_1d_symmetric(blue, red)
            translation = (tau,)
        elif args.algorithm == "oracle":
            value = emdut_1d_alignment_oracle(blue, red)
            phi = None
            translation = None
        else:
            value, tau, phi, sw = emdut_1d_sweep(blue, red, return_stats=True)
            translation = (tau,)
            stats["events"] = sw.events
        algorithm = args.algorithm
    else:  # emdut-hd
        metric = Metric.parse(args.metric)
        value, tau, phi, stats["candidates"], stats["evaluated"] = emdut_hd(
            blue, red, metric, args.budget, return_stats=True
        )
        translation = tau
        algorithm = f"arrangement-{metric.value}"
    stats["millis"] = round((time.perf_counter() - t0) * 1000, 3)
    payload = {
        "value": format_scalar(value),
        "algorithm": algorithm,
        "stats": stats,
    }
    if translation is not None:
        payload["translation"] = [format_scalar(t) for t in translation]
    if phi is not None:
        payload["matching"] = _matching_pairs(phi)
    _emit(payload)
    return EXIT_OK


def _read_vectors(path: str) -> tuple:
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    rows.append(tuple(int(tok) for tok in line.split()))
                except ValueError:
                    raise InputError(f"{path}: line {line_no}: expected 0/1 entries")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    if not rows:
        raise InputError(f"{path}: no vectors")
    return tuple(rows)


def _read_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    if not lines:
        raise InputError(f"{path}: empty graph file")
    try:
        n_nodes = int(lines[0])
        edges = [tuple(int(t) for t in ln.split()) for ln in lines[1:]]
        if any(len(e) != 2 for e in edges):
            raise ValueError
    except ValueError:
        raise InputError(f"{path}: expected 'N' then 'u v' edge lines")
    try:
        return Graph.from_edges(n_nodes, edges)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _meta_json(meta: dict) -> dict:
    out = {}
    for key, val in meta.items():
        if isinstance(val, Fraction):
            out[key] = format_scalar(val)
        elif isinstance(val, tuple):
            out[key] = [list(v) if isinstance(v, tuple) else v for v in val]
        else:
            out[key] = val
    return out


def _cmd_gen(args) -> int:
    if args.family == "ov":
        xs = _read_vectors(args.vectors[0])
        ys = _read_vectors(args.vectors[1])
        try:
            gi = ov_reduction(OVInstance(xs, ys))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    else:
        graph = _read_graph(args.graph)
        try:
            gi = clique_instance(graph, args.k, args.variant)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    prefix = args.out_prefix
    blue_path = f"{prefix}_blue.txt"
    red_path = f"{prefix}_red.txt"
    meta_path = f"{prefix}_meta.json"
    sidecar = {
        "lambda": format_scalar(gi.lam),
        "metric": gi.metric.value,
        "params": _meta_json(gi.meta),
    }
    try:
        with open(blue_path, "w", encoding="utf-8") as fh:
            fh.write(serialize_point_set(gi.blue))
        with open(red_path, "w", encoding="utf-8") as fh:
            fh.write(serialize_point_set(gi.red))
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"{exc.filename or prefix}: {exc.strerror or exc}") from exc
    _emit({"blue": blue_path, "red": red_path, "meta": meta_path,
           "points": [len(gi.blue), len(gi.red)]})
    return EXIT_OK


def bench_instance(size: int, seed: int) -> tuple[PointSet, PointSet]:
    """Deterministic symmetric instance for one bench row."""
    rng = random.Random(seed * 1_000_003 + size)
    lo, hi = 0, 10 * size
    blue = point_set_1d([rng.randint(lo, hi) for _ in range(size)])
    red = point_set_1d([rng.randint(lo, hi) for _ in range(size)])
    return blue, red


def _cmd_bench(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    except ValueError:
        raise InputError(f"bad --sizes {args.sizes!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise InputError("--sizes needs positive integers")
    sys.stdout.write("n,m,events,millis\n")
    for size in sizes:
        blue, red = bench_instance(size, args.seed)
        t0 = time.perf_counter()
        _, _, _, stats = emdut_1d_sweep(blue, red, return_stats=True)
        millis = (time.perf_counter() - t0) * 1000
        sys.stdout.write(f"{size},{size},{stats.events},{millis:.3f}\n")
        sys.stdout.flush()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emdut",
        description="Exact Earth Mover's Distance under Translation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance from point-set files")
    solve_sub = solve.add_subparsers(dest="solver", required=True)
    for name in ("emd", "emdut1d", "emdut-hd"):
        sp = solve_sub.add_parser(name)
        sp.add_argument("--blue", required=True, help="blue point-set file")
        sp.add_argument("--red", required=True, help="red point-set file")
        if name == "emd":
            sp.add_argument("--metric", default="l1", help="l1 or linf")
            sp.add_argument(
                "--algorithm",
                default="hungarian",
                choices=["hungarian", "monotone", "bruteforce"],
            )
        elif name == "emdut1d":
            sp.add_argument(
                "--algorithm",
                default="sweep",
                choices=["sweep", "symmetric", "oracle"],
            )
        else:
            sp.add_argument("--metric", default="l1", help="l1 or linf")
            sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                            help="candidate-enumeration budget")

    gen = sub.add_parser("gen", help="generate a hardness instance")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    gov = gen_sub.add_parser("ov")
    gov.add_argument("--vectors", nargs=2, required=True,
                     metavar=("X.txt", "Y.txt"),
                     help="binary vector files, one vector per line")
    gov.add_argument("--out-prefix", required=True)
    gcl = gen_sub.add_parser("clique")
    gcl.add_argument("--variant", required=True,
                     choices=["l1-asym", "l1-sym", "linf-sym"])
    gcl.add_argument("--k", type=int, required=True)
    gcl.add_argument("--graph", required=True,
                     help="graph file: first line N, then 'u v' edge lines")
    gcl.add_argument("--out-prefix", required=True)

    bench = sub.add_parser("bench", help="scaling benchmark, CSV on stdout")
    bench_sub = bench.add_subparsers(dest="target", required=True)
    bsweep = bench_sub.add_parser("sweep")
    bsweep.add_argument("--sizes", default="250,500,1000,2000")
    bsweep.add_argument("--seed", type=int, default=0)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use.

    Parsing leaves no state in it, and building one takes about a
    millisecond, which in-process callers of :func:`main` would otherwise
    pay on every call.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_bench(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
