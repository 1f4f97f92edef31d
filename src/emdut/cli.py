"""Command-line front end: solve, generate, and benchmark.

Solve results go to stdout as a single JSON object with exact rational
values rendered as reduced "p" or "p/q" strings.  Exit codes: 0 on
success, 1 when a candidate budget is exhausted, 2 on bad input (with a
one-line diagnostic on stderr).  Bad input is any ``ValueError``, from
the library or from an input file; every input file is read by
:func:`_read`, so each failure to open, decode or parse one names the
file.  :func:`main` alone turns it and ``BudgetExceeded`` into exit codes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from fractions import Fraction

from .core import (
    Metric,
    PointSet,
    _numbered_fields,
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


def _read(path: str, parse):
    """``parse`` of the text of an input file.  Whatever fails, opening,
    decoding or parsing, is a ``ValueError`` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _emit(payload) -> None:
    # one write: json.dump would stream the text in many small chunks
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _cmd_solve(args) -> int:
    blue = _read(args.blue, parse_point_set)
    red = _read(args.red, parse_point_set)
    t0 = time.perf_counter()
    stats = {"events": None, "candidates": None, "evaluated": None}
    metric = Metric.parse(args.metric) if "metric" in args else None
    algorithm = getattr(args, "algorithm", None)
    translation = phi = None
    if args.solver == "emdut-hd":
        value, translation, phi, stats["candidates"], stats["evaluated"] = emdut_hd(
            blue, red, metric, args.budget, return_stats=True
        )
        algorithm = f"arrangement-{metric.value}"
    elif algorithm == "hungarian":
        value, phi = emd_hungarian(blue, red, metric)
    elif algorithm == "monotone":
        value, phi = emd_1d_monotone(blue, red)
    elif algorithm == "bruteforce":
        value = emd_bruteforce(blue, red, metric)
    elif algorithm == "sweep":
        value, tau, phi, sw = emdut_1d_sweep(blue, red, return_stats=True)
        translation = (tau,)
        stats["events"] = sw.events
    elif algorithm == "symmetric":
        value, tau, phi = emdut_1d_symmetric(blue, red)
        translation = (tau,)
    else:
        value = emdut_1d_alignment_oracle(blue, red)
    stats["millis"] = round((time.perf_counter() - t0) * 1000, 3)
    payload = {
        "value": format_scalar(value),
        "algorithm": algorithm,
        "stats": stats,
    }
    if translation is not None:
        payload["translation"] = [format_scalar(t) for t in translation]
    if phi is not None:
        payload["matching"] = [[b, r] for b, r in enumerate(phi)]
    _emit(payload)
    return EXIT_OK


def _parse_vectors(text: str) -> tuple:
    rows = []
    for line_no, fields in _numbered_fields(text):
        try:
            rows.append(tuple(map(int, fields)))
        except ValueError:
            raise ValueError(f"line {line_no}: expected 0/1 entries")
    if not rows:
        raise ValueError("no vectors")
    return tuple(rows)


def _parse_graph(text: str) -> Graph:
    lines = [fields for _, fields in _numbered_fields(text)]
    if not lines:
        raise ValueError("empty graph file")
    try:
        (n_nodes,) = map(int, lines[0])
        edges = [tuple(map(int, fields)) for fields in lines[1:]]
        if any(len(e) != 2 for e in edges):
            raise ValueError
    except ValueError:
        raise ValueError("expected 'N' then 'u v' edge lines")
    return Graph.from_edges(n_nodes, edges)


def _cmd_gen(args) -> int:
    if args.family == "ov":
        xs, ys = (_read(path, _parse_vectors) for path in args.vectors)
        gi = ov_reduction(OVInstance(xs, ys))
    else:
        graph = _read(args.graph, _parse_graph)
        gi = clique_instance(graph, args.k, args.variant)
    prefix = args.out_prefix
    # json writes the tuples of meta as lists; only Fractions need a format
    params = {key: format_scalar(val) if isinstance(val, Fraction) else val
              for key, val in gi.meta.items()}
    sidecar = {
        "lambda": format_scalar(gi.lam),
        "metric": gi.metric.value,
        "params": params,
    }
    texts = {
        f"{prefix}_blue.txt": serialize_point_set(gi.blue),
        f"{prefix}_red.txt": serialize_point_set(gi.red),
        f"{prefix}_meta.json": json.dumps(sidecar, indent=2) + "\n",
    }
    written = []
    try:
        for path, text in texts.items():
            with open(path, "w", encoding="utf-8") as fh:
                written.append(path)
                fh.write(text)
    except OSError as exc:
        for path in written:  # all three files or none
            os.remove(path)
        raise ValueError(f"{exc.filename or prefix}: {exc.strerror or exc}") from exc
    blue_path, red_path, meta_path = texts
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
        raise ValueError(f"bad --sizes {args.sizes!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("--sizes needs positive integers")
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
    for name, algorithms in (("emd", ("hungarian", "monotone", "bruteforce")),
                             ("emdut1d", ("sweep", "symmetric", "oracle")),
                             ("emdut-hd", ())):
        sp = solve_sub.add_parser(name)
        sp.add_argument("--blue", required=True, help="blue point-set file")
        sp.add_argument("--red", required=True, help="red point-set file")
        if name != "emdut1d":
            sp.add_argument("--metric", default="l1", help="l1 or linf")
        if algorithms:
            sp.add_argument("--algorithm", default=algorithms[0], choices=algorithms)
        else:
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
