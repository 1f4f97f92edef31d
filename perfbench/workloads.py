"""Seeded workloads for the emdut benchmark.

Each workload turns a seed into a pool of instances, writes them as
point-set (or vector) files, and describes one operation per instance:
a short list of ``emdut`` command lines that a client would run, plus an
exact checker for what those commands print.  The solver sees only the
files; the seed never reaches it.

Why each workload exists, which layers it stresses and which it
bypasses, is recorded in ``BENCHMARK.json`` next to the workload name.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from emdut.core import (
    Metric,
    PointSet,
    matching_cost,
    point_set,
    point_set_1d,
    serialize_point_set,
    validate_matching,
)
from emdut.emd import emd_1d_monotone
from emdut.hardness import OVInstance, has_orthogonal_pair, ov_reduction


class CheckFailed(Exception):
    """The program printed an answer that is not exactly right."""


@dataclass
class Op:
    """One closed-loop operation: CLI calls run in order, then a check.

    ``check`` receives the parsed JSON each call printed and raises
    :class:`CheckFailed` when the final answer is wrong.
    """

    calls: list
    check: Callable[[list], None]


@dataclass
class Pool:
    ops: list
    digest: str  # sha256 over every file the pool wrote, in write order


# Per-workload sizes.  "full" is what the benchmark measures; "tiny" keeps
# the benchmark's own tests fast while running the same code paths (except
# that tiny sweep runs stay below the tree-envelope cutoff).
SIZES = {
    "sweep_asym": {"full": dict(m=65, pool=64),
                   "tiny": dict(m=8, pool=4)},
    "ov_decide": {"full": dict(vectors=3, dim=2, pool=128),
                  "tiny": dict(vectors=1, dim=1, pool=4)},
    "hd_planar": {"full": dict(m=3, n=6, pool=128),
                  "tiny": dict(m=2, n=3, pool=4)},
    "emd_witness": {"full": dict(m=16, n=24, pool=128),
                    "tiny": dict(m=4, n=6, pool=4)},
}
WORKLOADS = tuple(SIZES)


class _Writer:
    """Writes instance files under one directory and hashes their bytes."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.sha = hashlib.sha256()
        os.makedirs(workdir, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        data = text.encode("utf-8")
        self.sha.update(name.encode("utf-8") + b"\0" + data)
        with open(path, "wb") as fh:
            fh.write(data)
        return path


# ---------------------------------------------------------------------------
# exact checks
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _answer(payload: dict, dim: int):
    """(value, translation, matching) from one ``solve`` JSON object."""
    value = Fraction(payload["value"])
    tau = tuple(Fraction(t) for t in payload.get("translation", ["0"] * dim))
    pairs = sorted(payload["matching"])
    _require([b for b, _ in pairs] == list(range(len(pairs))),
             f"matching does not cover blues 0..{len(pairs) - 1} once each")
    return value, tau, [r for _, r in pairs]


def check_matching(payload: dict, blue: PointSet, red: PointSet,
                   metric: Metric) -> tuple:
    """The matching is injective and costs exactly the reported value."""
    value, tau, phi = _answer(payload, blue.dim)
    _require(len(tau) == blue.dim, "translation has the wrong dimension")
    try:
        validate_matching(phi, len(blue), len(red))
    except ValueError as exc:
        raise CheckFailed(str(exc)) from exc
    cost = matching_cost(blue, red, metric, phi, tau)
    _require(cost == value, f"matching costs {cost}, reported value {value}")
    return value, tau


def check_1d(payload: dict, blue: PointSet, red: PointSet) -> Fraction:
    """Matching check plus: the value is the 1D EMD at the translation."""
    value, tau = check_matching(payload, blue, red, Metric.L1)
    emd, _ = emd_1d_monotone(blue.translate(tau), red)
    _require(emd == value, f"1D EMD at tau={tau} is {emd}, reported {value}")
    return value


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _solve_1d(blue_path: str, red_path: str) -> list:
    return ["solve", "emdut1d", "--blue", blue_path, "--red", red_path]


def _sweep_asym(rng: random.Random, w: _Writer, m: int, pool: int) -> list:
    # n = 2m random integers: the sweep makes thousands of run
    # reassignments, and m > 64 makes ``auto`` pick the tree envelope.
    # A single m keeps the spread of solve times down to the instances'.
    n = 2 * m
    ops = []
    for k in range(pool):
        blue = point_set_1d([rng.randint(0, 10 * n) for _ in range(m)])
        red = point_set_1d([rng.randint(0, 10 * n) for _ in range(n)])
        bp = w.write(f"sa{k}_blue.txt", serialize_point_set(blue))
        rp = w.write(f"sa{k}_red.txt", serialize_point_set(red))

        def check(outs, blue=blue, red=red):
            check_1d(outs[-1], blue, red)

        ops.append(Op([_solve_1d(bp, rp)], check))
    return ops


def _ov_decide(rng: random.Random, w: _Writer, vectors: int, dim: int,
               pool: int) -> list:
    # Densities alternate so that both yes and no instances occur.
    ops = []
    for k in range(pool):
        density = 0.5 if k % 2 == 0 else 0.85
        xs, ys = (
            tuple(tuple(int(rng.random() < density) for _ in range(dim))
                  for _ in range(vectors))
            for _side in range(2)
        )
        inst = OVInstance(xs, ys)
        gi = ov_reduction(inst)
        yes = has_orthogonal_pair(inst)
        xp = w.write(f"ov{k}_x.txt", "".join(" ".join(map(str, v)) + "\n" for v in xs))
        yp = w.write(f"ov{k}_y.txt", "".join(" ".join(map(str, v)) + "\n" for v in ys))
        prefix = os.path.join(w.workdir, f"ov{k}")

        def check(outs, gi=gi, yes=yes, prefix=prefix):
            with open(f"{prefix}_meta.json", encoding="utf-8") as fh:
                lam = Fraction(json.load(fh)["lambda"])
            _require(lam == gi.lam, f"meta lambda {lam}, expected {gi.lam}")
            value = check_1d(outs[-1], gi.blue, gi.red)
            _require((value <= lam) == yes,
                     f"value {value} vs lambda {lam} disagrees with OV answer {yes}")
            if yes:
                _require(value == lam, f"yes-instance value {value} != lambda {lam}")
            else:
                _require(value >= lam + 1, f"no-instance value {value} < lambda + 1")

        gen = ["gen", "ov", "--vectors", xp, yp, "--out-prefix", prefix]
        ops.append(Op([gen, _solve_1d(f"{prefix}_blue.txt", f"{prefix}_red.txt")],
                      check))
    return ops


def _planar(rng: random.Random, count: int, lim: int) -> PointSet:
    return point_set(2, [(rng.randint(-lim, lim), rng.randint(-lim, lim))
                         for _ in range(count)])


def _hd_planar(rng: random.Random, w: _Writer, m: int, n: int, pool: int) -> list:
    # One operation solves the instance under L1 and then Linf.  Their
    # costs differ about tenfold, so pairing them keeps the per-operation
    # time distribution unimodal and its median meaningful.
    ops = []
    for k in range(pool):
        blue, red = _planar(rng, m, 20), _planar(rng, n, 20)
        bp = w.write(f"hd{k}_blue.txt", serialize_point_set(blue))
        rp = w.write(f"hd{k}_red.txt", serialize_point_set(red))

        def check(outs, blue=blue, red=red):
            check_matching(outs[0], blue, red, Metric.L1)
            check_matching(outs[1], blue, red, Metric.LINF)

        calls = [["solve", "emdut-hd", "--blue", bp, "--red", rp, "--metric", met]
                 for met in ("l1", "linf")]
        ops.append(Op(calls, check))
    return ops


def _emd_witness(rng: random.Random, w: _Writer, m: int, n: int, pool: int) -> list:
    ops = []
    for k in range(pool):
        metric = Metric.L1 if k % 2 == 0 else Metric.LINF
        blue, red = _planar(rng, m, 1000), _planar(rng, n, 1000)
        bp = w.write(f"ew{k}_blue.txt", serialize_point_set(blue))
        rp = w.write(f"ew{k}_red.txt", serialize_point_set(red))

        def check(outs, blue=blue, red=red, metric=metric):
            check_matching(outs[-1], blue, red, metric)

        calls = [["solve", "emd", "--blue", bp, "--red", rp,
                  "--metric", metric.value, "--algorithm", "hungarian"]]
        ops.append(Op(calls, check))
    return ops


_GENERATORS = {
    "sweep_asym": _sweep_asym,
    "ov_decide": _ov_decide,
    "hd_planar": _hd_planar,
    "emd_witness": _emd_witness,
}


def build(workload: str, seed: int, workdir: str, size: str = "full") -> Pool:
    """Generate the workload's instance pool from ``seed`` into ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    writer = _Writer(workdir)
    ops = _GENERATORS[workload](rng, writer, **SIZES[workload][size])
    return Pool(ops, writer.sha.hexdigest())
