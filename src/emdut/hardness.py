"""Generators of adversarial instances with exact decision thresholds.

Two reduction families turn combinatorial problems into translation-EMD
instances whose optimal value either equals a threshold (yes-instances)
or exceeds it by at least 1 (no-instances):

* orthogonal-vector instances become 1D asymmetric instances built from
  per-vector point gadgets placed on widely separated cells, and
* k-clique instances become d-dimensional L1 or Linf instances built
  from per-coordinate-pair gadgets spread far apart along the first
  axis, so the optimal cost splits into a sum of per-gadget costs.

Each generator returns a :class:`GadgetInstance` carrying the combined
point sets, the exact threshold, the unshifted gadget list, and every
construction constant, so tests can recompute the threshold
independently.  A clique generator counts its coordinates from k and
|E| first and refuses more than ``CLIQUE_COORD_GUARD`` of them.  The
decisions compare the EMDuT with the threshold:
the 1D sweep solves OV instances, and :func:`emdut_hd` the combined L1
clique instances.  ``linf-sym`` is beyond the solver, so its value is
the witness-grid minimum of the summed gadget costs: >= lam + 1 on
no-instances by the construction, but not the EMDuT.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import Metric, PointSet, point_set, point_set_1d
from .emd import _as_int_matrix, _assignment_value, _cost_matrix
# _min_cost_assignment is unused here but kept importable: the benchmark's
# tracer patches ``emdut.hardness._min_cost_assignment`` by name.
from .emd import _min_cost_assignment  # noqa: F401
from .emdut_hd import emdut_hd
from .sweep1d import emdut_1d_sweep

OV_PAIR_GUARD = 4_000_000  # max |B|*|R| the 1D decision procedure accepts
# max coordinates (points times d) a clique generator writes; the output
# grows as k^3 * |E|, so a small graph with a large k would run for hours
CLIQUE_COORD_GUARD = 4_000_000


@dataclass(frozen=True)
class OVInstance:
    """Two equal-size lists of binary vectors of a common dimension."""

    x_vectors: tuple[tuple[int, ...], ...]
    y_vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.x_vectors or len(self.x_vectors) != len(self.y_vectors):
            raise ValueError("need equally many vectors on both sides, at least one")
        d = len(self.x_vectors[0])
        if d < 1:
            raise ValueError("vector dimension must be >= 1")
        for v in self.x_vectors + self.y_vectors:
            if len(v) != d:
                raise ValueError("inconsistent vector dimensions")
            if any(bit not in (0, 1) for bit in v):
                raise ValueError(f"non-binary entry in vector {v}")

    @property
    def dim(self) -> int:
        return len(self.x_vectors[0])


def has_orthogonal_pair(inst: OVInstance) -> bool:
    return any(
        all(a * b == 0 for a, b in zip(x, y))
        for x in inst.x_vectors
        for y in inst.y_vectors
    )


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 1..n_nodes; edges stored as u < v."""

    n_nodes: int
    edges: frozenset

    def __post_init__(self):
        for e in self.edges:
            u, v = e
            if not (1 <= u < v <= self.n_nodes):
                raise ValueError(f"bad edge {e} for {self.n_nodes} nodes")

    @classmethod
    def from_edges(cls, n_nodes: int, edges: Iterable[Sequence[int]]) -> "Graph":
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            norm.add((min(u, v), max(u, v)))
        return cls(n_nodes, frozenset(norm))

    def adjacent(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def has_clique(g: Graph, k: int) -> bool:
    if k <= 1:
        return k == 1 and g.n_nodes >= 1 or k <= 0
    for nodes in itertools.combinations(range(1, g.n_nodes + 1), k):
        if all(g.adjacent(u, v) for u, v in itertools.combinations(nodes, 2)):
            return True
    return False


@dataclass(frozen=True)
class GadgetInstance:
    """A generated instance plus its exact decision threshold.

    ``parts`` holds the unshifted gadget pairs; the combined sets place
    gadget i at offset U*i along the first axis.  The decision semantics
    are: optimal value <= lam exactly when the encoded witness exists,
    and >= lam + 1 otherwise.
    """

    blue: PointSet
    red: PointSet
    lam: Fraction
    metric: Metric
    parts: tuple
    meta: dict


# ---------------------------------------------------------------------------
# orthogonal-vector gadgets (1D)
# ---------------------------------------------------------------------------


def ov_red_gadget(x: Sequence[int]) -> PointSet:
    """Red vector gadget: dense anchor blocks plus per-bit slot patterns.

    Width is 4d+1.  Bit i contributes the full slot {4i-3..4i} when 0 and
    the inner slot {4i-2, 4i-1} when 1, so a blue gadget fits at offset 0
    with zero cost exactly when the vectors are orthogonal.
    """
    d = len(x)
    if d < 1 or any(b not in (0, 1) for b in x):
        raise ValueError("vector entries must be 0/1, dimension >= 1")
    pts = [0] * (8 * d) + [4 * d + 1] * (8 * d)
    for i in range(1, d + 1):
        if x[i - 1] == 0:
            pts.extend([4 * i - 3, 4 * i - 2, 4 * i - 1, 4 * i])
        else:
            pts.extend([4 * i - 2, 4 * i - 1])
    return point_set_1d(pts)


def ov_blue_gadget(y: Sequence[int]) -> PointSet:
    """Blue vector gadget: two endpoint points plus one slot pair per bit."""
    d = len(y)
    if d < 1 or any(b not in (0, 1) for b in y):
        raise ValueError("vector entries must be 0/1, dimension >= 1")
    pts = [0, 4 * d + 1]
    for i in range(1, d + 1):
        if y[i - 1] == 0:
            pts.extend([4 * i - 2, 4 * i - 1])
        else:
            pts.extend([4 * i - 3, 4 * i])
    return point_set_1d(pts)


def ov_reduction(inst: OVInstance) -> GadgetInstance:
    """1D instance whose optimal value is lam iff an orthogonal pair exists.

    Vectors are padded with an all-ones vector when needed to make the
    cell parameter n = (#vectors + 1) even.  Blue cell j sits at offset
    j*n*delta; each red vector gets five copies, copy k of vector i at
    offset (i + k*n)*(n-1)*delta, which makes the red cells periodic and
    pins every near-optimal translation to a near-alignment of exactly
    one blue/red cell pair.
    """
    xs = list(inst.x_vectors)
    ys = list(inst.y_vectors)
    d = inst.dim
    if (len(xs) + 1) % 2 == 1:
        ones = tuple([1] * d)
        xs.append(ones)
        ys.append(ones)
    n = len(xs) + 1
    if d > n:
        raise ValueError(f"vector dimension {d} exceeds cell parameter {n}")
    delta = 1000 * d * n
    blue_pts: list[int] = []
    for j in range(1, n):
        shift = j * n * delta
        blue_pts.extend(int(p[0]) + shift for p in ov_blue_gadget(ys[j - 1]).points)
    # Red cell indices must be contiguous: cell c sits at c*(n-1)*delta and
    # holds vector ((c-1) mod (n-1)) + 1, so five copies of each vector tile
    # the index range [n, 6(n-1)] without gaps.  A gap would let a blue cell's
    # nearest-cell distance exceed the wrapped-distance accounting that the
    # threshold below is computed from.
    red_pts: list[int] = []
    for i in range(1, n):
        gadget = [int(p[0]) for p in ov_red_gadget(xs[i - 1]).points]
        for k in range(1, 6):
            shift = (i + k * (n - 1)) * (n - 1) * delta
            red_pts.extend(p + shift for p in gadget)
    # Far-field gadget cost is c1*|tau| - c2 with c2 = 4d^2+5d+1 (verified
    # exhaustively over bit patterns); each of the n-2 unaligned blue cells
    # therefore contributes dist*c1 - c2, and the aligned distances sum to
    # delta*n*(n-2)/4, giving the exact yes-instance value below.
    c1 = 2 * (d + 1)
    c2 = 4 * d * d + 5 * d + 1
    lam = Fraction(c1 * delta * n * (n - 2), 4) - c2 * (n - 2)
    meta = {
        "d": d,
        "n": n,
        "delta": delta,
        "w": 4 * d + 1,
        "c1": c1,
        "c2": c2,
        "x_vectors": tuple(tuple(x) for x in xs),
        "y_vectors": tuple(tuple(y) for y in ys),
    }
    return GadgetInstance(
        blue=point_set_1d(blue_pts),
        red=point_set_1d(red_pts),
        lam=lam,
        metric=Metric.L1,
        parts=(),
        meta=meta,
    )


def decide_ov(inst: OVInstance) -> bool:
    """True iff the generated instance solves to a value at or below lam."""
    gi = ov_reduction(inst)
    if len(gi.blue) * len(gi.red) > OV_PAIR_GUARD:
        raise ValueError(
            f"instance with {len(gi.blue)}x{len(gi.red)} points exceeds the "
            f"decision guard of {OV_PAIR_GUARD} pairs"
        )
    value, _, _ = emdut_1d_sweep(gi.blue, gi.red)
    return value <= gi.lam


# ---------------------------------------------------------------------------
# gadget combination
# ---------------------------------------------------------------------------


def combination_spacing(gadgets: Sequence[tuple[PointSet, PointSet]]) -> tuple:
    """(L1 diameter of the joint bounding box, spacing U) for a gadget list."""
    dim = gadgets[0][0].dim
    total = sum(len(b) + len(r) for b, r in gadgets)
    los = [None] * dim
    his = [None] * dim
    for b, r in gadgets:
        for ps in (b, r):
            for p in ps.points:
                for a in range(dim):
                    if los[a] is None or p[a] < los[a]:
                        los[a] = p[a]
                    if his[a] is None or p[a] > his[a]:
                        his[a] = p[a]
    diameter = sum((hi - lo for lo, hi in zip(los, his)), Fraction(0))
    spacing = (2 * total + 5) * diameter
    if spacing == 0:
        spacing = Fraction(1)  # degenerate all-equal gadgets still separate
    return diameter, spacing


def combine_gadgets(
    gadgets: Sequence[tuple[PointSet, PointSet]]
) -> tuple[PointSet, PointSet]:
    """Concatenate gadgets far apart along axis 1 so costs add per gadget.

    With spacing U = (2n+5) * diameter, any optimal matching stays within
    a gadget, so the optimal value of the combined instance equals
    min over tau of the sum of per-gadget EMD values.
    """
    if not gadgets:
        raise ValueError("need at least one gadget")
    dim = gadgets[0][0].dim
    for b, r in gadgets:
        if b.dim != dim or r.dim != dim:
            raise ValueError("gadgets must share one dimension")
        if len(b) > len(r):
            raise ValueError("every gadget needs |B| <= |R|")
    _, spacing = combination_spacing(gadgets)
    blue_rows = []
    red_rows = []
    for idx, (b, r) in enumerate(gadgets, start=1):
        shift = spacing * idx
        blue_rows.extend((p[0] + shift,) + p[1:] for p in b.points)
        red_rows.extend((p[0] + shift,) + p[1:] for p in r.points)
    return PointSet(dim, tuple(blue_rows)), PointSet(dim, tuple(red_rows))


# ---------------------------------------------------------------------------
# clique gadgets
# ---------------------------------------------------------------------------


def _edge_point(d: int, i: int, j: int, u: int, v: int, b: int,
                doubled: bool, k: int) -> tuple[int, ...]:
    # coordinate pattern: u at i (and i+k when doubled), v at j (and j+k), b elsewhere
    coords = [b] * d
    coords[i - 1] = u
    coords[j - 1] = v
    if doubled:
        coords[i + k - 1] = u
        coords[j + k - 1] = v
    return tuple(coords)


def _check_clique_size(points: int, d: int) -> None:
    """Refuse an instance of more than ``CLIQUE_COORD_GUARD`` coordinates
    before any gadget is built."""
    if points * d > CLIQUE_COORD_GUARD:
        raise ValueError(
            f"instance with {points} points in dimension {d} has {points * d} "
            f"coordinates, exceeding the generator guard of {CLIQUE_COORD_GUARD}"
        )


def clique_l1_asym(g: Graph, k: int) -> GadgetInstance:
    """L1 instance in dimension k: one blue origin point per coordinate pair,
    red points at the edge grid, plus a mirrored copy pinning the free
    coordinates from above."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if not g.edges:
        raise ValueError("graph has no edges; every decision is trivially no")
    d = k
    # two parts per coordinate pair: one origin blue and a red per edge
    _check_clique_size(2 * math.comb(k, 2) * (1 + len(g.edges)), d)
    n_nodes = g.n_nodes
    origin = [tuple([0] * d)]
    parts = []
    for i, j in itertools.combinations(range(1, k + 1), 2):
        reds = [_edge_point(d, i, j, u, v, 0, False, k) for u, v in sorted(g.edges)]
        parts.append((point_set(d, origin), point_set(d, reds)))
        reds_hi = [
            _edge_point(d, i, j, u, v, n_nodes, False, k) for u, v in sorted(g.edges)
        ]
        parts.append((point_set(d, origin), point_set(d, reds_hi)))
    lam = Fraction(math.comb(k, 2) * (d - 2) * n_nodes)
    blue, red = combine_gadgets(parts)
    meta = {
        "variant": "l1-asym", "k": k, "N": n_nodes, "d": d,
        "edges": len(g.edges), "U": combination_spacing(parts)[1],
    }
    return GadgetInstance(blue, red, lam, Metric.L1, tuple(parts), meta)


def clique_l1_sym(g: Graph, k: int) -> GadgetInstance:
    """Symmetric L1 instance in dimension 2k: the coordinate block is doubled
    and blue filler points balance the sizes, one per extra edge."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if not g.edges:
        raise ValueError("graph has no edges; filler multiplicity |E|-1 is undefined")
    d = 2 * k
    n_nodes = g.n_nodes
    m_edges = len(g.edges)
    # two parts per coordinate pair, each |E| blues and |E| reds
    _check_clique_size(4 * math.comb(k, 2) * m_edges, d)
    parts = []
    for i, j in itertools.combinations(range(1, k + 1), 2):
        q = [0] * d
        q[i - 1] = q[j - 1] = n_nodes
        q[i + k - 1] = q[j + k - 1] = -n_nodes
        neg_q = [-c for c in q]
        blues = [tuple([0] * d)] + [tuple(q)] * (m_edges - 1)
        blues_neg = [tuple([0] * d)] + [tuple(neg_q)] * (m_edges - 1)
        reds = [_edge_point(d, i, j, u, v, 0, True, k) for u, v in sorted(g.edges)]
        reds_hi = [
            _edge_point(d, i, j, u, v, n_nodes, True, k) for u, v in sorted(g.edges)
        ]
        parts.append((point_set(d, blues), point_set(d, reds)))
        parts.append((point_set(d, blues_neg), point_set(d, reds_hi)))
    lam = Fraction(math.comb(k, 2) * ((d + 4) * m_edges - 8) * n_nodes)
    blue, red = combine_gadgets(parts)
    meta = {
        "variant": "l1-sym", "k": k, "N": n_nodes, "d": d,
        "edges": m_edges, "U": combination_spacing(parts)[1],
    }
    return GadgetInstance(blue, red, lam, Metric.L1, tuple(parts), meta)


def clique_linf_sym(g: Graph, k: int) -> GadgetInstance:
    """Symmetric Linf instance in dimension 2k+1: per-coordinate tether
    gadgets force tau_i = tau_{i+k}, and edge gadgets charge 1 extra
    whenever the rounded pair is not an edge."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if not g.edges:
        raise ValueError("graph has no edges; filler multiplicity |E|-1 is undefined")
    d = 2 * k + 1
    n_nodes = g.n_nodes
    m_edges = len(g.edges)
    # 4(k-1) two-point tethers per coordinate, then two parts per
    # coordinate pair, each |E| blues and |E| reds
    _check_clique_size(8 * k * (k - 1) + 4 * math.comb(k, 2) * m_edges, d)
    big = 10 * n_nodes
    parts = []
    origin = [tuple([0] * d)]
    for i in range(1, k + 1):
        q = [0] * d
        q[i - 1] = q[i + k - 1] = big
        neg_q = tuple(-c for c in q)
        for _ in range(2 * (k - 1)):
            parts.append((point_set(d, origin), point_set(d, [tuple(q)])))
            parts.append((point_set(d, origin), point_set(d, [neg_q])))
    top = tuple([0] * (d - 1) + [big])
    bottom = tuple([0] * (d - 1) + [-big])
    for i, j in itertools.combinations(range(1, k + 1), 2):
        b = [0] * d
        b[i - 1] = b[j - 1] = big
        b[i + k - 1] = b[j + k - 1] = -big
        reds = [_edge_point(d, i, j, u, v, 0, True, k) for u, v in sorted(g.edges)]
        blues = [tuple(b)] + [top] * (m_edges - 1)
        blues_neg = [tuple(b)] + [bottom] * (m_edges - 1)
        parts.append((point_set(d, blues), point_set(d, reds)))
        parts.append((point_set(d, blues_neg), point_set(d, reds)))
    lam = Fraction(20 * n_nodes * k * 2 * (k - 1)
                   + 20 * n_nodes * m_edges * math.comb(k, 2))
    blue, red = combine_gadgets(parts)
    meta = {
        "variant": "linf-sym", "k": k, "N": n_nodes, "d": d,
        "edges": m_edges, "U": combination_spacing(parts)[1],
    }
    return GadgetInstance(blue, red, lam, Metric.LINF, tuple(parts), meta)


_CLIQUE_GENERATORS = {
    "l1-asym": clique_l1_asym,
    "l1-sym": clique_l1_sym,
    "linf-sym": clique_linf_sym,
}


def clique_instance(g: Graph, k: int, variant: str) -> GadgetInstance:
    try:
        gen = _CLIQUE_GENERATORS[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None
    return gen(g, k)


# ---------------------------------------------------------------------------
# decomposed evaluation and decisions
# ---------------------------------------------------------------------------


def decomposed_value(
    parts: Sequence[tuple[PointSet, PointSet]],
    metric: Metric,
    candidates: Iterable,
) -> Fraction:
    """min over the candidate translations of the summed per-gadget EMD.

    Equals the true optimum whenever the candidate family contains an
    optimal translation of the decomposed objective.  Points and
    candidates share one integer frame.  Candidates whose partial sum
    already exceeds the best so far are abandoned early.
    """
    ints, den = _as_int_matrix(
        [p for b, r in parts for p in b.points + r.points] + list(candidates))
    rows = iter(ints)
    packed = [(list(itertools.islice(rows, len(b))), list(itertools.islice(rows, len(r))))
              for b, r in parts]
    best = None
    for tau in rows:  # the candidates, after every part's points
        total = 0
        for blues, reds in packed:
            total += _assignment_value(_cost_matrix(blues, reds, metric, tau))
            if best is not None and total > best:
                break
        else:
            if best is None or total < best:
                best = total
    return Fraction(best, den)


def clique_witness_grid(k: int, n_nodes: int):
    """Translations (v_1..v_k, v_1..v_k, 0) for the ``linf-sym`` decision.

    Every generated instance has summed gadget cost >= lam for all
    translations (and >= lam + 1 without the encoded clique), while a
    clique v_1 < ... < v_k attains lam at the grid point built from its
    nodes, so minimizing over this grid decides exactly.
    """
    for nodes in itertools.product(range(1, n_nodes + 1), repeat=k):
        yield tuple(nodes) * 2 + (0,)


def clique_instance_value(gi: GadgetInstance) -> Fraction:
    """Solver value used by the clique decision.

    L1 variants return the exact EMDuT of the combined instance, solved
    by :func:`emdut_hd`.  The Linf variant returns the minimum of the
    summed gadget costs over the integer witness grid, which is not the
    EMDuT: it equals lam on yes-instances and is >= lam + 1 on
    no-instances by the construction (the full arrangement in dimension
    2k+1 is far beyond any budget).
    """
    if gi.metric is Metric.L1:
        return emdut_hd(gi.blue, gi.red, Metric.L1)[0]
    cands = clique_witness_grid(gi.meta["k"], gi.meta["N"])
    return decomposed_value(gi.parts, gi.metric, cands)


def decide_clique(g: Graph, k: int, variant: str) -> bool:
    """True iff :func:`clique_instance_value` is at or below lam.

    That is the exact EMDuT for the L1 variants and the witness-grid
    minimum for ``linf-sym``.  Graphs without edges short-circuit to
    False: the generators reject them, and no clique on k >= 2 nodes
    exists without an edge.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if not g.edges:
        return False
    gi = clique_instance(g, k, variant)
    return clique_instance_value(gi) <= gi.lam
