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
independently.  The three clique generators share one construction
frame.  It refuses k < 2, then a graph without edges, then more than
``CLIQUE_COORD_GUARD`` coordinates, counted from k and |E| before any
gadget is built.  It then adds two parts per coordinate pair, the blue
side against the edge points on two bases, and combines them.  A
variant states only its dimension, point count, threshold, blue side,
high base and, for ``linf-sym``, the tethers placed first.  The
decisions compare the EMDuT with the threshold:
the 1D sweep solves OV instances, and :func:`emdut_hd` the combined L1
clique instances.  ``linf-sym`` is beyond the solver, so its value is
the witness-grid minimum of the summed gadget costs: >= lam + 1 on
no-instances by the construction, but not the EMDuT.  It is refused
when the grid needs more than ``DEFAULT_BUDGET`` part solves, and the
grid is drawn lazily, a fixed-size chunk of points at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import Metric, PointSet, _check_metric, point, point_set, point_set_1d, scalar
from .emd import _as_int_matrix, _cost_matrix, _min_cost_assignment, _pair_sizes
from .emdut_hd import DEFAULT_BUDGET, BudgetExceeded, emdut_hd
from .sweep1d import emdut_1d_sweep

OV_PAIR_GUARD = 4_000_000  # max |B|*|R| the 1D decision procedure accepts
# max coordinates (points times d) a clique generator writes; the output
# grows as k^3 * |E|, so a small graph with a large k would run for hours
CLIQUE_COORD_GUARD = 4_000_000


def _is_bit(bit) -> bool:
    """True for the ints 0 and 1 only, so a float or a bool is refused."""
    return type(bit) is int and bit in (0, 1)


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
        for v in (*self.x_vectors, *self.y_vectors):
            if len(v) != d:
                raise ValueError("inconsistent vector dimensions")
            if not all(map(_is_bit, v)):
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
    """Brute force: do some k nodes share an edge pairwise?  k <= 0 asks for
    the empty set, which always does."""
    for nodes in itertools.combinations(range(1, g.n_nodes + 1), max(k, 0)):
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
#
# A gadget's coordinates are first a plain list of ints.  The public gadget
# functions check one vector and wrap its list in a point set;
# ``ov_reduction`` shifts the lists of every cell into place itself.
# ---------------------------------------------------------------------------


def _check_bits(v: Sequence[int]) -> None:
    if len(v) < 1 or not all(map(_is_bit, v)):
        raise ValueError("vector entries must be 0/1, dimension >= 1")


def _ov_red_ints(x: Sequence[int]) -> list[int]:
    d = len(x)
    pts = [0] * (8 * d) + [4 * d + 1] * (8 * d)
    for i in range(1, d + 1):
        if x[i - 1] == 0:
            pts.extend([4 * i - 3, 4 * i - 2, 4 * i - 1, 4 * i])
        else:
            pts.extend([4 * i - 2, 4 * i - 1])
    return pts


def _ov_blue_ints(y: Sequence[int]) -> list[int]:
    d = len(y)
    pts = [0, 4 * d + 1]
    for i in range(1, d + 1):
        if y[i - 1] == 0:
            pts.extend([4 * i - 2, 4 * i - 1])
        else:
            pts.extend([4 * i - 3, 4 * i])
    return pts


def ov_red_gadget(x: Sequence[int]) -> PointSet:
    """Red vector gadget: dense anchor blocks plus per-bit slot patterns.

    Width is 4d+1.  Bit i contributes the full slot {4i-3..4i} when 0 and
    the inner slot {4i-2, 4i-1} when 1, so a blue gadget fits at offset 0
    with zero cost exactly when the vectors are orthogonal.
    """
    _check_bits(x)
    return point_set_1d(_ov_red_ints(x))


def ov_blue_gadget(y: Sequence[int]) -> PointSet:
    """Blue vector gadget: two endpoint points plus one slot pair per bit."""
    _check_bits(y)
    return point_set_1d(_ov_blue_ints(y))


def ov_reduction(inst: OVInstance) -> GadgetInstance:
    """1D instance whose optimal value is lam iff an orthogonal pair exists.

    Vectors are padded with an all-ones vector when needed to make the
    cell parameter n = (#vectors + 1) even.  Blue cell j sits at offset
    j*n*delta; each red vector gets five copies, copy k of vector i at
    offset (i + k*n)*(n-1)*delta, which makes the red cells periodic and
    pins every near-optimal translation to a near-alignment of exactly
    one blue/red cell pair.

    The gadgets stay int lists, already checked by :class:`OVInstance`,
    until the blue and red point sets are built; those two are the only
    PointSets a reduction makes.  Each coordinate recurs four or five
    times, so ``scalar`` is called once per distinct coordinate, and
    every copy of it, blue or red, is the same 1-tuple point.
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
        blue_pts.extend(p + shift for p in _ov_blue_ints(ys[j - 1]))
    # Red cell indices must be contiguous: cell c sits at c*(n-1)*delta and
    # holds vector ((c-1) mod (n-1)) + 1, so five copies of each vector tile
    # the index range [n, 6(n-1)] without gaps.  A gap would let a blue cell's
    # nearest-cell distance exceed the wrapped-distance accounting that the
    # threshold below is computed from.
    red_pts: list[int] = []
    for i in range(1, n):
        gadget = _ov_red_ints(xs[i - 1])
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
    shared = {v: (scalar(v),) for v in {*blue_pts, *red_pts}}
    return GadgetInstance(
        blue=PointSet._unchecked(1, tuple(map(shared.__getitem__, blue_pts))),
        red=PointSet._unchecked(1, tuple(map(shared.__getitem__, red_pts))),
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
    points = [p for b, r in gadgets for ps in (b, r) for p in ps.points]
    # per-axis extents on one integer frame: int comparisons, not Fraction ones
    ints, den = _as_int_matrix(points)
    diameter = Fraction(sum(max(axis) - min(axis) for axis in zip(*ints)), den)
    spacing = (2 * len(points) + 5) * diameter
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
    return _combine(gadgets)[:2]


def _combine(gadgets: Sequence[tuple[PointSet, PointSet]]):
    """(blue, red, U) of :func:`combine_gadgets`; the generators record U."""
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
    return PointSet(dim, tuple(blue_rows)), PointSet(dim, tuple(red_rows)), spacing


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


def _clique_frame(g: Graph, k: int, variant: str, metric: Metric, d: int, *,
                  points, lam, blue_lists, high: int, tethers=list) -> GadgetInstance:
    """The construction every clique generator shares.

    It refuses k < 2, then a graph without edges, then an instance of
    ``points(C(k, 2))`` points in dimension d past the size guard.  The
    parts are ``tethers()``, then two per coordinate pair i < j: the two
    blue lists of ``blue_lists(i, j)`` against the edge points on base 0
    and on base ``high``.  An edge point has u at coordinate i, v at j
    and the base elsewhere, doubled into i + k and j + k when d > k.
    The threshold is ``lam(C(k, 2))``.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if not g.edges:
        raise ValueError("graph has no edges; every decision is trivially no")
    pairs = math.comb(k, 2)
    _check_clique_size(points(pairs), d)
    edges = sorted(g.edges)
    parts = tethers()
    for i, j in itertools.combinations(range(1, k + 1), 2):
        for blues, base in zip(blue_lists(i, j), (0, high)):
            reds = [_edge_point(d, i, j, u, v, base, d > k, k) for u, v in edges]
            parts.append((point_set(d, blues), point_set(d, reds)))
    blue, red, spacing = _combine(parts)
    meta = {"variant": variant, "k": k, "N": g.n_nodes, "d": d,
            "edges": len(g.edges), "U": spacing}
    return GadgetInstance(blue, red, Fraction(lam(pairs)), metric, tuple(parts), meta)


def clique_l1_asym(g: Graph, k: int) -> GadgetInstance:
    """L1 instance in dimension k: one blue origin point per coordinate pair,
    red points at the edge grid, plus a mirrored copy pinning the free
    coordinates from above."""
    return _clique_frame(
        g, k, "l1-asym", Metric.L1, k, high=g.n_nodes,
        # two parts per coordinate pair: one origin blue and a red per edge
        points=lambda pairs: 2 * pairs * (1 + len(g.edges)),
        lam=lambda pairs: pairs * (k - 2) * g.n_nodes,
        blue_lists=lambda i, j: ([(0,) * k],) * 2)


def clique_l1_sym(g: Graph, k: int) -> GadgetInstance:
    """Symmetric L1 instance in dimension 2k: the coordinate block is doubled
    and blue filler points balance the sizes, one per extra edge."""
    d, n_nodes, m_edges = 2 * k, g.n_nodes, len(g.edges)

    def blue_lists(i, j):
        # the origin, then |E| - 1 fillers: N at i and j, -N at i+k and j+k
        q = [0] * d
        q[i - 1] = q[j - 1] = n_nodes
        q[i + k - 1] = q[j + k - 1] = -n_nodes
        origin = (0,) * d
        return ([origin] + [tuple(q)] * (m_edges - 1),
                [origin] + [tuple(-c for c in q)] * (m_edges - 1))

    return _clique_frame(
        g, k, "l1-sym", Metric.L1, d, high=n_nodes, blue_lists=blue_lists,
        # two parts per coordinate pair, each |E| blues and |E| reds
        points=lambda pairs: 4 * pairs * m_edges,
        lam=lambda pairs: pairs * ((d + 4) * m_edges - 8) * n_nodes)


def clique_linf_sym(g: Graph, k: int) -> GadgetInstance:
    """Symmetric Linf instance in dimension 2k+1: per-coordinate tether
    gadgets force tau_i = tau_{i+k}, and edge gadgets charge 1 extra
    whenever the rounded pair is not an edge."""
    d, m_edges, big = 2 * k + 1, len(g.edges), 10 * g.n_nodes

    def tethers():
        # 2(k-1) copies each of an origin blue against the red +-big at
        # coordinates i and i+k
        parts = []
        for i in range(1, k + 1):
            for c in [big, -big] * (2 * (k - 1)):
                red = tuple(c if a in (i - 1, i + k - 1) else 0 for a in range(d))
                parts.append((point_set(d, [(0,) * d]), point_set(d, [red])))
        return parts

    def blue_lists(i, j):
        # b, then |E| - 1 fillers at +-big on the last axis
        b = [0] * d
        b[i - 1] = b[j - 1] = big
        b[i + k - 1] = b[j + k - 1] = -big
        zeros = (0,) * (d - 1)
        return ([tuple(b)] + [zeros + (big,)] * (m_edges - 1),
                [tuple(b)] + [zeros + (-big,)] * (m_edges - 1))

    return _clique_frame(
        g, k, "linf-sym", Metric.LINF, d, high=0, tethers=tethers,
        blue_lists=blue_lists,
        # 4(k-1) two-point tethers per coordinate, then two parts per
        # coordinate pair, each |E| blues and |E| reds
        points=lambda pairs: 8 * k * (k - 1) + 4 * pairs * m_edges,
        lam=lambda pairs: 20 * g.n_nodes * (k * 2 * (k - 1) + m_edges * pairs))


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


# Candidates decomposed_value frames and solves at a time: one chunk's
# points and int matrix are all it holds, however long the family
_CANDIDATE_CHUNK = 4096


def decomposed_value(
    parts: Sequence[tuple[PointSet, PointSet]],
    metric: Metric,
    candidates: Iterable,
) -> Fraction:
    """min over the candidate translations of the summed per-gadget EMD.

    Equals the true optimum whenever the candidate family contains an
    optimal translation of the decomposed objective.  Each part must meet
    ``emd._pair_sizes`` in the first part's dimension.  Each candidate is
    coerced like a point, so a float raises ``TypeError``; one of the wrong
    dimension, or an empty family, raises ``ValueError``.  The candidates
    are drawn ``_CANDIDATE_CHUNK`` at a time, and each chunk shares one
    integer frame with the points, so a lazy family such as
    :func:`clique_witness_grid` is never held whole.  Candidates whose
    partial sum already exceeds the best so far are abandoned early.
    """
    _check_metric(metric)
    dim = parts[0][0].dim if parts else None
    for b, r in parts:
        _pair_sizes(b, r, dim)
    points = [p for b, r in parts for p in b.points + r.points]
    stream = iter(candidates)
    best = None
    drawn = 0
    while chunk := [point(tau) for tau in itertools.islice(stream, _CANDIDATE_CHUNK)]:
        dim = len(chunk[0]) if dim is None else dim
        for i, tau in enumerate(chunk, start=drawn):
            if len(tau) != dim:
                raise ValueError(f"candidate {i} has {len(tau)} coordinates, expected {dim}")
        drawn += len(chunk)
        ints, den = _as_int_matrix(points + chunk)
        rows = iter(ints)
        packed = [(list(itertools.islice(rows, len(b))), list(itertools.islice(rows, len(r))))
                  for b, r in parts]
        cut = None if best is None else best * den  # best on this chunk's frame
        for tau in rows:  # the chunk's candidates, after every part's points
            total = 0
            for blues, reds in packed:
                total += _min_cost_assignment(_cost_matrix(blues, reds, metric, tau))[0]
                if cut is not None and total > cut:
                    break
            else:
                if cut is None or total < cut:
                    cut = total
        best = Fraction(cut) / den
    if best is None:
        raise ValueError("the candidate family is empty")
    return best


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
    2k+1 is far beyond any budget).  The grid has N^k points, and each
    costs one EMD solve per part; when the N^k * len(parts) solves
    exceed ``DEFAULT_BUDGET`` it raises :class:`BudgetExceeded`, naming
    N^k against the budget's share per part, before the first point.
    """
    if gi.metric is Metric.L1:
        return emdut_hd(gi.blue, gi.red, Metric.L1)[0]
    k, n_nodes = gi.meta["k"], gi.meta["N"]
    if n_nodes**k * len(gi.parts) > DEFAULT_BUDGET:
        raise BudgetExceeded(n_nodes**k, DEFAULT_BUDGET // len(gi.parts))
    cands = clique_witness_grid(k, n_nodes)
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
