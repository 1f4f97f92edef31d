"""Exact Earth Mover's Distance under Translation.

Solvers for the minimum-cost injective matching between a blue and a red
point set, minimized over all translations of the blue set: the 1D
median and sweep algorithms, d-dimensional L1/Linf arrangement solvers,
fixed-translation EMD routines, and generators of hardness-reduction
instances with exact decision thresholds.
"""

from .core import (
    Matching,
    Metric,
    Point,
    PointFormatError,
    PointSet,
    Scalar,
    format_scalar,
    lp_distance,
    matching_cost,
    parse_point_set,
    point,
    point_set,
    point_set_1d,
    scalar,
    serialize_point_set,
)
from .emd import emd_1d_monotone, emd_bruteforce, emd_hungarian
from .emdut_hd import BudgetExceeded, candidate_translations, emdut_hd
from .hardness import (
    GadgetInstance,
    Graph,
    OVInstance,
    clique_instance,
    clique_instance_value,
    clique_l1_asym,
    clique_l1_sym,
    clique_linf_sym,
    combine_gadgets,
    decide_clique,
    decide_ov,
    has_clique,
    has_orthogonal_pair,
    ov_blue_gadget,
    ov_red_gadget,
    ov_reduction,
)
from .sweep1d import (
    SweepStats,
    emdut_1d_alignment_oracle,
    emdut_1d_sweep,
    emdut_1d_symmetric,
)

from types import ModuleType as _ModuleType

# the submodules are bound here by their import, but are not exported
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
