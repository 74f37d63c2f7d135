"""oscilab: oscillation functionals on grid functions over the unit cube.

Rearrangements, maximal operators (Hardy-Littlewood, sharp, local quantile),
rearrangement-invariant norms, packing functionals (John-Nirenberg,
Garsia-Rodemich, Campanato) and K-functional profiles for (L1, Linf) and
(L1, BMO), with exact small-scale oracles for every optimization in the tests.
"""

from .errors import (
    ConfigError,
    GeometryError,
    InvariantViolation,
    OscilabError,
    SizeGuardError,
)
from .functionals import (
    GaRoEstimate,
    campanato_norm,
    gamma_membership,
    garo_norm,
    garo_p_lambda,
    gp_norm,
    jn_norm,
    sobolev_seminorm,
)
from .generators import GENERATOR_KINDS, generate
from .grid import (
    Cube,
    GridFunction,
    Packing,
    cube_mean,
    cubes_containing,
    double_oscillation,
    enumerate_cubes,
    mean_oscillation,
    read_grid_csv,
    write_grid_csv,
)
from .kfunctional import (
    KProfile,
    default_t_grid,
    f_sharp_curve,
    f_sharp_profile,
    k_l1_bmo,
    k_l1_linf,
    vitali_threshold_estimate,
)
from .maximal import (
    DEFAULT_S,
    hl_maximal,
    local_maximal,
    local_maximals,
    quantile_oscillation,
    sharp_maximal,
    sharp_norm,
)
from .packing import (
    additive_pareto,
    max_additive_packing,
    max_measure_packing,
    union_measure,
    vitali_select,
)
from .rearrange import (
    StepProfile,
    dilate,
    distribution,
    double_star,
    hardy_P,
    hardy_Q,
    hlpc_dominates,
    median,
    oscillation_gap,
    rearrange,
)
from .spaces import (
    RISpaceSpec,
    boyd_indices,
    dilation_norm_estimate,
    fundamental_function,
    grid_norm,
    lp,
    marcinkiewicz,
    norm,
    phi_from_csv,
    phi_preset,
    space_from_string,
    weak_lp,
)
from .verify import SUITE_IDS, run_suite

__version__ = "0.1.0"
