"""The public surface of the package: a rename or removal shows here."""

import types

import oscilab

PUBLIC_NAMES = [
    "ConfigError", "Cube", "DEFAULT_S", "GENERATOR_KINDS", "GaRoEstimate",
    "GeometryError", "GridFunction", "InvariantViolation", "KProfile",
    "OscilabError", "Packing", "RISpaceSpec", "SUITE_IDS", "SizeGuardError",
    "StepProfile", "additive_pareto", "boyd_indices", "campanato_norm",
    "cube_mean", "cubes_containing", "default_t_grid", "dilate",
    "dilation_norm_estimate", "distribution", "double_oscillation",
    "double_star", "enumerate_cubes", "f_sharp_curve", "f_sharp_profile",
    "fundamental_function", "gamma_membership", "garo_norm", "garo_p_lambda",
    "generate", "gp_norm", "grid_norm", "hardy_P", "hardy_Q", "hl_maximal",
    "hlpc_dominates", "jn_norm", "k_l1_bmo", "k_l1_linf", "local_maximal",
    "local_maximals", "lp", "marcinkiewicz", "max_additive_packing",
    "max_measure_packing", "mean_oscillation", "median", "norm",
    "oscillation_gap", "phi_from_csv", "phi_preset", "quantile_oscillation",
    "read_grid_csv", "rearrange", "run_suite", "sharp_maximal", "sharp_norm",
    "sobolev_seminorm", "space_from_string", "union_measure", "vitali_select",
    "vitali_threshold_estimate", "weak_lp", "write_grid_csv",
]


def test_public_names_pinned():
    # submodules are left out: which of them are attributes depends on what
    # else has been imported
    names = sorted(name for name, value in vars(oscilab).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
