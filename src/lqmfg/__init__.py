"""Numerical solver library for linear-quadratic mean field games."""

from .coeffs import (ConfigError, ProblemSpec, Schedule, SystemBlocks,
                     ValidationReport, build_grid, load_config, parse_config,
                     sample, system_blocks, uniform_grid, validate)
from .conditions import (AppendixParams, ConditionReport, Verdict,
                         appendix_adjoint_route, appendix_feedback_condition,
                         appendix_feedback_riccati, appendix_report,
                         check_riccati_solvable, check_shifted, compute_L,
                         compute_mainthm_norms)
from .fbsolver import (FBSolution, FeedbackLaw, NoConvergence, ScanReport,
                       SingularShootingMatrix, equilibrium_control_law,
                       existence_scan, fixed_point_iterate,
                       refine_singular_horizon, solve_equilibrium_shooting)
from .mftype import (ComparisonResult, MFTypeSolution, compare_mfg_mftype,
                     solve_mftype_mean)
from .odecore import IntegrationOverflow, inv_sqrt, psd_sqrt, spectral_norm
from .riccati import (BoundaryOperatorSingular, DistinctRootsViolated,
                      RiccatiPath, solve_1d_closed_form,
                      solve_nonsymmetric_direct, solve_nonsymmetric_radon,
                      solve_symmetric)
from .simulator import (ProbeReport, RateReport, SimConfig,
                        epsilon_nash_probe, mckean_gap, simulate_nplayer)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
