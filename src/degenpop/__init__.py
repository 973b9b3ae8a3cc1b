"""Degenerate age- and space-structured population models.

Forward/adjoint solvers for a renewal population equation with a
degenerate diffusion coefficient, quadrature audits of the Hardy,
Caccioppoli and Carleman inequalities behind its observability theory,
and penalized-HUM null control with delay composition and two-sided
gluing.
"""

from .coeffs import (CarlemanWeights, DegeneracyReport, HypothesisReport,
                     PowerLaw, Tabulated, VitalRates, build_carleman_weights,
                     classify_degeneracy, eval_theta, validate_hypotheses)
from .control import (ControlError, ControlSolution, CutoffFamily, HUMConfig,
                      compose_delay_control, forward_defect, glue_two_sided,
                      hum_control, scheme_consistency_error)
from .discretize import (Field2, Field3, Grid, random_final_data,
                         read_field_csv, sine_mode_data, spawn_rng,
                         weighted_norm, write_field_csv, write_json)
from .inequalities import (InequalityReport, caccioppoli_audit,
                           carleman_audit_deg0, carleman_audit_deg1,
                           carleman_audit_nondeg, carleman_local_audit,
                           hardy_ratio, hardy_ratio_at_zero,
                           manufactured_adjoint, manufactured_family,
                           observability_ratio, random_adjoint_profiles,
                           random_hardy_test_functions)
from .scenarios import (ConfigError, Scenario, classify_growth,
                        load_scenario, net_reproduction_rate, preset,
                        preset_names, run_scenario, scenario_from_config)
from .solver import (EnergyAudit, ProblemSpec, Trajectory,
                     characteristic_consistency, control_norm, energy_audit,
                     lattice_inner, lattice_norm, solve_adjoint,
                     solve_forward)

__version__ = "0.1.0"
