"""Worst-case robust transceiver and RIS phase design for over-the-air
computation under bounded CSI error."""

from .model import (
    ChannelInstance,
    Design,
    SystemConfig,
    apply_error,
    cascade_channel,
    closed_form_mse,
    empirical_mse,
    epsilon_from_coefficient,
    inner,
    sample_bounded_error,
    sample_rayleigh_vector,
    synthesize_instance,
)
from .optimizer import (
    nonrobust_design,
    recover_m_t,
    robust_design,
    run_algorithm1,
    t_exact,
    update_phases,
)
from .worst_case import (
    WorstCaseCert,
    brute_force_worst_case,
    certificate,
    delta_worst,
    kkt_residual,
    lambda_worst,
    mse_at_error,
    residual,
    worst_case_objective,
    worst_case_term,
)

__version__ = "0.1.0"
