"""Worst-case robust transceiver and RIS phase design for over-the-air
computation under bounded CSI error."""

from .model import ChannelInstance, Design, SystemConfig, synthesize_instance
from .optimizer import nonrobust_design, robust_design, run_algorithm1
from .worst_case import (
    WorstCaseCert,
    brute_force_worst_case,
    certificate,
    delta_worst,
    kkt_residual,
    lambda_worst,
)

__version__ = "0.1.0"
