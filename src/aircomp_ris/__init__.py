"""Worst-case robust transceiver and RIS phase design for over-the-air
computation under bounded CSI error."""

from .model import Design, SystemConfig, synthesize_instance
from .optimizer import robust_scalars
from .worst_case import WorstCaseCert, certificate

__version__ = "0.1.0"
