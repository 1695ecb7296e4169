"""Worst-case robust transceiver and RIS phase design for over-the-air
computation under bounded CSI error."""

from .model import SystemConfig, synthesize_instance
from .optimizer import Design, WorstCaseCert, certificate, robust_scalars

__version__ = "0.1.0"
