"""Collective defined-contribution pension fund simulator.

Simulates an overlapping-generations fund whose benefit accounts are credited
at a funding-ratio-linked declaration rate, optimizes the fund's investment
fraction and adjustment strength with a Gaussian-process optimizer, and
produces welfare statistics against an individual defined-contribution
benchmark on common random numbers.
"""

__version__ = "0.1.0"

from .bo import BoConfig, run_bo
from .fund import FundConfig, PolicyParams
from .market import preset_market
from .objective import ObjectiveSpec, evaluate_policy
