"""Full-duplex UAV relay simulator: placement, analog beamforming, power control."""

from .harness import OutputRow, Scenario, SweepSpec, run_sweep, run_trial

__version__ = "0.1.0"
