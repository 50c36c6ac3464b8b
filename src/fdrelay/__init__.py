"""Full-duplex UAV relay simulator: placement, analog beamforming, power control."""

__version__ = "0.1.0"
