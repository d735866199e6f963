"""I/O-die frequency domain (fclk) and its control policy (§III-C, §V-D)."""

from repro.iodie.fclk import FclkController, FclkMode

__all__ = ["FclkController", "FclkMode"]
