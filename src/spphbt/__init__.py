"""Simulation and inference for two-detector intensity correlations of few-emitter sources."""

__version__ = "0.21.0"
__all__ = ["__version__"]
