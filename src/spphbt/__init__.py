"""Simulation and inference for two-detector intensity correlations of few-emitter sources."""

__version__ = "0.17.0"
__all__ = ["__version__"]
