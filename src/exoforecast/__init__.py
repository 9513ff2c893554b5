"""Exogenous-aware spatio-temporal forecasting toolkit."""

__version__ = "0.1.0"
