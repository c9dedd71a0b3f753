"""Actigraphy activity features, sigmoidal cosinor fitting, and rank-based
group comparison."""

__version__ = "0.1.0"
