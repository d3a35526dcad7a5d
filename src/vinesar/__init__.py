"""Dual-pol SAR and optical vegetation indices with per-parcel trend analysis.

The package turns covariance and reflectance rasters into per-parcel index
time series, anchors them to thermal time from station weather, and fits the
seasonal parabola whose vertex marks the vigor peak.
"""

__version__ = "0.1.0"
