"""Dual-pol SAR and optical vegetation indices with per-parcel trend analysis.

The package turns covariance and reflectance rasters into per-parcel index
time series, anchors them to thermal time from station weather, and fits the
seasonal parabola whose vertex marks the vigor peak.
"""

from .raster import (AlignmentError, Bundle, BundleError, GridSpec, Orbit,
                     Raster, ResampleMethod, assert_aligned, load_bundle,
                     load_raster, resample, save_bundle, save_raster)
from .sar import (C2Raster, CovarianceError, DpParams, EigenPair,
                  boxcar_filter, dp_params, dprvi_from_eigen, dprvi_grd,
                  dprvi_raster, eigen_decompose, load_c2, multilook, save_c2)
from .optical import BandSet, bandset_from_bundle, ingest_lai, ndvi, svhi
from .parcels import (EmptyStatsError, Orientation, Parcel, ParcelMask,
                      ZonalStats, erode, load_parcels, rasterize, zonal_stats)
from .phenology import (BiomassProxy, DegreeDaySeries, WeatherRecord,
                        accumulate_cdd, biomass_proxy, fit_cdd_vs_doy, gdd,
                        load_weather_csv)
from .trend import (Abscissa, CorrelationResult, PairedSample, ParabolicFit,
                    TimeSeries, assemble_series, correlate_series,
                    fit_parabola, fit_quadratic, pair_dates, peak, pearson,
                    scatter_export)
from .synth import Region, SceneSpec, generate_scene, load_scene, sample_c2

__version__ = "0.1.0"
