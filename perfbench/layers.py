"""Per-layer metrics from the spans of traced pipeline runs.

Layers are vinesar's modules. A span's self time is its duration minus the
durations of its direct children; children of one span never overlap, since
a stage runs on one thread. The ``cli`` layer is each stage's own time (its
root span's self time) plus the import of ``vinesar.cli``; ``startup`` is
what is left of the traced wall time: interpreter start, process spawn and
writing the spans out.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import tracer

STAGES = ("synth", "sar-index", "optical-index", "zonal", "degree-days", "trend", "report")
LAYERS = ("synth", "sar", "raster", "optical", "parcels", "phenology", "trend", "cli", "startup")

# functions reported with .s (inclusive seconds per pipeline) and .calls: all
# traced ones but the whole-raster helpers, which have no metrics of their own
# and count only toward layer.raster and the mask-cache lookups
FUNCTIONS = tuple(f for f in tracer.TRACED
                  if f not in ("raster.load_raster", "raster.save_raster"))

# rate metric -> (function, counter, scale, unit); bytes are computed from
# array sizes, not measured at the device, hence the unit
RATES = {
    "synth.generate_scene.mlook_px_per_s": ("synth.generate_scene", "mlook_px", 1e-6, "Mpx/s"),
    "sar.multilook.mpx_per_s": ("sar.multilook", "px", 1e-6, "Mpx/s"),
    "sar.boxcar_filter.mpx_per_s": ("sar.boxcar_filter", "px", 1e-6, "Mpx/s"),
    "sar.dprvi_raster.mpx_per_s": ("sar.dprvi_raster", "px", 1e-6, "Mpx/s"),
    "raster.load_bundle.mb_per_s": ("raster.load_bundle", "bytes", 1e-6, "computed-MB/s"),
    "raster.save_bundle.mb_per_s": ("raster.save_bundle", "bytes", 1e-6, "computed-MB/s"),
    "raster.resample.mpx_per_s": ("raster.resample", "px", 1e-6, "Mpx/s"),
    "optical.ndvi.mpx_per_s": ("optical.ndvi", "px", 1e-6, "Mpx/s"),
    "optical.svhi.mpx_per_s": ("optical.svhi", "px", 1e-6, "Mpx/s"),
    "optical.ingest_lai.mpx_per_s": ("optical.ingest_lai", "px", 1e-6, "Mpx/s"),
}

# useful-to-attempted ratios: mask pixels over grid pixels scanned
HIT_RATIOS = {
    "parcels.rasterize.hit_ratio": "parcels.rasterize",
    "parcels.zonal_stats.hit_ratio": "parcels.zonal_stats",
}

TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)


def tail(samples: list[float]) -> tuple[float, float]:
    """(level, value) of the highest percentile with at least ten samples
    beyond it; (0, 0) when there are fewer than twenty samples."""
    n = len(samples)
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= 10.0:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return level, cuts[round(level * 10) - 1]
    return 0.0, 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def pipeline_profile(stage_docs: list[dict], wall_s: float) -> dict:
    """Sums for one traced pipeline run from its stages' span documents."""
    prof = {"wall": wall_s, "s": defaultdict(float), "calls": defaultdict(int),
            "counters": defaultdict(lambda: defaultdict(float)),
            "layer": defaultdict(float), "stage_self": {}, "import": [],
            "zonal_us": [], "load_c2_self": 0.0, "zonal_raster_loads": 0}
    accounted = 0.0
    for doc in stage_docs:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for k, (name, t0, t1, parent, counters) in enumerate(spans):
            dur = t1 - t0
            self_s = dur - child[k]
            layer = name.split(".")[0]
            prof["layer"][layer] += self_s
            if parent < 0:
                prof["stage_self"][doc["stage"]] = self_s
                accounted += dur
                continue
            prof["s"][name] += dur
            prof["calls"][name] += 1
            for key, value in (counters or {}).items():
                prof["counters"][name][key] += value
            if name == "parcels.zonal_stats":
                prof["zonal_us"].append(dur * 1e6)
            elif name == "sar.load_c2":
                prof["load_c2_self"] += self_s
            elif name == "raster.load_raster" and doc["stage"] == "zonal":
                prof["zonal_raster_loads"] += 1
        t0, t1 = doc["import"]
        prof["import"].append(t1 - t0)
        prof["layer"]["cli"] += t1 - t0
        accounted += t1 - t0
    prof["layer"]["startup"] = wall_s - accounted
    return prof


def per_layer_metrics(traced: list[dict], untraced: list[dict], n_parcels: int) -> dict:
    """Every per-layer metric as {name: value}.

    ``traced`` holds pipeline_profile() results, each with its "wall";
    ``untraced`` holds {"wall", "stages": {stage: (wall_s, peak_rss_mb)}}.
    Per-pipeline sums are reported as medians over traced runs; rates and
    ratios pool every traced run.
    """
    m: dict[str, float] = {}

    def med(get) -> float:
        return _median([get(p) for p in traced])

    def pooled(fn: str, key: str) -> float:
        return sum(p["counters"][fn][key] for p in traced)

    for fn in FUNCTIONS:
        m[fn + ".s"] = med(lambda p: p["s"][fn])
        m[fn + ".calls"] = med(lambda p: p["calls"][fn])
    m["sar.load_c2.self_s"] = med(lambda p: p["load_c2_self"])
    for name, (fn, key, scale, _) in RATES.items():
        busy = sum(p["s"][fn] for p in traced)
        m[name] = pooled(fn, key) * scale / busy if busy > 0 else 0.0
    for name, fn in HIT_RATIOS.items():
        grid = pooled(fn, "grid_px")
        m[name] = pooled(fn, "mask_px") / grid if grid else 0.0
    lookups = sum(p["zonal_raster_loads"] for p in traced) * n_parcels
    misses = sum(p["calls"]["parcels.rasterize"] for p in traced)
    m["parcels.mask_cache_hit_ratio"] = 1.0 - misses / lookups if lookups else 0.0
    zonal_us = [us for p in traced for us in p["zonal_us"]]
    m["parcels.zonal_stats.p50_us"] = _median(zonal_us)
    m["parcels.zonal_stats.tail_pct"], m["parcels.zonal_stats.tail_us"] = tail(zonal_us)
    m["parcels.zonal_stats.samples"] = len(zonal_us)
    fits = sum(p["calls"]["trend.fit_parabola"] for p in traced)
    m["trend.fit_ok_ratio"] = pooled("trend.fit_parabola", "ok") / fits if fits else 0.0
    for stage in STAGES:
        runs = [u["stages"][stage] for u in untraced if stage in u["stages"]]
        m[f"cli.{stage}.wall_s"] = _median([w for w, _ in runs])
        m[f"cli.{stage}.peak_rss_mb"] = _median([r for _, r in runs])
        m[f"cli.{stage}.self_s"] = _median([p["stage_self"][stage] for p in traced
                                            if stage in p["stage_self"]])
    m["cli.import_s"] = _median([t for p in traced for t in p["import"]])
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = med(lambda p: p["layer"][layer])
    m["trace.overhead_s"] = (_median([p["wall"] for p in traced])
                             - _median([u["wall"] for u in untraced]))
    return m
