"""Command line pipeline over the library.

Stages communicate only through files in the output directory: covariance
bundles in, index bundles and CSVs out. Logs go to stderr; stdout stays
silent unless --stdout explicitly asks for the produced table. Reruns with
identical inputs and seeds produce byte-identical outputs.

The seven stage modules are registered here as lazy modules: each is in
``sys.modules`` and on the package from ``import vinesar.cli`` on, but it
executes (and imports numpy) only when a command first touches one of its
attributes. So a stage compiles only what it runs, and ``report`` and
``degree-days`` run without numpy.
"""

from __future__ import annotations

import argparse
import datetime as dt
import importlib.util
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .schema import (CORRELATION_CSV_HEADER, TREND_CSV_HEADER, TREND_GROUPS_CSV_HEADER,
                     Abscissa, AlignmentError, BundleError, Orbit, PipelineConfig,
                     json_seed, load_config, read_json_object)
from .tables import atomic_open, read_table, write_table


def _lazy(name: str) -> ModuleType:
    """The package's module ``name``, executed on first attribute access
    unless it has been imported already."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


optical, parcels, phenology, raster, sar, synth, trend = map(
    _lazy, ("optical", "parcels", "phenology", "raster", "sar", "synth", "trend"))

log = logging.getLogger(__name__)

C2_PREFIX = "c2"
INDEX_PREFIXES = ("dprvi", "ndvi", "svhi", "lai")

# the faults of reading or checking input: one acquisition's skip it, and
# any other is the stage's one error line
_SKIPPED = (BundleError, ValueError, AlignmentError, OSError)


T = TypeVar("T")
R = TypeVar("R")


class _AllSkipped(Exception):
    """Every acquisition of a stage was skipped, each with its error line."""


# Most threads a stage runs its scenes on: each thread holds one scene's
# working set in memory, so the cap bounds a stage's memory on a large host.
_MAX_JOBS = 4


def _pool_size(n_scenes: int, scene_size: int) -> int:
    """Threads for a stage over ``n_scenes`` scenes whose largest has
    ``scene_size`` units of work: pixels for ``sar-index`` and
    ``optical-index``, pixel-looks (width x height x looks) for ``synth``,
    whose sampler draws 2 * looks + 2 uniforms per pixel.

    The CPUs this process may run on, capped by _MAX_JOBS and the scene
    count. A scene that fits in one kernel block gets one thread: blocking
    cannot shrink its working set, so a second thread would double it, and
    such scenes are over too fast to gain from the pool."""
    if scene_size <= raster.BLOCK_PX:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return max(1, min(cpus, _MAX_JOBS, n_scenes))


def _map_scenes(fn: Callable[[T], R], scenes: Sequence[T], scene_size: int) -> Iterator[R]:
    """``fn`` over ``scenes`` (sized as for _pool_size), results in scene order.

    With one thread this is plain ``map``; otherwise the scenes run on a
    bounded thread pool (numpy releases the GIL in the kernels). The first
    scene in order that raises ends the iteration with its exception, and
    scenes not yet started are cancelled.

    A lazy stage module is not safe to execute from two threads at once, so
    the caller touches every module ``fn`` uses before calling this: no
    module may execute first inside a worker.
    """
    n = _pool_size(len(scenes), scene_size)
    if n == 1:
        yield from map(fn, scenes)
        return
    with ThreadPoolExecutor(max_workers=n, thread_name_prefix="vinesar-scene") as pool:
        yield from pool.map(fn, scenes)


def _largest_scene_px(paths: Sequence[Path]) -> int:
    """Pixels of the largest grid among the bundles ``paths``; a header that
    cannot be read counts as 0 (its acquisition's task reports it)."""
    def pixels(path: Path) -> int:
        try:
            spec = raster.read_header(path).spec
        except _SKIPPED:
            return 0
        return spec.width * spec.height
    return max(map(pixels, paths), default=0)


def _each_acquisition(paths: Sequence[Path], read: Callable[[Path], T],
                      write: Callable[[Path, T], R], scene_size: int) -> Iterator[R]:
    """``write(path, read(path))`` for each of ``paths`` on the scene pool
    (sized as for _pool_size; on this thread for a scene_size of 0), the
    results in path order.

    A fault reading or checking an acquisition (one of _SKIPPED, from
    ``read``) skips it with one error line; a fault in ``write`` ends the
    stage, as in _map_scenes. A closing warning lists the skipped files, and
    a stage that skipped them all exits 1."""
    def task(path: Path) -> R | Exception:
        try:
            loaded = read(path)
        except _SKIPPED as e:
            return e
        return write(path, loaded)

    skipped = []
    for path, result in zip(paths, _map_scenes(task, paths, scene_size)):
        if isinstance(result, _SKIPPED):
            log.error("skipping %s: %s", path, result)
            skipped.append(path.name)
        else:
            yield result
    if skipped:
        log.warning("skipped %d acquisitions: %s", len(skipped), ", ".join(skipped))
        if len(skipped) == len(paths):
            raise _AllSkipped


def _echo_file(path: Path, wanted: bool) -> None:
    if wanted:
        sys.stdout.write(path.read_text())


def _scene_name(date: Optional[dt.date], orbit: Optional[Orbit]) -> str:
    parts = [C2_PREFIX]
    parts.append(date.isoformat() if date else "scene")
    if orbit:
        parts.append(orbit.value)
    return "_".join(parts)


def cmd_synth(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    """Generate covariance bundles from a scene or campaign description.

    Every scene is built and checked before the first one is generated;
    then each is generated and saved as one task of a bounded thread pool.
    """
    path = Path(args.scene)
    doc = read_json_object(path)
    try:
        seed = json_seed(args.seed if args.seed is not None else doc.get("seed", cfg.seed))
        scenes = synth.scenes_from_json(doc, seed)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None

    first_with: dict[str, int] = {}
    for idx, scene in enumerate(scenes):
        name = _scene_name(scene.timestamp, scene.orbit)
        if name in first_with:
            raise ValueError(f"{path}: scenes #{first_with[name]} and #{idx} "
                             f"would both write {name}")
        first_with[name] = idx

    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    def write_scene(name: str) -> str:
        sar.save_c2(synth.generate_scene(scenes[first_with[name]]), cfg.out_dir / name)
        return name

    names = list(first_with)
    pixel_looks = max((s.spec.width * s.spec.height * s.looks for s in scenes), default=0)
    for name in _map_scenes(write_scene, names, pixel_looks):
        scene = scenes[first_with[name]]
        log.info("wrote %s (%dx%d, %d looks)", name, scene.spec.width,
                 scene.spec.height, scene.looks)
    return 0


def cmd_sar_index(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    """Covariance bundles -> vegetation index bundles, one per acquisition:
    each scene is loaded, filtered, indexed on its own grid and saved as one
    task of a bounded thread pool."""
    src = cfg.inputs_dir()
    paths = sorted(src.glob(f"{C2_PREFIX}_*.json"))
    if not paths:
        raise ValueError(f"no {C2_PREFIX}_*.json bundles under {src}")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    wx, wy = cfg.multilook
    load_c2 = sar.load_c2  # executes sar on this thread, not in a worker (see _map_scenes)

    def index_scene(p: Path) -> raster.Raster:
        c2 = load_c2(p)
        if (wx, wy) != (1, 1):
            c2 = sar.multilook(c2, wx, wy)
        if cfg.boxcar is not None and cfg.boxcar > 1:
            c2 = sar.boxcar_filter(c2, cfg.boxcar)
        return sar.dprvi_raster(c2)

    def save(p: Path, index: raster.Raster) -> str:
        name = f"dprvi_{p.stem.split('_', 1)[1]}"
        raster.save_raster(index, cfg.out_dir / name)
        return name

    for name in _each_acquisition(paths, index_scene, save, _largest_scene_px(paths)):
        log.info("wrote %s", name)
    return 0


def cmd_optical(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    """Reflectance bundles -> NDVI and SVHI bundles; LAI passes validation.
    Each acquisition, reflectance or LAI, is one task of a bounded thread pool."""
    src = cfg.inputs_dir()
    # an acquisition is a bands_* bundle, or a bands10_* bundle and the
    # bands20_* bundle of the same suffix; both would write one ndvi_/svhi_ pair
    single = sorted(src.glob("bands_*.json"))
    split = sorted(src.glob("bands10_*.json"))
    halves = {p.stem[len("bands10_"):] for p in split}
    both = sorted({p.stem[len("bands_"):] for p in single} & halves)
    if both:
        raise ValueError(f"bands_{both[0]} and bands10_{both[0]} under {src} would both "
                         f"write ndvi_{both[0]}; keep one")
    # a bands20_* bundle without its bands10_* half is an acquisition to skip
    lone = [p for p in sorted(src.glob("bands20_*.json"))
            if p.stem[len("bands20_"):] not in halves]
    paths = single + split + lone + sorted(src.glob("lai_*.json"))
    if not paths:
        raise ValueError(f"no bands_*.json, bands10_*.json or lai_*.json bundles under {src}")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    ndvi, svhi = optical.ndvi, optical.svhi  # executes optical here (see _map_scenes)

    def read(path: Path) -> optical.BandSet | raster.Raster:
        prefix, suffix = path.stem.split("_", 1)
        if prefix == "lai":
            return optical.ingest_lai(raster.load_raster(path))
        if prefix == "bands":
            return optical.bandset_from_bundle(path)
        if prefix == "bands20":
            raise ValueError(f"no bands10_{suffix}.json beside it")
        return optical.bandset_from_split(path, src / f"bands20_{suffix}.json",
                                          cfg.resample_method)

    def write(path: Path, product: optical.BandSet | raster.Raster) -> None:
        suffix = path.stem.split("_", 1)[1]
        if isinstance(product, raster.Raster):
            raster.save_raster(product, cfg.out_dir / f"lai_{suffix}")
        else:
            raster.save_raster(ndvi(product), cfg.out_dir / f"ndvi_{suffix}")
            raster.save_raster(svhi(product), cfg.out_dir / f"svhi_{suffix}")

    for _ in _each_acquisition(paths, read, write, _largest_scene_px(paths)):
        pass
    return 0


def cmd_zonal(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    """Index bundles + parcels -> one zonal statistics CSV."""
    if cfg.parcels_path is None:
        raise ValueError("zonal needs a parcels file; set \"parcels\" in the config")
    plist = sorted(parcels.load_parcels(cfg.parcels_path), key=lambda p: p.id)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    paths = [p for prefix in INDEX_PREFIXES for p in sorted(cfg.out_dir.glob(f"{prefix}_*.json"))]
    if not paths:
        raise ValueError(f"no index bundles ({', '.join(INDEX_PREFIXES)}) under {cfg.out_dir}")

    # grid -> parcel id -> mask: one grid lookup per bundle, not per parcel
    mask_cache: dict[raster.GridSpec, dict[str, parcels.ParcelMask]] = {}

    def summarize(path: Path, index: raster.Raster) -> list[parcels.ZonalStats]:
        rows = []
        masks = mask_cache.setdefault(index.spec, {})
        for parcel in plist:
            mask = masks.get(parcel.id)
            if mask is None:
                mask = parcels.erode(parcels.rasterize(parcel, index.spec), cfg.erode_px)
                masks[parcel.id] = mask
                if mask.is_empty:
                    log.warning("parcel %s has no pixels on grid %dx%d after "
                                "eroding %d px", parcel.id, index.spec.width,
                                index.spec.height, cfg.erode_px)
            if mask.is_empty:
                continue
            try:
                rows.append(parcels.zonal_stats(index, mask))
            except parcels.EmptyStatsError:
                log.warning("parcel %s: only nodata under the mask in %s",
                            parcel.id, path.name)
        return rows

    # the acquisitions share the mask cache, so they stay on the calling
    # thread (a scene size of 0); the rows come back in path order either way
    rows = [row for acquisition in _each_acquisition(paths, raster.load_raster, summarize, 0)
            for row in acquisition]
    out_csv = cfg.out_dir / "zonal.csv"
    parcels.write_zonal_csv(rows, out_csv)
    log.info("wrote %s (%d rows)", out_csv.name, len(rows))
    _echo_file(out_csv, args.stdout)
    return 0


def _degree_days(weather: Path, t_base_c: float) -> phenology.DegreeDaySeries:
    """The weather file's daily records accumulated into degree days; an
    accumulation error names the file, as a bad row does."""
    records = phenology.load_weather_csv(weather)
    try:
        return phenology.accumulate_cdd(records, t_base_c)
    except ValueError as e:
        raise ValueError(f"{weather}: {e}") from None


def cmd_degree_days(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    """Weather CSV -> daily degree-day CSV."""
    if cfg.weather_path is None:
        raise ValueError("degree-days needs a weather file; set \"weather\" in the config")
    series = _degree_days(cfg.weather_path, cfg.t_base_c)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_csv = cfg.out_dir / "degree_days.csv"
    phenology.write_degree_days_csv(series, out_csv)
    log.info("wrote %s (%d days)", out_csv.name, len(series.entries))
    _echo_file(out_csv, args.stdout)
    return 0


def cmd_trend(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    """Zonal CSV (+ weather) -> trend, group, correlation and scatter CSVs.

    With the CDD abscissa the degree-day season diagnostic is logged too.
    """
    zonal_csv = cfg.out_dir / "zonal.csv"
    if not zonal_csv.exists():
        raise ValueError(f"{zonal_csv} not found; run the zonal stage first")
    stats = parcels.read_zonal_csv(zonal_csv)
    if not stats:
        raise ValueError(f"{zonal_csv} holds no rows")

    cdd_series = None
    if cfg.abscissa is Abscissa.CDD:
        if cfg.weather_path is None:
            raise ValueError("CDD abscissa needs a weather file; set \"weather\" "
                             "in the config or use abscissa \"doy\"")
        cdd_series = _degree_days(cfg.weather_path, cfg.t_base_c)
    orientation = {}
    if cfg.parcels_path is not None:
        orientation = parcels.load_orientations(cfg.parcels_path)

    try:
        tables = trend.season_tables(stats, orientation, cfg.max_gap_days, cfg.abscissa,
                                     cdd_series)
    except ValueError as e:
        raise ValueError(f"{zonal_csv}: {e}") from None
    if cdd_series is not None:
        # only a log line: a record too short for its fit costs no table
        try:
            log.info("degree days: quadratic-in-time diagnostic r = %.4f",
                     phenology.fit_cdd_vs_doy(cdd_series).r)
        except ValueError as e:
            log.warning("%s: no degree-day diagnostic: %s", cfg.weather_path, e)
    trend_csv = cfg.out_dir / "trend.csv"
    trend.write_trend_csv(tables.trend, trend_csv)
    trend.write_correlation_csv(tables.correlation, cfg.out_dir / "correlation.csv")
    trend.write_scatter_csv(tables.scatter, cfg.out_dir / "scatter.csv")
    write_table(cfg.out_dir / "trend_groups.csv", TREND_GROUPS_CSV_HEADER, tables.groups)
    log.info("wrote trend.csv (%d rows), correlation.csv (%d), scatter.csv (%d), "
             "trend_groups.csv (%d)", len(tables.trend), len(tables.correlation),
             len(tables.scatter), len(tables.groups))
    _echo_file(trend_csv, args.stdout)
    return 0


def cmd_report(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    """Summarize the trend and correlation CSVs as a small text report."""
    def fixed(cell: str, spec: str) -> str:
        return format(float(cell), spec) if cell else "-"

    def trend_line(cells: list[str]) -> str:
        parcel_id, orbit, peak_date, fit_r, fit_r2, _, _, _, vertex_x, _ = cells
        return (f"{parcel_id:<12}{orbit or '-':<7}{peak_date:<12}{fixed(fit_r, '.3f'):>8}"
                f"{fixed(fit_r2, '.3f'):>8}  {fixed(vertex_x, '.1f')}")

    def group_line(cells: list[str]) -> str:
        orientation, orbit, mean_fit_r, n_parcels = cells
        return (f"  {orientation:<7}{orbit or '-':<5}"
                f"{float(mean_fit_r):.3f}  ({n_parcels} parcels)")

    def correlation_line(cells: list[str]) -> str:
        index_a, index_b, parcel_id, orbit, n, r, _ = cells
        return (f"  {index_a:>6} vs {index_b:<6}{parcel_id:<12}{orbit or '-':<5}"
                f"n={n:<4}r={float(r):.3f}")

    def read_lines(name: str, header: Sequence[str],
                   convert: Callable[[list[str]], str]) -> list[str]:
        path = cfg.out_dir / name
        return read_table(path, header, convert) if path.exists() else []

    trend_lines = read_lines("trend.csv", TREND_CSV_HEADER, trend_line)
    group_lines = read_lines("trend_groups.csv", TREND_GROUPS_CSV_HEADER, group_line)
    corr_lines = read_lines("correlation.csv", CORRELATION_CSV_HEADER, correlation_line)
    if not trend_lines and not corr_lines:
        raise ValueError(f"nothing to report under {cfg.out_dir}; run trend first")

    lines = ["Seasonal vegetation report", "=" * 26, ""]
    if trend_lines:
        lines.append("Per-parcel index peaks and parabolic fits")
        lines.append(f"{'parcel':<12}{'orbit':<7}{'peak date':<12}"
                     f"{'fit r':>8}{'fit r2':>8}  vertex_x")
        lines += trend_lines + [""]
    if group_lines:
        lines.append("Mean fit r by parcel orientation")
        lines += group_lines + [""]
    if corr_lines:
        lines.append("Cross-index correlations (paired by nearest date)")
        lines += corr_lines + [""]
    text = "\n".join(lines)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_open(cfg.out_dir / "report.txt") as f:
        f.write(text)
    log.info("wrote report.txt")
    if args.stdout:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vinesar",
        description="Dual-pol SAR and optical vegetation index pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in (
            ("synth", cmd_synth, "generate synthetic covariance bundles"),
            ("sar-index", cmd_sar_index, "covariance bundles to index bundles"),
            ("optical-index", cmd_optical, "reflectance bundles to NDVI/SVHI"),
            ("zonal", cmd_zonal, "per-parcel statistics over index bundles"),
            ("degree-days", cmd_degree_days, "daily degree days from weather"),
            ("trend", cmd_trend, "seasonal fits and cross-index correlations"),
            ("report", cmd_report, "human-readable summary of the trend outputs")):
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        if func is cmd_synth:
            p.add_argument("scene", help="scene or campaign JSON")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--multilook", help="multilook window, e.g. 4x1")
        p.add_argument("--boxcar", type=int, help="odd boxcar window, 0-off")
        p.add_argument("--erode", type=int, help="parcel mask erosion in pixels")
        p.add_argument("--tbase", type=float, help="degree-day base temperature, C")
        p.add_argument("--max-gap", type=int, dest="max_gap",
                       help="max days between paired acquisitions")
        p.add_argument("--seed", type=int, help="64-bit RNG seed")
        p.add_argument("--stdout", action="store_true",
                       help="echo the produced table to stdout")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args)
        return args.func(cfg, args)
    except _SKIPPED as e:
        log.error("%s", e)
        return 1
    except _AllSkipped:
        return 1


if __name__ == "__main__":
    sys.exit(main())
