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
import contextlib
import importlib.util
import logging
import os
import stat
import sys
from concurrent.futures import ThreadPoolExecutor
from operator import attrgetter
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar

from .schema import (CORRELATION_CSV_HEADER, DEGREE_DAYS_CSV_HEADER, SCATTER_CSV_HEADER,
                     TREND_CSV_HEADER, TREND_GROUPS_CSV_HEADER, ZONAL_CSV_HEADER, Abscissa,
                     AlignmentError, BundleError, PipelineConfig, json_seed, load_config,
                     read_json_object)
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

# the faults of reading or checking input: one acquisition's skip it, and
# any other is the stage's one error line
_SKIPPED = (BundleError, ValueError, AlignmentError, OSError)


T = TypeVar("T")
R = TypeVar("R")


# each of a stage's reads -> the files it names (see Stage.inputs)
Inputs = dict[str, list[Path]]


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
    """``write(path, read(path))`` for each of ``paths``, the results in path
    order; ``scene_size`` sizes the pool as for _pool_size.

    With one thread the acquisitions run on this one, as plain ``map``;
    otherwise on a bounded thread pool (numpy releases the GIL in the
    kernels). A fault reading or checking an acquisition (one of _SKIPPED,
    from ``read``) skips it with one error line. The first acquisition in
    order whose ``write`` raises ends the stage with its exception, and
    acquisitions not yet started are cancelled. A closing warning lists the
    skipped files, and a stage that skipped them all exits 1.

    A lazy stage module is not safe to execute from two threads at once, so
    the caller touches every module ``read`` and ``write`` use before calling
    this: no module may execute first inside a worker.
    """
    def task(path: Path) -> R | Exception:
        try:
            loaded = read(path)
        except _SKIPPED as e:
            return e
        return write(path, loaded)

    n = _pool_size(len(paths), scene_size)
    pool = (ThreadPoolExecutor(max_workers=n, thread_name_prefix="vinesar-scene")
            if n > 1 else None)
    skipped = []
    with pool or contextlib.nullcontext():
        for path, result in zip(paths, pool.map(task, paths) if pool else map(task, paths)):
            if isinstance(result, _SKIPPED):
                log.error("skipping %s: %s", path, result)
                skipped.append(path.name)
            else:
                yield result
    if skipped:
        log.warning("skipped %d acquisitions: %s", len(skipped), ", ".join(skipped))
        if len(skipped) == len(paths):
            raise _AllSkipped


def _suffix(path: Path) -> str:
    """What follows the prefix in a bundle's name: its date and orbit."""
    return path.stem.split("_", 1)[1]


def cmd_synth(cfg: PipelineConfig, args: argparse.Namespace, inputs: Inputs) -> int:
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

    (prefix,) = args.stage.bundles
    first_with: dict[Path, int] = {}
    for idx, scene in enumerate(scenes):
        date = scene.timestamp.isoformat() if scene.timestamp else "scene"
        out = cfg.out_dir / "_".join([prefix, date] + ([scene.orbit.value] if scene.orbit else []))
        if out in first_with:
            raise ValueError(f"{path}: scenes #{first_with[out]} and #{idx} "
                             f"would both write {out.name}")
        first_with[out] = idx

    def write_scene(out: Path, scene: synth.SceneSpec) -> tuple[Path, synth.SceneSpec]:
        sar.save_c2(synth.generate_scene(scene), out)
        return out, scene

    pixel_looks = max((s.spec.width * s.spec.height * s.looks for s in scenes), default=0)
    for out, scene in _each_acquisition(list(first_with), lambda out: scenes[first_with[out]],
                                        write_scene, pixel_looks):
        log.info("wrote %s (%dx%d, %d looks)", out.name, scene.spec.width,
                 scene.spec.height, scene.looks)
    return 0


def cmd_sar_index(cfg: PipelineConfig, args: argparse.Namespace, inputs: Inputs) -> int:
    """Covariance bundles -> vegetation index bundles, one per acquisition:
    each scene is loaded, filtered, indexed on its own grid and saved as one
    task of a bounded thread pool."""
    (paths,), (index_prefix,) = inputs.values(), args.stage.bundles
    wx, wy = cfg.multilook
    load_c2 = sar.load_c2  # executes sar on this thread (see _each_acquisition)

    def index_scene(p: Path) -> raster.Raster:
        c2 = load_c2(p)
        if (wx, wy) != (1, 1):
            c2 = sar.multilook(c2, wx, wy)
        if cfg.boxcar is not None and cfg.boxcar > 1:
            c2 = sar.boxcar_filter(c2, cfg.boxcar)
        return sar.dprvi_raster(c2)

    def save(p: Path, index: raster.Raster) -> str:
        name = f"{index_prefix}_{_suffix(p)}"
        raster.save_raster(index, cfg.out_dir / name)
        return name

    for name in _each_acquisition(paths, index_scene, save, _largest_scene_px(paths)):
        log.info("wrote %s", name)
    return 0


def cmd_optical(cfg: PipelineConfig, args: argparse.Namespace, inputs: Inputs) -> int:
    """Reflectance bundles -> NDVI and SVHI bundles; LAI passes validation.
    Each acquisition, reflectance or LAI, is one task of a bounded thread pool."""
    bands, bands10, bands20, lai_in = args.stage.reads
    ndvi_out, svhi_out, lai_out = args.stage.bundles
    src = args.stage.source(cfg)
    # an acquisition is a bands_* bundle, or a bands10_* bundle and the
    # bands20_* bundle of the same suffix; both would write one ndvi_/svhi_ pair
    single, split = inputs[bands], inputs[bands10]
    halves = set(map(_suffix, split))
    both = sorted(set(map(_suffix, single)) & halves)
    if both:
        raise ValueError(f"{bands}_{both[0]} and {bands10}_{both[0]} under {src} would both "
                         f"write {ndvi_out}_{both[0]}; keep one")
    # a bands20_* bundle without its bands10_* half is an acquisition to skip
    lone = [p for p in inputs[bands20] if _suffix(p) not in halves]
    paths = single + split + lone + inputs[lai_in]
    ndvi, svhi = optical.ndvi, optical.svhi  # executes optical here (see _each_acquisition)

    def read(path: Path) -> optical.BandSet | raster.Raster:
        prefix, suffix = path.stem.split("_", 1)
        if prefix == lai_in:
            return optical.ingest_lai(raster.load_raster(path))
        if prefix == bands:
            return optical.bandset_from_bundle(path)
        if prefix == bands20:
            raise ValueError(f"no {bands10}_{suffix}.json beside it")
        return optical.bandset_from_split(path, src / f"{bands20}_{suffix}.json",
                                          cfg.resample_method)

    def write(path: Path, product: optical.BandSet | raster.Raster) -> None:
        suffix = _suffix(path)
        if isinstance(product, raster.Raster):
            raster.save_raster(product, cfg.out_dir / f"{lai_out}_{suffix}")
        else:
            raster.save_raster(ndvi(product), cfg.out_dir / f"{ndvi_out}_{suffix}")
            raster.save_raster(svhi(product), cfg.out_dir / f"{svhi_out}_{suffix}")

    for _ in _each_acquisition(paths, read, write, _largest_scene_px(paths)):
        pass
    return 0


def cmd_zonal(cfg: PipelineConfig, args: argparse.Namespace, inputs: Inputs) -> int:
    """Index bundles + parcels -> one zonal statistics CSV."""
    if cfg.parcels_path is None:
        raise ValueError("zonal needs a parcels file; set \"parcels\" in the config")
    plist = sorted(parcels.load_parcels(cfg.parcels_path), key=lambda p: p.id)
    paths = [p for prefix_paths in inputs.values() for p in prefix_paths]

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
    (out_csv,) = args.stage.table_paths(cfg)
    parcels.write_zonal_csv(rows, out_csv)
    log.info("wrote %s (%d rows)", out_csv.name, len(rows))
    return 0


def _degree_days(weather: Path, t_base_c: float) -> phenology.DegreeDaySeries:
    """The weather file's daily records accumulated into degree days; an
    accumulation error names the file, as a bad row does."""
    records = phenology.load_weather_csv(weather)
    try:
        return phenology.accumulate_cdd(records, t_base_c)
    except ValueError as e:
        raise ValueError(f"{weather}: {e}") from None


def cmd_degree_days(cfg: PipelineConfig, args: argparse.Namespace, inputs: Inputs) -> int:
    """Weather CSV -> daily degree-day CSV."""
    if cfg.weather_path is None:
        raise ValueError("degree-days needs a weather file; set \"weather\" in the config")
    series = _degree_days(cfg.weather_path, cfg.t_base_c)
    (out_csv,) = args.stage.table_paths(cfg)
    phenology.write_degree_days_csv(series, out_csv)
    log.info("wrote %s (%d days)", out_csv.name, len(series.entries))
    return 0


def cmd_trend(cfg: PipelineConfig, args: argparse.Namespace, inputs: Inputs) -> int:
    """Zonal CSV (+ weather) -> trend, group, correlation and scatter CSVs.

    With the CDD abscissa the degree-day season diagnostic is logged too.
    """
    ((zonal_csv,),) = inputs.values()
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
    trend_csv, groups_csv, corr_csv, scatter_csv = args.stage.table_paths(cfg)
    trend.write_trend_csv(tables.trend, trend_csv)
    trend.write_correlation_csv(tables.correlation, corr_csv)
    trend.write_scatter_csv(tables.scatter, scatter_csv)
    write_table(groups_csv, args.stage.tables[groups_csv.name], tables.groups)
    log.info("wrote %s (%d rows), %s (%d), %s (%d), %s (%d)",
             trend_csv.name, len(tables.trend), corr_csv.name, len(tables.correlation),
             scatter_csv.name, len(tables.scatter), groups_csv.name, len(tables.groups))
    return 0


def cmd_report(cfg: PipelineConfig, args: argparse.Namespace, inputs: Inputs) -> int:
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

    # each table's file if it is there, else no lines
    trend_lines, group_lines, corr_lines = (
        [line for path in paths for line in read_table(path, _TREND.tables[path.name], convert)]
        for paths, convert in zip(inputs.values(), (trend_line, group_line, correlation_line)))
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
    (out_txt,) = args.stage.table_paths(cfg)
    with atomic_open(out_txt) as f:
        f.write(text)
    log.info("wrote %s", out_txt.name)
    return 0


def _patterns(name: str) -> tuple[str, ...]:
    """The glob patterns of a file ``name`` (it has a dot), or of a bundle prefix."""
    return (name,) if "." in name else (f"{name}_*.json", f"{name}_*.bin")


def _named(folder: Path, name: str) -> list[Path]:
    """The files in ``folder`` that the bundle prefix or file ``name`` names."""
    return [path for pattern in _patterns(name) for path in sorted(folder.glob(pattern))]


class Stage(NamedTuple):
    """A subcommand and its files. It reads ``reads`` from ``source(cfg)``
    and writes ``bundles`` and ``tables`` (with their header from schema,
    None for text) into ``cfg.out_dir``, where it owns every file they name.
    A name with a dot is a file, any other a bundle prefix: ``<prefix>_*``.
    ``run`` gets from main what each of ``reads`` names, as Stage.inputs
    finds it but without the bundles' payloads."""

    name: str
    run: Callable[[PipelineConfig, argparse.Namespace, Inputs], int]
    help: str
    reads: tuple[str, ...] = ()
    source: Callable[[PipelineConfig], Path] = attrgetter("out_dir")
    bundles: tuple[str, ...] = ()
    tables: dict[str, Optional[tuple[str, ...]]] = {}  # never mutated
    removes_stale: bool = True  # see _remove_stale

    def table_paths(self, cfg: PipelineConfig) -> list[Path]:
        return [cfg.out_dir / name for name in self.tables]

    def inputs(self, cfg: PipelineConfig) -> Inputs:
        """Each of ``reads`` -> the files it names in ``source(cfg)``."""
        src = self.source(cfg)
        return {name: _named(src, name) for name in self.reads}

    def outputs(self, cfg: PipelineConfig) -> list[Path]:
        return [p for name in self.bundles + tuple(self.tables) for p in _named(cfg.out_dir, name)]


# synth's --out folder holds the inputs of the stages after it
_SYNTH = Stage("synth", cmd_synth, "generate synthetic covariance bundles",
               bundles=("c2",), removes_stale=False)
_SAR = Stage("sar-index", cmd_sar_index, "covariance bundles to index bundles",
             reads=_SYNTH.bundles, source=PipelineConfig.inputs_dir, bundles=("dprvi",))
# with rasters_dir unset, inputs_dir() is out_dir: lai_* is read where it is written
_OPTICAL = Stage("optical-index", cmd_optical, "reflectance bundles to NDVI/SVHI",
                 reads=("bands", "bands10", "bands20", "lai"), source=PipelineConfig.inputs_dir,
                 bundles=("ndvi", "svhi", "lai"))
_ZONAL = Stage("zonal", cmd_zonal, "per-parcel statistics over index bundles",
               reads=_SAR.bundles + _OPTICAL.bundles, tables={"zonal.csv": ZONAL_CSV_HEADER})
_TREND = Stage("trend", cmd_trend, "seasonal fits and cross-index correlations",
               reads=tuple(_ZONAL.tables),
               tables={"trend.csv": TREND_CSV_HEADER, "trend_groups.csv": TREND_GROUPS_CSV_HEADER,
                       "correlation.csv": CORRELATION_CSV_HEADER,
                       "scatter.csv": SCATTER_CSV_HEADER})
# in pipeline order; --stdout echoes a stage's first table
STAGES = {stage.name: stage for stage in (
    _SYNTH, _SAR, _OPTICAL, _ZONAL,
    Stage("degree-days", cmd_degree_days, "daily degree days from weather",
          tables={"degree_days.csv": DEGREE_DAYS_CSV_HEADER}),
    _TREND,
    Stage("report", cmd_report, "human-readable summary of the trend outputs",
          reads=tuple(name for name in _TREND.tables if name != "scatter.csv"),
          tables={"report.txt": None}))}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vinesar",
        description="Dual-pol SAR and optical vegetation index pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES.values():
        p = sub.add_parser(stage.name, help=stage.help)
        p.set_defaults(stage=stage)
        if stage is _SYNTH:
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


def _stat_keys(paths: Iterable[Path]) -> dict[Path, tuple[int, int]]:
    """Inode and mtime of each of ``paths`` that is a file: a write through
    tables.atomic_open changes both."""
    stats = {p: p.stat() for p in paths}
    return {p: (st.st_ino, st.st_mtime_ns) for p, st in stats.items()
            if stat.S_ISREG(st.st_mode)}


def _remove_stale(stage: Stage, cfg: PipelineConfig, before: dict[Path, tuple[int, int]],
                  inputs: Inputs, rc: int) -> None:
    """Remove, with one warning, the outputs ``stage`` owns that its run did
    not write (unchanged since ``before``), or all of them after a nonzero
    ``rc``; but never one of ``inputs``, what its reads matched in this run."""
    stale = [p for p, key in _stat_keys(stage.outputs(cfg)).items()
             if rc != 0 or before.get(p) == key]
    if not stale:
        return
    kept = {p.resolve() for paths in inputs.values() for p in paths}
    stale = sorted(p for p in stale if p.resolve() not in kept)
    for p in stale:
        p.unlink(missing_ok=True)
    if stale:
        log.warning("removed %d stale outputs: %s", len(stale),
                    ", ".join(p.name for p in stale))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    stage: Stage = args.stage
    before = None
    try:
        cfg = load_config(args)
        inputs, before = stage.inputs(cfg), _stat_keys(stage.outputs(cfg))
        reads = {name: [p for p in paths if p.suffix != ".bin"] for name, paths in inputs.items()}
        if stage.reads and not any(reads.values()):
            raise ValueError(f"no {', '.join(_patterns(name)[0] for name in stage.reads)} "
                             f"under {stage.source(cfg)}")
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        rc = stage.run(cfg, args, reads)
        if rc == 0 and args.stdout and stage.tables:
            sys.stdout.write(stage.table_paths(cfg)[0].read_text())
    except _SKIPPED as e:
        log.error("%s", e)
        rc = 1
    except _AllSkipped:
        rc = 1
    if before is not None and stage.removes_stale:
        _remove_stale(stage, cfg, before, inputs, rc)
    return rc


if __name__ == "__main__":
    sys.exit(main())
