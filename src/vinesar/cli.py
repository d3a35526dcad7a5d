"""Command line pipeline over the library.

Stages communicate only through files in the output directory: covariance
bundles in, index bundles and CSVs out. Logs go to stderr; stdout stays
silent unless --stdout explicitly asks for the produced table. Reruns with
identical inputs and seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import optical, parcels, phenology, sar, synth, trend
from .raster import (AlignmentError, BundleError, GridSpec, Orbit, ResampleMethod,
                     json_float, json_int, load_raster, save_raster)
from .tables import read_table, write_table

log = logging.getLogger(__name__)

C2_PREFIX = "c2"
INDEX_PREFIXES = ("dprvi", "ndvi", "svhi", "lai")

_FATAL = (ValueError, KeyError, OSError, BundleError, AlignmentError)


@dataclass
class PipelineConfig:
    """Pipeline settings: a JSON config file merged with CLI flags.

    Flags win over the file; the file wins over these defaults. Paths are
    resolved relative to the config file's directory when they come from the
    file, and relative to the working directory when they come from flags.
    """

    out_dir: Path = Path("out")
    rasters_dir: Optional[Path] = None  # defaults to out_dir when unset
    parcels_path: Optional[Path] = None
    weather_path: Optional[Path] = None
    multilook: tuple[int, int] = (4, 1)
    boxcar: Optional[int] = None
    erode_px: int = 1
    t_base_c: float = phenology.DEFAULT_BASE_TEMP_C
    max_gap_days: int = 7
    abscissa: str = trend.Abscissa.CDD.value
    seed: int = 0
    resample_method: str = ResampleMethod.NEAREST.value

    def inputs_dir(self) -> Path:
        return self.rasters_dir if self.rasters_dir is not None else self.out_dir


_CONFIG_KEYS = {
    "out_dir": "out_dir",
    "rasters_dir": "rasters_dir",
    "parcels": "parcels_path",
    "weather": "weather_path",
    "multilook": "multilook",
    "boxcar": "boxcar",
    "erode": "erode_px",
    "t_base": "t_base_c",
    "max_gap_days": "max_gap_days",
    "abscissa": "abscissa",
    "seed": "seed",
    "resample": "resample_method",
}


def _parse_multilook(text: str) -> tuple[int, int]:
    try:
        wx, wy = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"multilook window must look like 4x1, got {text!r}") from None
    if wx < 1 or wy < 1:
        raise ValueError(f"multilook window must be positive, got {text!r}")
    return wx, wy


def _read_json_object(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def load_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig()
    if args.config:
        cfg_path = Path(args.config)
        doc = _read_json_object(cfg_path)
        unknown = set(doc) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"{cfg_path}: unknown config keys {sorted(unknown)}")
        base = cfg_path.parent
        for key, attr in _CONFIG_KEYS.items():
            if key not in doc or doc[key] is None:
                continue
            value = doc[key]
            try:
                if attr in ("out_dir", "rasters_dir", "parcels_path", "weather_path"):
                    if not isinstance(value, str):
                        raise ValueError(f"{key!r} must be a path string, got {value!r}")
                    value = base / value
                elif attr == "multilook":
                    # [4, 1] is read as "4x1", so both forms meet one check
                    if isinstance(value, list):
                        value = "x".join(str(v) for v in value)
                    value = _parse_multilook(str(value))
                elif attr == "t_base_c":
                    value = json_float(value, key)
                elif attr == "seed":
                    value = synth.json_seed(value, key)
                elif attr in ("boxcar", "erode_px", "max_gap_days"):
                    value = json_int(value, key)
            except ValueError as e:
                raise ValueError(f"{cfg_path}: {e}") from None
            setattr(cfg, attr, value)

    if getattr(args, "out", None):
        cfg.out_dir = Path(args.out)
    if getattr(args, "multilook", None):
        cfg.multilook = _parse_multilook(args.multilook)
    if getattr(args, "boxcar", None) is not None:
        cfg.boxcar = args.boxcar if args.boxcar > 0 else None
    if getattr(args, "erode", None) is not None:
        cfg.erode_px = args.erode
    if getattr(args, "tbase", None) is not None:
        cfg.t_base_c = json_float(args.tbase, "--tbase")
    if getattr(args, "max_gap", None) is not None:
        cfg.max_gap_days = args.max_gap
    if getattr(args, "seed", None) is not None:
        cfg.seed = synth.json_seed(args.seed, "--seed")

    if cfg.boxcar is not None and cfg.boxcar <= 0:
        cfg.boxcar = None
    if cfg.boxcar is not None and cfg.boxcar % 2 == 0:
        raise ValueError(f"boxcar window must be odd, got {cfg.boxcar}")
    if cfg.erode_px < 0:
        raise ValueError("erode must be >= 0")
    if cfg.max_gap_days < 0:
        raise ValueError("max_gap_days must be >= 0")
    trend.Abscissa(cfg.abscissa)
    ResampleMethod(cfg.resample_method)
    return cfg


def _echo_file(path: Path, wanted: bool) -> None:
    if wanted:
        sys.stdout.write(path.read_text())


def _bundle_suffix(stem: str, prefix: str) -> str:
    return stem[len(prefix) + 1:]


def _scene_name(date: Optional[dt.date], orbit: Optional[Orbit]) -> str:
    parts = [C2_PREFIX]
    parts.append(date.isoformat() if date else "scene")
    if orbit:
        parts.append(orbit.value)
    return "_".join(parts)


def cmd_synth(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    """Generate covariance bundles from a scene or campaign description.

    Every scene is built and checked before the first one is generated.
    """
    path = Path(args.scene)
    doc = _read_json_object(path)
    flag_seed = getattr(args, "seed", None)

    if "scenes" in doc:
        grid_doc = doc.get("grid")
        if not isinstance(grid_doc, dict):
            raise ValueError(f"{path}: a campaign needs a \"grid\" object")
        if not isinstance(doc["scenes"], list):
            raise ValueError(f"{path}: \"scenes\" must be a list")
        top_seed = flag_seed if flag_seed is not None else doc.get("seed", cfg.seed)
        try:
            top_seed = synth.json_seed(top_seed)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        scenes = []
        for idx, entry in enumerate(doc["scenes"]):
            if not isinstance(entry, dict):
                raise ValueError(f"{path}: scene #{idx} is not a JSON object")
            scene_doc = dict(grid_doc)
            scene_doc["background"] = entry.get("background", doc.get("background"))
            if scene_doc["background"] is None:
                raise ValueError(f"{path}: scene #{idx}: no background covariance given")
            scene_doc["regions"] = entry.get("regions", doc.get("regions", []))
            scene_doc["looks"] = entry.get("looks", doc.get("looks", 1))
            scene_doc["seed"] = entry.get("seed", synth.derive_seed(top_seed, idx))
            scene_doc["timestamp"] = entry.get("date")
            scene_doc["orbit"] = entry.get("orbit")
            try:
                scenes.append(synth.scene_from_dict(scene_doc))
            except ValueError as e:
                raise ValueError(f"{path}: scene #{idx}: {e}") from None
    else:
        seed = flag_seed if flag_seed is not None else doc.get("seed", cfg.seed)
        try:
            scenes = [synth.scene_from_dict(doc, seed=seed)]
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
    for name, idx in first_with.items():
        scene = scenes[idx]
        sar.save_c2(synth.generate_scene(scene), cfg.out_dir / name)
        log.info("wrote %s (%dx%d, %d looks)", name, scene.spec.width,
                 scene.spec.height, scene.looks)
    return 0


def cmd_sar_index(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    """Covariance bundles -> vegetation index bundles, one per acquisition.

    Every header is checked first, so a bad or misaligned bundle stops the
    stage before any index is written; then one scene at a time is loaded,
    filtered, indexed and saved.
    """
    src = cfg.inputs_dir()
    paths = sorted(src.glob(f"{C2_PREFIX}_*.json"))
    if not paths:
        raise ValueError(f"no {C2_PREFIX}_*.json bundles under {src}")

    ref = sar.read_c2_header(paths[0]).spec
    for p in paths[1:]:
        if sar.read_c2_header(p).spec != ref:
            raise AlignmentError(f"{p.name} is on a different grid than "
                                 f"{paths[0].name}; the stack must align")

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    wx, wy = cfg.multilook
    for p in paths:
        c2 = sar.load_c2(p)
        if (wx, wy) != (1, 1):
            c2 = sar.multilook(c2, wx, wy)
        if cfg.boxcar is not None and cfg.boxcar > 1:
            c2 = sar.boxcar_filter(c2, cfg.boxcar)
        index = sar.dprvi_raster(c2)
        name = f"dprvi_{_bundle_suffix(p.stem, C2_PREFIX)}"
        save_raster(index, cfg.out_dir / name)
        log.info("wrote %s", name)
    return 0


def cmd_optical(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    """Reflectance bundles -> NDVI and SVHI bundles; LAI passes validation."""
    src = cfg.inputs_dir()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    produced = 0
    skipped = []

    # an acquisition is a bands_* bundle, or a bands10_* bundle and the
    # bands20_* bundle of the same suffix
    for path in sorted(src.glob("bands_*.json")) + sorted(src.glob("bands10_*.json")):
        prefix, suffix = path.stem.split("_", 1)
        try:
            if prefix == "bands":
                bands = optical.bandset_from_bundle(path)
            else:
                bands = optical.bandset_from_split(path, src / f"bands20_{suffix}.json",
                                                   cfg.resample_method)
        except (ValueError, BundleError, AlignmentError) as e:
            log.error("skipping %s: %s", path.name, e)
            skipped.append(path.name)
            continue
        save_raster(optical.ndvi(bands), cfg.out_dir / f"ndvi_{suffix}")
        save_raster(optical.svhi(bands), cfg.out_dir / f"svhi_{suffix}")
        produced += 1

    for path in sorted(src.glob("lai_*.json")):
        suffix = _bundle_suffix(path.stem, "lai")
        try:
            lai = optical.ingest_lai(load_raster(path))
        except (ValueError, BundleError) as e:
            log.error("skipping %s: %s", path.name, e)
            skipped.append(path.name)
            continue
        save_raster(lai, cfg.out_dir / f"lai_{suffix}")

    if produced == 0 and not skipped:
        raise ValueError(f"no bands_*.json or bands10_*.json bundles under {src}")
    if skipped:
        log.warning("skipped %d acquisitions: %s", len(skipped), ", ".join(skipped))
    return 0


def cmd_zonal(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    """Index bundles + parcels -> one zonal statistics CSV."""
    if cfg.parcels_path is None:
        raise ValueError("zonal needs a parcels file; set \"parcels\" in the config")
    plist = sorted(parcels.load_parcels(cfg.parcels_path), key=lambda p: p.id)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    paths = []
    for prefix in INDEX_PREFIXES:
        paths.extend(sorted(cfg.out_dir.glob(f"{prefix}_*.json")))
    if not paths:
        raise ValueError(f"no index bundles ({', '.join(INDEX_PREFIXES)}) under {cfg.out_dir}")

    mask_cache: dict[tuple[str, GridSpec], parcels.ParcelMask] = {}
    rows = []
    for path in paths:
        raster = load_raster(path)
        for parcel in plist:
            key = (parcel.id, raster.spec)
            mask = mask_cache.get(key)
            if mask is None:
                mask = parcels.erode(parcels.rasterize(parcel, raster.spec), cfg.erode_px)
                mask_cache[key] = mask
                if mask.is_empty:
                    log.warning("parcel %s has no pixels on grid %dx%d after "
                                "eroding %d px", parcel.id, raster.spec.width,
                                raster.spec.height, cfg.erode_px)
            if mask.is_empty:
                continue
            try:
                rows.append(parcels.zonal_stats(raster, mask))
            except parcels.EmptyStatsError:
                log.warning("parcel %s: only nodata under the mask in %s",
                            parcel.id, path.name)

    out_csv = cfg.out_dir / "zonal.csv"
    parcels.write_zonal_csv(rows, out_csv)
    log.info("wrote %s (%d rows)", out_csv.name, len(rows))
    _echo_file(out_csv, args.stdout)
    return 0


def cmd_degree_days(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    """Weather CSV -> daily degree-day CSV with the season diagnostic."""
    if cfg.weather_path is None:
        raise ValueError("degree-days needs a weather file; set \"weather\" in the config")
    records = phenology.load_weather_csv(cfg.weather_path)
    series = phenology.accumulate_cdd(records, cfg.t_base_c)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_csv = cfg.out_dir / "degree_days.csv"
    phenology.write_degree_days_csv(series, out_csv)
    diag = phenology.fit_cdd_vs_doy(series)
    log.info("wrote %s (%d days, quadratic-in-time diagnostic r = %.4f)",
             out_csv.name, len(series.entries), diag.r)
    _echo_file(out_csv, args.stdout)
    return 0


def cmd_trend(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    """Zonal CSV (+ weather) -> trend, group, correlation and scatter CSVs."""
    zonal_csv = cfg.out_dir / "zonal.csv"
    if not zonal_csv.exists():
        raise ValueError(f"{zonal_csv} not found; run the zonal stage first")
    stats = parcels.read_zonal_csv(zonal_csv)
    if not stats:
        raise ValueError(f"{zonal_csv} holds no rows")

    abscissa = trend.Abscissa(cfg.abscissa)
    cdd_series = None
    if abscissa is trend.Abscissa.CDD:
        if cfg.weather_path is None:
            raise ValueError("CDD abscissa needs a weather file; set \"weather\" "
                             "in the config or use abscissa \"doy\"")
        records = phenology.load_weather_csv(cfg.weather_path)
        cdd_series = phenology.accumulate_cdd(records, cfg.t_base_c)
    orientation = {}
    if cfg.parcels_path is not None:
        orientation = {p.id: p.orientation for p in parcels.load_parcels(cfg.parcels_path)}

    try:
        tables = trend.season_tables(stats, orientation, cfg.max_gap_days, abscissa,
                                     cdd_series)
    except ValueError as e:
        raise ValueError(f"{zonal_csv}: {e}") from None
    trend_csv = cfg.out_dir / "trend.csv"
    trend.write_trend_csv(tables.trend, trend_csv)
    trend.write_correlation_csv(tables.correlation, cfg.out_dir / "correlation.csv")
    trend.write_scatter_csv(tables.scatter, cfg.out_dir / "scatter.csv")
    write_table(cfg.out_dir / "trend_groups.csv", trend.TREND_GROUPS_CSV_HEADER,
                tables.groups)
    log.info("wrote trend.csv (%d rows), correlation.csv (%d), scatter.csv (%d), "
             "trend_groups.csv (%d)", len(tables.trend), len(tables.correlation),
             len(tables.scatter), len(tables.groups))
    _echo_file(trend_csv, args.stdout)
    return 0


def cmd_report(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    """Summarize the trend and correlation CSVs as a small text report."""
    def read_rows(name: str, header: Sequence[str]) -> list[dict]:
        path = cfg.out_dir / name
        return read_table(path, header) if path.exists() else []

    trend_rows = read_rows("trend.csv", trend.TREND_CSV_HEADER)
    group_rows = read_rows("trend_groups.csv", trend.TREND_GROUPS_CSV_HEADER)
    corr_rows = read_rows("correlation.csv", trend.CORRELATION_CSV_HEADER)
    if not trend_rows and not corr_rows:
        raise ValueError(f"nothing to report under {cfg.out_dir}; run trend first")

    lines = ["Seasonal vegetation report", "=" * 26, ""]
    if trend_rows:
        lines.append("Per-parcel index peaks and parabolic fits")
        lines.append(f"{'parcel':<12}{'orbit':<7}{'peak date':<12}"
                     f"{'fit r':>8}{'fit r2':>8}  vertex_x")
        for row in trend_rows:
            fit_r = f"{float(row['fit_r']):.3f}" if row["fit_r"] else "-"
            fit_r2 = f"{float(row['fit_r2']):.3f}" if row["fit_r2"] else "-"
            vx = f"{float(row['vertex_x']):.1f}" if row["vertex_x"] else "-"
            lines.append(f"{row['parcel_id']:<12}{row['orbit'] or '-':<7}"
                         f"{row['peak_date']:<12}{fit_r:>8}{fit_r2:>8}  {vx}")
        lines.append("")
    if group_rows:
        lines.append("Mean fit r by parcel orientation")
        for row in group_rows:
            lines.append(f"  {row['orientation']:<7}{row['orbit'] or '-':<5}"
                         f"{float(row['mean_fit_r']):.3f}  ({row['n_parcels']} parcels)")
        lines.append("")
    if corr_rows:
        lines.append("Cross-index correlations (paired by nearest date)")
        for row in corr_rows:
            lines.append(f"  {row['index_a']:>6} vs {row['index_b']:<6}"
                         f"{row['parcel_id']:<12}{row['orbit'] or '-':<5}"
                         f"n={row['n']:<4}r={float(row['r']):.3f}")
        lines.append("")
    text = "\n".join(lines)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "report.txt").write_text(text)
    log.info("wrote report.txt")
    if args.stdout:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vinesar",
        description="Dual-pol SAR and optical vegetation index pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
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

    p = sub.add_parser("synth", help="generate synthetic covariance bundles")
    p.add_argument("scene", help="scene or campaign JSON")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sar-index", help="covariance bundles to index bundles")
    common(p)
    p.set_defaults(func=cmd_sar_index)

    p = sub.add_parser("optical-index", help="reflectance bundles to NDVI/SVHI")
    common(p)
    p.set_defaults(func=cmd_optical)

    p = sub.add_parser("zonal", help="per-parcel statistics over index bundles")
    common(p)
    p.set_defaults(func=cmd_zonal)

    p = sub.add_parser("degree-days", help="daily degree days from weather")
    common(p)
    p.set_defaults(func=cmd_degree_days)

    p = sub.add_parser("trend", help="seasonal fits and cross-index correlations")
    common(p)
    p.set_defaults(func=cmd_trend)

    p = sub.add_parser("report", help="human-readable summary of the trend outputs")
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args)
        return args.func(cfg, args)
    except _FATAL as e:
        log.error("%s", e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
