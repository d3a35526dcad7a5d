"""The stage table's file contract, and reruns into a used output folder.

Every file a stage writes into its output folder is one its row in
``cli.STAGES`` names, and a rerun leaves the output folder as a run into a
fresh one would: a stage removes the outputs it owns that its run did not
write, all of them when it exits 1, but never one of its own inputs.
"""

import fnmatch
import json
import shutil
from pathlib import Path

import pytest

from conftest import build_campaign_workspace, run_cli, write_config, write_optical_inputs
from vinesar import cli

# the stages that read the config's folders, in pipeline order
AFTER_SYNTH = [name for name in cli.STAGES if name != "synth"]


def write_patterns(stage: cli.Stage) -> list[str]:
    """The names of the files ``stage`` writes, as shell patterns."""
    return [f"{prefix}_*{ext}" for prefix in stage.bundles for ext in (".json", ".bin")] \
        + list(stage.tables)


def owners(name: str) -> list[str]:
    """The stages whose write patterns match the file ``name``."""
    return [stage.name for stage in cli.STAGES.values()
            if any(fnmatch.fnmatchcase(name, pattern) for pattern in write_patterns(stage))]


def listing(folder: Path) -> set[str]:
    return {p.name for p in folder.iterdir()}


def folder_bytes(folder: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir())}


@pytest.mark.parametrize("rasters_dir", [None, "raw"])
def test_each_stage_writes_only_what_its_row_names(tmp_path, rasters_dir):
    ws = build_campaign_workspace(tmp_path)
    out = ws["out"]
    raw = out if rasters_dir is None else tmp_path / rasters_dir
    if rasters_dir is not None:
        raw.mkdir()
        doc = json.loads(ws["config"].read_text())
        ws["config"].write_text(json.dumps(dict(doc, rasters_dir=rasters_dir)))
    given = set()  # the inputs this test writes into out_dir itself
    for stage in cli.STAGES.values():
        if stage.name == "optical-index":
            before = listing(out)
            write_optical_inputs(raw)
            given = listing(out) - before
        argv = [stage.name, "--config", str(ws["config"])]
        if stage.name == "synth":
            argv[1:1] = [str(ws["campaign"])]
            argv += ["--out", str(raw)]
        target = raw if stage.name == "synth" else out
        before = listing(target)
        assert run_cli(*argv) == 0, stage.name
        created = listing(target) - before
        assert created, stage.name
        assert {name: owners(name) for name in created} == {
            name: [stage.name] for name in created}
    outputs = listing(out) - given
    assert {name: len(owners(name)) for name in outputs} == dict.fromkeys(outputs, 1)
    # the reflectance halves are inputs no stage writes; optical-index
    # rewrites lai_* where it reads them
    assert bool(given) == (rasters_dir is None)
    assert all(owners(name) in ([], ["optical-index"]) for name in given)


def test_zonal_and_report_read_what_earlier_rows_write():
    stages = cli.STAGES
    assert stages["sar-index"].reads == stages["synth"].bundles
    assert stages["zonal"].reads == ("dprvi", "ndvi", "svhi", "lai")
    assert stages["zonal"].reads == stages["sar-index"].bundles + stages["optical-index"].bundles
    assert stages["trend"].reads == tuple(stages["zonal"].tables)
    assert set(stages["report"].reads) < set(stages["trend"].tables)
    assert all(header is not None for stage in stages.values()
               for name, header in stage.tables.items() if name.endswith(".csv"))


@pytest.fixture(scope="module")
def season(campaign_run, tmp_path_factory):
    """The campaign's covariance and optical inputs under raw/ (rasters_dir
    set, every path relative to the config), and one full run into out/."""
    root = tmp_path_factory.mktemp("season")
    ws = build_campaign_workspace(root)
    doc = json.loads(ws["config"].read_text())
    ws["config"].write_text(json.dumps(dict(doc, out_dir="out", rasters_dir="raw")))
    (root / "raw").mkdir()
    for path in campaign_run["out"].glob("c2_*"):
        shutil.copy(path, root / "raw")
    write_optical_inputs(root / "raw")
    assert all(run_cli(stage, "--config", str(ws["config"])) == 0 for stage in AFTER_SYNTH)
    return root


def truncate(path: Path) -> None:
    with open(path, "r+b") as f:
        f.truncate(path.stat().st_size - 4)


def delete_bundle(stem: Path) -> None:
    for ext in (".json", ".bin"):
        stem.with_suffix(ext).unlink()


# faults made to the inputs between two runs: (root) -> None
FAULTS = {
    "truncated c2": lambda root: truncate(root / "raw" / "c2_2023-03-28_DES.bin"),
    "truncated bands10": lambda root: truncate(root / "raw" / "bands10_2023-04-26.bin"),
    "deleted c2": lambda root: delete_bundle(root / "raw" / "c2_2023-05-27_DES"),
    "deleted lai": lambda root: delete_bundle(root / "raw" / "lai_2023-06-25"),
    # sar-index exits 1
    "every c2 truncated": lambda root: [truncate(p) for p in (root / "raw").glob("c2_*.bin")],
    # degree-days, trend and report exit 1
    "deleted weather": lambda root: (root / "weather.csv").unlink(),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_rerun_equals_a_run_into_a_fresh_folder(season, tmp_path, caplog, fault):
    used = shutil.copytree(season, tmp_path / "used")
    fresh = shutil.copytree(season, tmp_path / "fresh",
                            ignore=lambda d, names: names if Path(d).name == "out" else [])
    codes = {}
    for root in (fresh, used):
        FAULTS[fault](root)
        caplog.clear()
        codes[root] = [run_cli(stage, "--config", str(root / "config.json"))
                       for stage in AFTER_SYNTH]
    assert codes[used] == codes[fresh]
    assert folder_bytes(used / "out") == folder_bytes(fresh / "out")
    if fault == "truncated c2":
        removals = [r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("removed")]
        assert removals == ["removed 2 stale outputs: dprvi_2023-03-28_DES.bin, "
                            "dprvi_2023-03-28_DES.json"]


def test_a_skipped_lai_input_in_the_output_folder_stays(campaign_run, tmp_path):
    """With rasters_dir unset, lai_* is read from the folder it is written
    to: a skipped one is an input, never a stale output, while the outputs
    of an acquisition deleted between runs go."""
    used = shutil.copytree(campaign_run["root"], tmp_path / "used")
    inputs = ("c2_", "bands10_", "bands20_", "lai_")
    fresh = shutil.copytree(
        campaign_run["root"], tmp_path / "fresh",
        ignore=lambda d, names: [n for n in names if Path(d).name == "out"
                                 and not n.startswith(inputs)])
    codes = {}
    for root in (used, fresh):
        write_config(root / "config.json", root / "out")
        truncate(root / "out" / "lai_2023-05-26.bin")
        delete_bundle(root / "out" / "bands10_2023-04-26")
        delete_bundle(root / "out" / "bands20_2023-04-26")
        kept = (root / "out" / "lai_2023-05-26.bin").read_bytes()
        codes[root] = [run_cli(stage, "--config", str(root / "config.json"))
                       for stage in AFTER_SYNTH]
        assert (root / "out" / "lai_2023-05-26.bin").read_bytes() == kept
        assert (root / "out" / "lai_2023-05-26.json").exists()
    assert codes[used] == codes[fresh] == [0] * len(AFTER_SYNTH)
    assert not list((used / "out").glob("ndvi_2023-04-26.*"))
    assert not list((used / "out").glob("svhi_2023-04-26.*"))
    assert folder_bytes(used / "out") == folder_bytes(fresh / "out")


def test_a_stage_that_exits_1_removes_every_output_it_owns(season, tmp_path, caplog):
    root = shutil.copytree(season, tmp_path / "w")
    (root / "parcels.geojson").unlink()
    assert run_cli("zonal", "--config", str(root / "config.json")) == 1
    assert not (root / "out" / "zonal.csv").exists()
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == ["removed 1 stale outputs: zonal.csv"]
    # the index bundles zonal reads stay
    assert len(list((root / "out").glob("dprvi_*"))) == len(list((season / "out").glob("dprvi_*")))
