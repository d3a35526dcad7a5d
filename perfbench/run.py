#!/usr/bin/env python3
"""Season-pipeline benchmark for vinesar.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed (set-up, repeated and timed),
then runs the pipeline stages the way a user does, each in a fresh
interpreter through stage.py, again and again for about S seconds. Every
run's outputs are checked (see checks.py). The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 untraced and traced
pipeline runs alternate and the metrics are the per-layer ones.

The package is run from ``src/`` next to this directory; nothing needs to be
installed. Scratch files go under ``.perfbench_work/`` and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs
import layers
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RASTERS = "raw"
OUT = "out"
MIN_RUNS = 3
SETUP_BATCH_S = 0.3

# Each workload keeps one layer dominant; see README.md for why.
WORKLOADS = {w.name: w for w in (
    inputs.Workload("campaign-synth", grid=128, cells=6, ring_share=0.0,
                    multilook=(2, 2), boxcar=None, resample="nearest", synth=True),
    inputs.Workload("parcel-season", grid=384, cells=16, ring_share=0.5,
                    multilook=(2, 2), boxcar=None, resample="nearest", synth=False),
    inputs.Workload("sar-stack", grid=640, cells=4, ring_share=0.0,
                    multilook=(1, 1), boxcar=7, resample="bilinear", synth=False),
)}


def stage_commands(wl: inputs.Workload) -> list[tuple[str, list[str]]]:
    cfg = ["--config", "config.json"]
    cmds = [("synth", ["synth", "campaign.json", *cfg, "--out", RASTERS])] if wl.synth else []
    return cmds + [(s, [s, *cfg]) for s in layers.STAGES[1:]]


def expected_functions(wl: inputs.Workload) -> list[str]:
    """Traced functions the workload's stages must call at least once."""
    skip = set()
    if not wl.synth:
        skip |= {"synth.generate_scene", "sar.save_c2"}
    if wl.multilook == (1, 1):
        skip.add("sar.multilook")
    if not wl.boxcar or wl.boxcar <= 1:
        skip.add("sar.boxcar_filter")
    return [f for f in tracer.TRACED if f not in skip]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Runner:
    """Runs stages of one workload in its work directory."""

    def __init__(self, ws: Path, season: inputs.Season) -> None:
        self.ws = ws
        self.season = season
        self.env = _child_env()
        self.log = ws / "stages.log"

    def stage(self, cli_args: list[str], spans: Path | None = None) -> tuple[int, float, float]:
        """(exit code, wall seconds, peak RSS in MB) of one stage process."""
        cmd = [sys.executable, str(HERE / "stage.py")]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--", *cli_args]
        with open(self.log, "ab") as log:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.ws, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=log)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def setup_sample(self) -> float:
        """Mean seconds to generate this run's inputs again, in a side directory.

        Generations repeat until SETUP_BATCH_S has passed, so a set-up of a few
        milliseconds is not one timer reading. Taken after every pipeline, so
        the set-up samples span the whole run like the pipeline samples do.
        """
        side = self.ws / "setup-sample"
        total, count = 0.0, 0
        while count == 0 or total < SETUP_BATCH_S:
            total += set_up(side, self.season.workload, self.season.seed)[1]
            count += 1
        shutil.rmtree(side)
        return total / count

    def pipeline(self, traced: bool) -> dict:
        """One run of every timed stage; outputs are left in OUT."""
        shutil.rmtree(self.ws / OUT, ignore_errors=True)
        if self.season.workload.synth:
            for p in (self.ws / RASTERS).glob("c2_*"):
                p.unlink()
        self.log.write_bytes(b"")
        stages, rcs = {}, {}
        t0 = perf_counter()
        for name, args in stage_commands(self.season.workload):
            spans = self.ws / f"spans-{name}.json" if traced else None
            rcs[name], wall, rss = self.stage(args, spans)
            stages[name] = (wall, rss)
        wall = perf_counter() - t0
        docs = []
        for path in sorted(self.ws.glob("spans-*.json")):
            docs.append(json.loads(path.read_text()))
            path.unlink()
        return {"wall": wall, "stages": stages, "rcs": rcs, "docs": docs}


def set_up(ws: Path, wl: inputs.Workload, seed: int) -> tuple[inputs.Season, float]:
    """Generate the inputs into an empty ``ws``; (season, seconds taken)."""
    shutil.rmtree(ws, ignore_errors=True)
    ws.mkdir(parents=True)
    t0 = perf_counter()
    season = inputs.plan(wl, seed)
    inputs.write_inputs(season, ws, RASTERS, OUT)
    return season, perf_counter() - t0


def coverage_problems(wl: inputs.Workload, docs: list[dict], profiles: list[dict]) -> list[str]:
    problems = set()
    for doc in docs:
        problems.update(f"tracer: {name} not found" for name in doc["missing"])
        problems.update(f"tracer: unpatched binding {b}" for b in doc["unpatched"])
    for fn in expected_functions(wl):
        if not any(p["calls"][fn] for p in profiles):
            problems.add(f"tracer: no spans for {fn} on {wl.name}")
    return sorted(problems)


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Run pipelines until the time is used, alternating traced and untraced
    runs when tracing; check every run's outputs."""
    untraced, profiles, docs, setup = [], [], [], []
    attempted = failed = 0
    notes: list[str] = []
    start = perf_counter()
    longest = 0.0
    k = 0
    while True:
        t0 = perf_counter()
        traced = trace and k % 2 == 1
        res = runner.pipeline(traced)
        a, f, n = checks.check_outputs(runner.season, runner.ws / OUT)
        bad = [f"stage {name} exited {rc}" for name, rc in res["rcs"].items() if rc]
        attempted += a + len(res["rcs"])
        failed += f + len(bad)
        notes += n + bad
        if bad:
            notes.append(runner.log.read_text(errors="replace")[-2000:])
        if traced:
            profiles.append(layers.pipeline_profile(res["docs"], res["wall"]))
            docs += res["docs"]
        else:
            untraced.append(res)
        setup.append(runner.setup_sample())
        k += 1
        longest = max(longest, perf_counter() - t0)
        enough = len(untraced) >= (1 if trace else MIN_RUNS) and (profiles or not trace)
        if enough and perf_counter() - start + longest > seconds:
            break
    return {"untraced": untraced, "profiles": profiles, "docs": docs, "setup": setup,
            "attempted": attempted, "failed": failed, "notes": notes}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(wl: inputs.Workload, seed: int) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": _cpu_model(), "commit": _git_commit(),
            "workload": wl.name, "seed": seed, "sizes": wl.sizes()}


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4f}..{q3:.4f}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "vinesar" / "cli.py").is_file():
        print(f"perfbench: no vinesar sources under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    ws = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        season, first_setup = set_up(ws, wl, args.seed)
        os.sync()  # write the inputs back now, not in the middle of a timed run
        runner = Runner(ws, season)
        runner.stage(["--help"])  # compile and cache the imports, untimed
        result = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(ws, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    correct = result["failed"] == 0
    end_to_end = {
        "wall_s": ([r["wall"] for r in result["untraced"]], "s"),
        "peak_rss_mb": ([max(mb for _, mb in r["stages"].values())
                         for r in result["untraced"]], "MB"),
        "setup_s": ([first_setup] + result["setup"], "s"),
    }
    print(f"# perfbench {wl.name} seed={args.seed} trace={args.trace}")
    for name, (values, unit) in end_to_end.items():
        print(f"{name:<12} {statistics.median(values):.4f} {unit:<2}  ({_spread(values)})")
    print(f"failed_frac  {result['failed'] / result['attempted']:.6g}     "
          f"({result['failed']} of {result['attempted']} operations)")
    for note in result["notes"][:10]:
        print("# failure:", note, file=sys.stderr)

    if args.trace:
        metrics = layers.per_layer_metrics(result["profiles"], result["untraced"],
                                           len(season.parcels))
        problems = coverage_problems(wl, result["docs"], result["profiles"])
        for p in problems:
            print("# failure:", p, file=sys.stderr)
        correct = correct and not problems
        traced_wall = statistics.median(p["wall"] for p in result["profiles"])
        print(f"traced wall_s {traced_wall:.4f} s, tracing overhead "
              f"{metrics['trace.overhead_s']:.4f} s")
        for layer in layers.LAYERS:
            self_s = metrics[f"layer.{layer}.self_s"]
            print(f"  layer {layer:<10} {self_s:.4f} s  {self_s / traced_wall:6.1%}")
        listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
    else:
        out = {name: {"value": statistics.median(values), "unit": unit}
               for name, (values, unit) in end_to_end.items()}
    print("# env " + json.dumps(environment(wl, args.seed)))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
