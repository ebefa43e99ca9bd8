"""Pipeline benchmark: cold `cascademine` runs on seeded synthetic Yelp data.

    python3 pipebench/run.py --workload full_paper --seed 1 --seconds 36 --trace 0
    python3 pipebench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from the repository root. The inputs are generated from ``--seed``; each
measured run is a fresh child process (``child.py``) that imports the
program from ``./src`` and drives its CLI with one worker. Runs repeat until
``--seconds`` of measuring is used (at least three), and every metric is the
median over the runs that passed their checks. ``setup_s`` comes from
set-up probes: fresh children that run the workload's set-up stages and stop.
The first probe's caches are the snapshot that each untraced run of a
workload with set-up stages starts from, so those runs pay only for their
timed section. ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics of the traced ones plus the tracing overhead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A fuller report,
including output digests and the input profile, is written under
``.pipebench/reports/``. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402


@dataclass(frozen=True)
class Workload:
    spec: str  # key into gen.SPECS
    setup: tuple[str, ...]  # stages run before the timed section
    timed: tuple[str, ...]  # ("all",) runs `cascademine all`
    why: str

    def stages_run(self) -> tuple[str, ...]:
        return expand(self.setup + self.timed)


def expand(stages) -> tuple[str, ...]:
    return tuple(s for name in stages for s in (checks.ALL if name == "all" else (name,)))


WORKLOADS = {
    "full_paper": Workload(
        "full_paper", (), ("all",),
        "cold `all` at the paper's defaults on subcritical data; the GBDT split search "
        "is most of the time, so learner changes show here"),
    "heavy_tail": Workload(
        "heavy_tail", (), ("all",),
        "cold `all` on near-critical, heavy-tailed data; parsing, cascade building and "
        "the JSONL store carry the time, so storage and cascade changes show here"),
    "restage": Workload(
        "full_paper", ("ingest", "build-cascades"), checks.ANALYSIS,
        "reruns the analysis stages over built caches: read-only, no JSON input and "
        "no learner, so cheaper reads show here and dearer writes in setup_s"),
}

# (name, unit, better); error_rate is printed but not in BENCHMARK.json (it is 0).
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("events_per_s", "1/s", "higher"),
    ("auc_gbdt", "auc", "higher"),
    ("auc_logreg", "auc", "higher"),
)
OVERHEAD = ("trace.overhead_s", "s", "lower")
MIN_RUNS = 3
MIN_PROBES = 3  # set-up probes per untraced invocation, at least
PROBE_SHARE = 0.15  # and more while they have taken less of the measuring time
PIPELINE_FLAGS: tuple[str, ...] = ()  # none: the paper's defaults (RunConfig)
HARD_LIMIT_S = 170.0  # the whole command ends within this, whatever --seconds says
NOTE = "inputs are read warm from the page cache, so disk reads are not measured"


@dataclass
class Run:
    traced: bool
    ok: bool
    why: str = ""
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    record: dict | None = None
    digests: dict | None = None
    cache: Path | None = None


def spawn(argv: list[str], env: dict, log: Path, timeout: float):
    """Start argv, wait for it, return (exit code, rusage, launch time).

    Resource use comes from this child's own rusage (wait4), not from the
    cumulative RUSAGE_CHILDREN of the parent.
    """
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    launched = tracing.now()
    try:
        pid = os.posix_spawn(argv[0], argv, env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1),
                                           (os.POSIX_SPAWN_DUP2, fd, 2)])
    finally:
        os.close(fd)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        if not poller.poll(max(timeout, 0.0) * 1000):
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    return os.waitstatus_to_exitcode(status), usage, launched


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = root / ".pipebench" / f"{workload}-seed{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.runs: list[Run] = []
        self.problems: list[str] = []
        self.generated = None
        self.flags: list[str] = []
        self.profile: dict = {}
        self.probes: list[Run] = []
        self.snapshot: Path | None = None  # caches left by the first set-up probe
        self.snapshot_digests: dict | None = None
        self.post: Run | None = None
        self.aucs: tuple[float, float] | None = None

    # -- one child ---------------------------------------------------------

    def child(self, tag: str, setup, timed, traced: bool, deadline: float,
              cache: Path | None = None) -> Run:
        cache = cache or self.work / tag
        cache.mkdir(parents=True, exist_ok=True)
        result = self.work / f"{tag}.json"
        argv = [sys.executable, str(HERE / "child.py"), str(result),
                ",".join(setup) or "-", ",".join(timed) or "-", "1" if traced else "0",
                "--", *self.flags, "--cache-dir", str(cache)]
        log = self.work / f"{tag}.log"
        code, usage, launched = spawn(argv, self.env, log, deadline - tracing.now())
        run = Run(traced=traced, ok=False, cache=cache)
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-5:]
            run.why = f"exit code {code}: " + " | ".join(tail)
            return run
        record = json.loads(result.read_text())
        if Path(record["module"]).resolve().parent != (self.root / "src" / "cascademine").resolve():
            run.why = f"imported cascademine from {record['module']}, not ./src"
            return run
        run.record = record
        run.wall_s = record["t1"] - record["t0"]
        run.setup_s = record["t0"] - launched
        run.cpu_s = usage.ru_utime + usage.ru_stime
        run.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        missing = checks.missing_outputs(cache, expand(setup + timed))
        if missing:
            run.why = f"missing outputs: {missing}"
            return run
        run.ok = True
        return run

    # -- checks --------------------------------------------------------------

    def check(self, run: Run) -> None:
        """Digest equality with the first passing run; content checks on the first."""
        run.digests = checks.file_digests(run.cache)
        first = next((r for r in self.runs if r.ok and r.digests is not None), None)
        if first is not None:
            if run.digests != first.digests:
                changed = sorted(k for k in set(run.digests) | set(first.digests)
                                 if run.digests.get(k) != first.digests.get(k))
                run.ok, run.why = False, f"outputs differ from the first run: {changed[:5]}"
            return
        try:
            recall = checks.truth_recall(run.cache, self.generated.truth)
            if recall != 1.0:
                raise checks.CheckFailed(f"truth-edge recall {recall:.6f} != 1")
            events = checks.yearly_events(run.cache)
            if events != self.generated.events:
                raise checks.CheckFailed(
                    f"ingest kept {events} events, generator wrote {self.generated.events}")
            self.profile = checks.profile(run.cache, self.generated)
            self.problems += checks.regime_problems(self.wl.spec, self.profile)
        except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
            run.ok, run.why = False, f"check failed: {exc}"

    def probe(self, deadline: float) -> None:
        """One setup_s sample: a fresh child that runs the set-up stages and stops.

        The first passing probe's caches become the snapshot; every later
        probe must leave the same files.
        """
        probe = self.child(f"probe{len(self.probes)}", self.wl.setup, (), False, deadline)
        self.probes.append(probe)
        if probe.ok and self.wl.setup:
            digests = checks.file_digests(probe.cache)
            if self.snapshot is None:
                self.snapshot, self.snapshot_digests = probe.cache, digests
                return
            if digests != self.snapshot_digests:
                probe.ok, probe.why = False, "set-up outputs differ from the first probe"
        shutil.rmtree(probe.cache, ignore_errors=True)

    def measured_run(self, n: int, traced: bool, deadline: float) -> Run:
        """One measured run. Traced runs do their own set-up, so the trace covers it;
        untraced runs start from a copy of the snapshot."""
        if traced or not self.wl.setup:
            return self.child(f"run{n}", self.wl.setup, self.wl.timed, traced, deadline)
        cache = self.work / f"run{n}"
        if self.snapshot is not None:
            shutil.copytree(self.snapshot, cache)
        return self.child(f"run{n}", (), self.wl.timed, False, deadline, cache=cache)

    # -- the measured loop -----------------------------------------------------

    def measure(self) -> dict:
        start = tracing.now()
        hard_deadline = start + HARD_LIMIT_S
        self.work.mkdir(parents=True, exist_ok=True)
        data = self.work / "data"
        self.generated = gen.generate(gen.SPECS[self.wl.spec], self.seed, data)
        p = self.generated.paths
        self.flags = ["--business", str(p["business"]), "--user", str(p["user"]),
                      "--review", str(p["review"]), "--tip", str(p["tip"]),
                      *PIPELINE_FLAGS]
        # Byte-compile and import once so no measured run pays for it.
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(self.root / "src")],
                       env=self.env, check=True, stdout=subprocess.DEVNULL)
        subprocess.run([sys.executable, "-c", "import cascademine.cli"],
                       env=self.env, check=True)

        loop_start = tracing.now()
        order = [False, True, True] if self.trace else [False] * MIN_RUNS
        probe_s = 0.0
        n = 0
        while True:
            t = tracing.now()
            # A probe first (it leaves the snapshot); untraced, at least
            # MIN_PROBES, and more, between runs, up to PROBE_SHARE of the time.
            if not self.probes or not self.trace and (
                    len(self.probes) < MIN_PROBES
                    or probe_s < PROBE_SHARE * (t - loop_start)):
                self.probe(hard_deadline)
                probe_s += tracing.now() - t
                continue
            traced = order[n] if n < len(order) else (self.trace and n % 2 == 1)
            run = self.measured_run(n, traced, hard_deadline)
            if run.ok:
                self.check(run)
            self.runs.append(run)
            spent = tracing.now() - t
            if run.ok and self.aucs is None:
                self.aucs = self.auc(run, hard_deadline)
            shutil.rmtree(run.cache, ignore_errors=True)
            n += 1
            if n >= len(order) and tracing.now() + spent > loop_start + self.seconds:
                break
            if tracing.now() + spent > hard_deadline - 5:
                break

        return self.summarize()

    def auc(self, run: Run, deadline: float):
        """AUCs from eval.json of the first passing run, read before its cache goes.

        restage runs no learner in its timed section, so `train` and
        `evaluate` run once, untimed, over that run's caches.
        """
        if "evaluate" not in self.wl.stages_run():
            self.post = self.child("post", (), ("train", "evaluate"), False, deadline,
                                   cache=run.cache)
            if not self.post.ok:
                return None
        try:
            return checks.auc_means(run.cache)
        except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
            self.problems.append(f"eval.json: {exc}")
            return None

    def summarize(self) -> dict:
        med = statistics.median
        passed = [r for r in self.runs if r.ok]
        plain = [r for r in passed if not r.traced]
        traced = [r for r in passed if r.traced]
        metrics: dict[str, float] = {}
        if plain:
            metrics = {
                "wall_s": med(r.wall_s for r in plain),
                "cpu_s": med(r.cpu_s for r in plain),
                "peak_rss_mb": med(r.peak_rss_mb for r in plain),
                "setup_s": med(r.setup_s for r in self.probes if r.ok),
                "events_per_s": med(self.generated.events / r.wall_s for r in plain),
            }
            if self.aucs is not None:
                metrics["auc_gbdt"], metrics["auc_logreg"] = self.aucs
        layers: dict[str, float] = {}
        split = {}
        if traced:
            per_run = [tracing.layer_metrics(r.record["spans"], r.record["counters"],
                                             r.record["t0"], r.record["t1"]) for r in traced]
            layers = {name: med(m[name] for m in per_run)
                      for name, _, _ in tracing.LAYER_METRICS}
            if plain:
                layers[OVERHEAD[0]] = (med(r.wall_s for r in traced)
                                       - med(r.wall_s for r in plain))
            r0 = traced[0].record
            split = tracing.layer_totals(r0["spans"], r0["t0"], r0["t1"])
            self.problems += self.structure_problems(layers)
        attempted = self.runs + self.probes + ([self.post] if self.post is not None else [])
        return {
            "workload": self.name, "seed": self.seed, "why": self.wl.why, "note": NOTE,
            "attempted": len(attempted),
            "failed": [r.why for r in attempted if not r.ok],
            "problems": self.problems,
            "runs": [{"traced": r.traced, "ok": r.ok, "wall_s": r.wall_s,
                      "setup_s": r.setup_s, "cpu_s": r.cpu_s,
                      "peak_rss_mb": r.peak_rss_mb} for r in self.runs],
            "probe_setup_s": [r.setup_s for r in self.probes if r.ok],
            "metrics": metrics, "layers": layers, "layer_split_s": split,
            "layer_split_notes": split_notes(self.name, split),
            "profile": self.profile,
            "export_digest": checks.export_digest(passed[0].digests) if passed else None,
            "file_digests": passed[0].digests if passed else {},
            "spans": traced[0].record["spans"] if traced else [],
        }

    def structure_problems(self, layers: dict) -> list[str]:
        """restage must make no learner and no ingest_dataset call when timed.

        The time split the other two workloads were chosen for is only
        reported (``layer_split_notes``), since a faster layer may
        legitimately change it.
        """
        if self.name != "restage":
            return []
        learner = sum(v for k, v in layers.items()
                      if k.startswith("learner.") and k.endswith(".calls"))
        problems = []
        if learner:
            problems.append(f"restage made {learner:.0f} learner calls in its timed section")
        if layers["ingest.ingest_dataset.s"] > 0:
            problems.append("restage called ingest_dataset in its timed section")
        return problems

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def split_notes(name: str, split: dict) -> list[str]:
    if not split:
        return []
    largest = max(split, key=split.get)
    notes = [f"largest layer: {largest} ({split[largest]:.2f} s)"]
    if name == "full_paper":
        notes.append(f"learner is the largest layer: {largest == 'learner'}")
    elif name == "heavy_tail":
        io = split["ingest"] + split["cascades"]
        notes.append(f"ingest + cascades ({io:.2f} s) > learner ({split['learner']:.2f} s): "
                     f"{io > split['learner']}")
    return notes


def fmt(value: float) -> str:
    return f"{value:.6g}" if abs(value) < 1e6 else f"{value:.0f}"


def print_report(rep: dict, trace: bool) -> None:
    print(f"== {rep['workload']} (seed {rep['seed']}): {rep['why']}")
    runs = rep["runs"]
    print(f"   runs: {len(runs)} ({sum(r['traced'] for r in runs)} traced), "
          f"setup_s probes: {len(rep['probe_setup_s'])}, "
          f"attempted {rep['attempted']}, failed {len(rep['failed'])}")
    rows = [(n, u, b) for n, u, b in END_TO_END]
    values = dict(rep["metrics"])
    values["error_rate"] = len(rep["failed"]) / rep["attempted"]
    rows.insert(5, ("error_rate", "ratio", "lower"))
    for name, unit, better in rows:
        if name in values:
            arrow = "lower is better" if better == "lower" else "higher is better"
            print(f"   {name:<16} {fmt(values[name]):>14} {unit:<6} ({arrow})")
    if trace:
        for name, unit, better in tracing.LAYER_METRICS + (OVERHEAD,):
            if name in rep["layers"]:
                print(f"   {name:<34} {fmt(rep['layers'][name]):>14} {unit:<6} ({better})")
        for layer, secs in rep["layer_split_s"].items():
            print(f"   layer {layer:<10} {secs:8.3f} s")
        for note in rep["layer_split_notes"]:
            print(f"   {note}")
    if rep["profile"]:
        print(f"   profile: {json.dumps(rep['profile'], sort_keys=True)}")
    print(f"   export digest: {rep['export_digest']}")
    print(f"   note: {rep['note']}")
    for why in rep["failed"]:
        print(f"   FAILED RUN: {why}", file=sys.stderr)
    for problem in rep["problems"]:
        print(f"   CHECK FAILED: {problem}", file=sys.stderr)


def result_line(reps: list[dict], trace: bool) -> dict:
    """The machine-readable last line; metric names carry a workload prefix for `all`."""
    metrics = {}
    wanted = (tracing.LAYER_METRICS + (OVERHEAD,)) if trace else END_TO_END
    correct = True
    for rep in reps:
        prefix = f"{rep['workload']}." if len(reps) > 1 else ""
        source = rep["layers"] if trace else rep["metrics"]
        for name, unit, _ in wanted:
            if name not in source:
                correct = False
                continue
            metrics[prefix + name] = {"value": source[name], "unit": unit}
        correct = correct and not rep["failed"] and not rep["problems"]
    return {"correct": correct,
            "attempted": sum(r["attempted"] for r in reps),
            "failed": sum(len(r["failed"]) for r in reps),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cascademine" / "cli.py").is_file():
        print("pipebench: run from the repository root; ./src/cascademine is missing",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports_dir = root / ".pipebench" / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    reps = []
    for name in names:
        bench = Bench(root, name, args.seed, args.seconds, bool(args.trace))
        try:
            rep = bench.measure()
        finally:
            bench.cleanup()
        suffix = "-trace" if args.trace else ""
        out = reports_dir / f"{name}-seed{args.seed}{suffix}.json"
        out.write_text(json.dumps(rep, indent=1, sort_keys=True) + "\n")
        print_report(rep, bool(args.trace))
        print(f"   report: {out.relative_to(root)}")
        reps.append(rep)
    print(json.dumps(result_line(reps, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
