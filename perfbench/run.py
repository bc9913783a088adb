"""Benchmark of affinewalk: four workloads through the CLI and library.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop in one process at a time: a pass runs the
workload's job list once, in a fresh interpreter (so the package's
lru_caches start cold, as for a CLI user), and the next pass starts when
it ends. Passes repeat until S seconds have gone by. Import time of
`affinewalk.cli` goes to setup_s, never to the job times. Every pass's
outputs are checked against the workload's oracles after the pass.

--trace 0 reports the end-to-end metrics (medians over the passes).
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead. The
last line of stdout is one JSON object: correct, attempted, failed,
metrics. Lines before it are a readable report with host details.
"""

from __future__ import annotations

import os

PINNED_ENV = {
    "AFFINEWALK_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)  # before numpy loads in this process

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]  # benchmark modules; the package for the oracles

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 4  # import-only interpreters per run, besides one per pass
PASS_TIMEOUT_S = 150


def host_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def cache(level):
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            try:
                if (index / "level").read_text().strip() == str(level):
                    return (index / "size").read_text().strip()
            except OSError:
                pass
        return None

    versions = {}
    for pkg in ("numpy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "l2": cache(2),
        "l3": cache(3),
        "python": platform.python_version(),
        **versions,
    }


class Runner:
    """Starts pass interpreters in a work directory inside the checkout."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)  # already holds PINNED_ENV
        self.env["PYTHONPATH"] = str(SRC) + os.pathsep + self.env.get("PYTHONPATH", "")

    def _run(self, args, cwd):
        return subprocess.run(
            [sys.executable, str(HERE / "passrun.py"), *args],
            cwd=cwd, env=self.env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )

    def import_time(self) -> float:
        proc = self._run(["--import-only"], self.workdir)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import affinewalk.cli:\n{proc.stderr}")
        return json.loads(proc.stdout)["import_s"]

    def run_pass(self, jobs_path: Path, traced: bool):
        """(result document or None, pass directory, stderr)."""
        pass_dir = self.workdir / "pass"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir()
        result_path = pass_dir / "_result.json"
        args = [str(jobs_path), str(result_path)] + (["--trace"] if traced else [])
        try:
            proc = self._run(args, pass_dir)
        except subprocess.TimeoutExpired:
            return None, pass_dir, "pass timed out"
        if proc.returncode != 0 or not result_path.is_file():
            return None, pass_dir, proc.stderr
        with open(result_path) as fh:
            return json.load(fh), pass_dir, proc.stderr


def median(values):
    return statistics.median(values) if values else 0.0


def describe(name, values, unit):
    if not values:
        return f"{name}: no samples"
    return (f"{name} = {median(values):.6g} {unit} (median of {len(values)}; "
            f"min {min(values):.6g}, max {max(values):.6g})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running pass is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "affinewalk" / "cli.py").is_file():
        print(f"error: no affinewalk sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, workdir: Path) -> int:
    jobs = workloads.jobs(args.workload, args.seed)
    jobs_path = workdir / "jobs.json"
    jobs_path.write_text(json.dumps(jobs))
    runner = Runner(workdir)

    try:
        runner.import_time()  # first import in a checkout also writes bytecode
        setup = [runner.import_time() for _ in range(SETUP_SAMPLES)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    plain, traced = [], []
    attempted = failed = 0
    messages: list[str] = []
    start = time.perf_counter()
    i = 0
    while True:
        is_traced = bool(args.trace) and i % 2 == 1
        pass_start = time.perf_counter()
        doc, pass_dir, stderr = runner.run_pass(jobs_path, is_traced)
        i += 1
        attempted += len(jobs)
        if doc is None:
            failed += len(jobs)
            messages.append(f"pass {i}: interpreter failed: {stderr.strip()[-400:]}")
        else:
            setup.append(doc["import_s"])
            by_id = {r["id"]: r for r in doc["jobs"]}
            for job in jobs:
                r = by_id.get(job["id"])
                if r is None or r["rc"] != 0:
                    errs = [f"exit {r['rc'] if r else None}: "
                            f"{(r or {}).get('error') or stderr.strip()[-300:]}"]
                else:
                    errs = workloads.check(job, args.seed, str(pass_dir))
                if errs:
                    failed += 1
                    messages.extend(f"pass {i} {job['id']}: {e}" for e in errs)
            (traced if is_traced else plain).append(doc)
        now = time.perf_counter()
        last, elapsed = now - pass_start, now - start
        # stop before a pass that would end past the deadline
        if elapsed + last > args.seconds and (not args.trace or i >= 2):
            break

    print(f"# host {json.dumps(host_info())}")
    print(f"# workload {args.workload} seed {args.seed} "
          f"({'seeded' if args.workload in workloads.SEEDED else 'deterministic: seed unused'}); "
          f"{len(plain)} untraced and {len(traced)} traced passes in {elapsed:.1f} s")
    for msg in messages[:20]:
        print(f"# FAILED {msg}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    walls = [d["wall_s"] for d in plain]
    rss = [d["peak_rss_kb"] * 1024 / 1e6 for d in plain]
    e2e = {"setup_s": median(setup), "wall_s": median(walls), "peak_rss_mb": median(rss)}
    print("# " + describe("setup_s", setup, "s"))
    print("# " + describe("wall_s", walls, "s"))
    # per-job-kind totals: printed only, since each workload runs only some kinds
    for metric in sorted({j["metric"] for j in jobs}):
        per_pass = [sum(r["seconds"] for r, j in zip(d["jobs"], jobs) if j["metric"] == metric)
                    for d in plain]
        print("# " + describe(metric, per_pass, "s"))
    print("# " + describe("peak_rss_mb", rss, "MB"))
    print(f"# failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")

    if args.trace:
        layer_runs = [
            spans.layer_metrics([spans.Span(**s) for s in d["spans"]], d["wall_s"])
            for d in traced
        ]
        layers = {k: median([r[k] for r in layer_runs]) for k in layer_runs[0]} if layer_runs else {}
        t_walls = [d["wall_s"] for d in traced]
        layers["trace.overhead_frac"] = (
            median(t_walls) / median(walls) - 1.0 if t_walls and walls else 0.0
        )
        for name, value in layers.items():
            print(f"# {name} = {value:.6g} {units.get(name, '')}")
        spans_path = HERE / ".work" / f"spans_{args.workload}_seed{args.seed}.json"
        spans_path.write_text(json.dumps([d["spans"] for d in traced]))
        print(f"# spans of the traced passes: {spans_path.relative_to(ROOT)}")
        wanted = [m["name"] for m in spec["per_layer"]]
        values = layers
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        values = e2e

    missing = [name for name in wanted if name not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
