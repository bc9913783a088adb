"""One pass of a workload in a fresh interpreter.

Usage: python3 passrun.py JOBS_JSON RESULT_JSON [--trace]
       python3 passrun.py --import-only

Run with the pass's work directory as the current directory and the
package's `src` on PYTHONPATH. The import of `affinewalk.cli` is timed
first and apart from the jobs, so the lru_caches inside the package
start cold, as they do for a CLI user. Job outputs land in the current
directory; timings, exit codes, peak RSS and (with --trace) the spans
go to RESULT_JSON.
"""

import sys
import time

_t0 = time.perf_counter()
import affinewalk.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_job(job) -> int:
    if job["kind"] == "cli":
        return affinewalk.cli.main(job["argv"])
    if job["kind"] == "orbit_constant_report":
        from affinewalk import fourier
        from affinewalk.exactdist import WalkConfig
        from affinewalk.modmath import IntMatrix

        cfg = WalkConfig(IntMatrix(job["matrix"]), job["p"])
        report = fourier.orbit_constant_report(cfg, sample=job["sample"], seed=job["seed"])
        with open(job["out"], "w") as fh:
            json.dump(report, fh)
        return 0
    raise ValueError(f"unknown job kind {job['kind']!r}")


def main(argv) -> int:
    if argv == ["--import-only"]:
        print(json.dumps({"import_s": IMPORT_S}))
        return 0
    jobs_path, result_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    tracer = None
    if traced:
        from spans import Tracer  # the script's directory leads sys.path

        tracer = Tracer()
        tracer.install()
    results = []
    start = time.perf_counter()
    try:
        for job in jobs:
            if tracer is not None:
                tracer.job = job["id"]
            t = time.perf_counter()
            try:
                rc, error = run_job(job), None
            except Exception:  # a crashing job is a failed job; the pass goes on
                rc, error = None, traceback.format_exc(limit=3)
            results.append({"id": job["id"], "rc": rc, "error": error,
                            "seconds": time.perf_counter() - t})
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    doc = {
        "import_s": IMPORT_S,
        "wall_s": wall,
        "jobs": results,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        doc["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
    with open(result_path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
