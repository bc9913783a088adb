"""The four workloads: their jobs, their seeded inputs and their oracles.

A job is either a CLI call (`cli.main(argv)`, its output written to a
file under the pass's work directory) or a documented library call. Each
job adds its time to one end-to-end metric. The oracles read the job
outputs after the pass and return one message per failed check; they
never run inside a timed region.

`dense_exact`, `char_bound` and `slow_projected` are deterministic: the
seed does not change their inputs. `beyond_dense` draws its simulate
seeds, its orbit character, its orbit-report sampling seeds and the
characters its oracle checks from the workload seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from functools import lru_cache

import numpy as np

FAST2 = "[[2,1],[1,1]]"
FAST3 = "[[0,0,1],[1,0,-1],[0,1,3]]"
SLOW = ("[[1,1],[0,2]]", "[[0,-1],[1,0]]", "[[0,-1],[1,-1]]", "[[1,1,0],[0,2,1],[0,1,1]]")
SLOW_PS = (101, 151, 211, 307)
MINSTD = 2**31 - 1
EPS = "0.25"

# Reference answers, measured on the seed commit.
DENSE_MIX_D2 = 16  # mixtime exact, FAST2, p=997
CHAR_SWEEP = {101: 11, 211: 13, 401: 15, 997: 17}  # sweep ub, FAST2
CHAR_MIX_D3 = 15  # mixtime ub, FAST3, p=97
SLOW_SWEEP = {
    "[[1,1],[0,2]]": (726, 1623, 3168, 6706),
    "[[0,-1],[1,0]]": (2180, 4868, 9504, 20120),
    "[[0,-1],[1,-1]]": (1308, 2922, 5703, 12072),
    "[[1,1,0],[0,2,1],[0,1,1]]": (968, 2164, 4224, 8942),
}
SLOW_MIX = 11442  # mixtime projected, [[1,1],[0,2]], p=401
PROJECT_TV = 0.33342534848799443  # project --blocks 8000, same walk
PROJECT_TV_TOL = 1e-9

# beyond_dense sizes. At n=22 every character in {-1,0,1}^2 \ {0} keeps
# |P_hat_n| >= 0.63 at p = 2^31 - 1, ten times the Hoeffding radius at
# DUMP_SAMPLES, while the largest coordinates already pass p / 2.
DUMP_N, DUMP_SAMPLES = 22, 200_000
TV_P, TV_N, TV_SAMPLES = 101, 12, 1_000_000
ORBIT_PS, ORBIT_SAMPLE = (10_007, MINSTD), 200_000
ORBIT_C1 = 0.125  # the documented default threshold of `orbit`
DELTA = 1e-6  # failure probability of each statistical check
REPLAY_ROWS = 256  # dumped rows recomputed with Python integers
RNG_CHUNK = 4096  # trajectories per Philox substream (documented layout)

WORKLOADS = ("dense_exact", "char_bound", "slow_projected", "beyond_dense")
SEEDED = {"beyond_dense"}


def _cli(job_id, metric, argv, out, fit=None):
    job = {"id": job_id, "metric": metric, "kind": "cli", "out": out,
           "argv": list(argv) + ["-o", out]}
    if fit:
        job["fit"] = fit
        job["argv"] += ["--fit-json", fit]
    return job


def beyond_inputs(seed: int) -> dict:
    """The seeded inputs of beyond_dense."""
    rng = np.random.default_rng([seed, 0xA11E])
    small = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if (a, b) != (0, 0)]
    picks = rng.choice(len(small), size=3, replace=False)
    checked = [list(small[i]) for i in sorted(picks)]
    checked += [[int(x) for x in rng.integers(1, MINSTD, size=2)] for _ in range(2)]
    return {
        "dump_seed": int(rng.integers(0, 2**31)),
        "tv_seed": int(rng.integers(0, 2**31)),
        "orbit_c": [int(x) for x in rng.integers(1, MINSTD, size=2)],
        "report_seeds": [int(x) for x in rng.integers(0, 2**31, size=len(ORBIT_PS))],
        "checked": checked,
    }


def jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one pass; output names are relative to its work dir."""
    if workload == "dense_exact":
        return [
            _cli("mixtime_exact_d2", "mixtime_s",
                 ["mixtime", "--matrix", FAST2, "--p", "997", "--epsilon", EPS,
                  "--method", "exact"], "mixtime_d2.json"),
            _cli("bounds_exact_d3", "bounds_s",
                 ["bounds", "--matrix", FAST3, "--p", "97", "--n-min", "0", "--n-max", "15",
                  "--exact"], "bounds_d3.csv"),
        ]
    if workload == "char_bound":
        sweep = ["sweep", "--matrix", FAST2]
        for p in CHAR_SWEEP:
            sweep += ["--p", str(p)]
        return [
            _cli("sweep_ub", "sweep_s", sweep + ["--epsilon", EPS, "--method", "ub"],
                 "sweep_ub.csv"),
            _cli("mixtime_ub_d3", "mixtime_s",
                 ["mixtime", "--matrix", FAST3, "--p", "97", "--epsilon", EPS, "--method", "ub"],
                 "mixtime_ub_d3.json"),
            _cli("bounds_ub_d2", "bounds_s",
                 ["bounds", "--matrix", FAST2, "--p", "997", "--n-min", "0", "--n-max", "24",
                  "--no-exact"], "bounds_d2.csv"),
        ]
    if workload == "slow_projected":
        sweep = ["sweep"]
        for m in SLOW:
            sweep += ["--matrix", m]
        for p in SLOW_PS:
            sweep += ["--p", str(p)]
        return [
            _cli("sweep_auto", "sweep_s", sweep + ["--epsilon", EPS, "--method", "auto"],
                 "sweep_auto.csv", fit="sweep_auto_fits.json"),
            _cli("mixtime_projected", "mixtime_s",
                 ["mixtime", "--matrix", SLOW[0], "--p", "401", "--epsilon", EPS,
                  "--method", "projected"], "mixtime_projected.json"),
            _cli("project_8000", "project_s",
                 ["project", "--matrix", SLOW[0], "--p", "401", "--blocks", "8000"],
                 "project.json"),
        ]
    if workload == "beyond_dense":
        inp = beyond_inputs(seed)
        out = [
            _cli("simulate_dump", "simulate_s",
                 ["simulate", "--matrix", FAST2, "--p", str(MINSTD), "--n", str(DUMP_N),
                  "--samples", str(DUMP_SAMPLES), "--seed", str(inp["dump_seed"]),
                  "--dump-states"], "states.csv"),
            _cli("simulate_tv", "simulate_s",
                 ["simulate", "--matrix", FAST2, "--p", str(TV_P), "--n", str(TV_N),
                  "--samples", str(TV_SAMPLES), "--seed", str(inp["tv_seed"])],
                 "simulate_tv.json"),
            _cli("orbit", "orbit_s",
                 ["orbit", "--matrix", FAST2, "--p", str(MINSTD), "--c", json.dumps(inp["orbit_c"])],
                 "orbit.json"),
        ]
        for p, s in zip(ORBIT_PS, inp["report_seeds"]):
            out.append({
                "id": f"orbit_report_{p}", "metric": "orbit_s", "kind": "orbit_constant_report",
                "matrix": json.loads(FAST2), "p": p, "sample": ORBIT_SAMPLE, "seed": s,
                "out": f"orbit_report_{p}.json",
            })
        return out
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- oracles


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _csv_rows(path):
    with open(path) as fh:
        return [row for row in csv.reader(ln for ln in fh if not ln.startswith("#"))]


def check_n_mix(path, expected):
    got = _read_json(path)["n_mix"]
    return [] if got == expected else [f"n_mix {got} != reference {expected}"]


def check_sandwich(path, n_max, exact):
    rows = _csv_rows(path)
    errs = []
    header = rows[0]
    want = ["n", "ub", "lb"] + (["tv_exact"] if exact else [])
    if header != want:
        return [f"bounds header {header} != {want}"]
    body = [[float(x) for x in r] for r in rows[1:]]
    if [int(r[0]) for r in body] != list(range(n_max + 1)):
        errs.append("bounds rows do not cover n = 0..n_max")
    for r in body:
        n, ub, lb = int(r[0]), r[1], r[2]
        if exact and not (lb - 1e-12 <= r[3] <= ub + 1e-12):
            errs.append(f"n={n}: lb <= tv_exact <= ub fails ({lb}, {r[3]}, {ub})")
        if lb > ub:
            errs.append(f"n={n}: lb {lb} > ub {ub}")
    if not exact:
        ubs = [r[1] for r in body]
        if any(b > a for a, b in zip(ubs, ubs[1:])):
            errs.append("ub increases in n")
    return errs


def check_sweep(path, expected: dict[str, dict[int, int]], method):
    got: dict[str, dict[int, int]] = {}
    for row in _csv_rows(path)[1:]:
        tag, p, n, meth = row
        if meth != method:
            return [f"sweep cell {tag} p={p} used method {meth}, want {method}"]
        got.setdefault(tag, {})[int(p)] = int(n)
    return [] if got == expected else [f"sweep cells {got} != reference {expected}"]


def check_fits(path):
    errs = []
    for fit in _read_json(path)["fits"]:
        if fit["fit_kind"] != "power_law_exponent" or abs(fit["fit_value"] - 2.0) > 0.1:
            errs.append(f"{fit['matrix']}: fit {fit['fit_kind']}={fit['fit_value']}, want 2 +- 0.1")
    return errs


def check_project(path):
    doc = _read_json(path)
    tv = doc.get("projected_tv")
    if tv is None or not 0.0 <= tv <= 1.0:
        return [f"projected_tv {tv} outside [0, 1]"]
    if abs(tv - PROJECT_TV) > PROJECT_TV_TOL:
        return [f"projected_tv {tv} != reference {PROJECT_TV}"]
    return []


def hoeffding_radius(samples: int) -> float:
    """Per-part radius for a character mean, both parts at once w.p. 1-DELTA."""
    return math.sqrt(2 * math.log(4 / DELTA) / samples)


def read_states(path) -> np.ndarray:
    with open(path) as fh:
        rows = [ln for ln in fh if not ln.startswith("#")]
    if not rows or not rows[0].startswith("x0"):
        raise ValueError("states file lacks its x0,... header")
    return np.loadtxt(rows[1:], delimiter=",", dtype=np.int64, ndmin=2)


def replay_rows(T, p, n, seed, samples, rows):
    """The first `rows` final states recomputed with Python integers from
    the documented step stream: Philox keyed (seed, chunk), one (rows, n)
    block of increments in {0..d} per RNG_CHUNK trajectories."""
    d = len(T)
    key = np.array([seed % 2**64, 0], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    steps = gen.integers(0, d + 1, size=(min(RNG_CHUNK, samples), n), dtype=np.uint8)
    out = []
    for r in range(min(rows, steps.shape[0])):
        x = [0] * d
        for b in steps[r]:
            x = [sum(T[i][j] * x[j] for j in range(d)) % p for i in range(d)]
            if b:
                x[b - 1] = (x[b - 1] + 1) % p
        out.append(x)
    return np.array(out, dtype=np.int64)


@lru_cache(maxsize=8)
def _fourier_ref(c: tuple, n: int, p: int) -> complex:
    from affinewalk.exactdist import WalkConfig
    from affinewalk.fourier import fourier_n
    from affinewalk.modmath import IntMatrix, ModVector

    return fourier_n(ModVector(p, list(c)), n, WalkConfig(IntMatrix(json.loads(FAST2)), p))


def check_states(path, inputs):
    try:
        X = read_states(path)
    except ValueError as exc:
        return [f"states file unreadable: {exc}"]
    if X.shape != (DUMP_SAMPLES, 2):
        return [f"states file has shape {X.shape}, want ({DUMP_SAMPLES}, 2)"]
    if X.min() < 0 or X.max() >= MINSTD:
        return ["states outside [0, p)"]
    errs = []
    ref = replay_rows(json.loads(FAST2), MINSTD, DUMP_N, inputs["dump_seed"], DUMP_SAMPLES,
                      REPLAY_ROWS)
    if not np.array_equal(X[: ref.shape[0]], ref):
        errs.append("dumped states differ from the Python-integer replay")
    radius = hoeffding_radius(DUMP_SAMPLES)
    powerful = False
    for c in inputs["checked"]:
        exact = _fourier_ref(tuple(c), DUMP_N, MINSTD)
        # entries and c below 2^31: each product < 2^62, their sum < 2^63
        phase = (X @ np.array(c, dtype=np.int64)) % MINSTD
        mean = np.exp(2j * np.pi * phase / MINSTD).mean()
        if abs(mean.real - exact.real) > radius or abs(mean.imag - exact.imag) > radius:
            errs.append(f"character {c}: mean {mean:.4f} vs P_hat {exact:.4f} (radius {radius:.4f})")
        powerful |= abs(exact) >= 10 * radius
    if not powerful:
        errs.append("no checked character has |P_hat| >= 10 x radius")
    return errs


@lru_cache(maxsize=1)
def _tv_exact() -> float:
    from affinewalk.exactdist import WalkConfig, evolve, tv_from_uniform
    from affinewalk.modmath import IntMatrix

    return tv_from_uniform(evolve(WalkConfig(IntMatrix(json.loads(FAST2)), TV_P), TV_N))


def check_empirical_tv(path):
    tv = _read_json(path)["empirical_tv"]
    exact = _tv_exact()
    slack = math.sqrt(math.log(2 / DELTA) / (2 * TV_SAMPLES))
    lo = exact - slack
    hi = exact + 0.5 * math.sqrt(TV_P**2 / TV_SAMPLES) + slack
    return [] if lo <= tv <= hi else [f"empirical TV {tv} outside [{lo}, {hi}]"]


def _centered_max(v, p):
    return max(min(x, p - x) for x in v)


def check_orbit(path, c):
    doc = _read_json(path)
    T = json.loads(FAST2)
    p, c1 = MINSTD, ORBIT_C1
    vec, first = [x % p for x in c], None
    orbit = []
    for ell in range(len(doc["orbit"])):
        orbit.append(vec)
        if first is None and _centered_max(vec, p) >= c1 * p:
            first = ell
        vec = [sum(T[j][i] * vec[j] for j in range(2)) % p for i in range(2)]  # T^t v
    errs = []
    if doc["cycle_length"] is None and len(orbit) != math.ceil(10 * math.log2(p)) + 1:
        errs.append(f"orbit has {len(orbit)} terms, want the default ell_max + 1")
    if doc["orbit"] != orbit:
        errs.append("orbit differs from the Python-integer recomputation")
    if doc["first_large_ell"] != first:
        errs.append(f"first_large_ell {doc['first_large_ell']} != recomputed {first}")
    if first is None or first > 4 * math.log2(p):
        errs.append(f"first_large_ell {first} exceeds 4 log2 p")
    return errs


def check_orbit_report(path, p):
    doc = _read_json(path)
    errs = []
    if doc["not_reached"] != 0:
        errs.append(f"p={p}: {doc['not_reached']} characters never reached the threshold")
    worst = doc["max_first_large_ell"]
    if worst is None or worst > 4 * math.log2(p):
        errs.append(f"p={p}: max_first_large_ell {worst} exceeds 4 log2 p")
    return errs


def check(job: dict, seed: int, workdir: str) -> list[str]:
    """Oracle messages for one job's outputs (empty when correct)."""
    out = os.path.join(workdir, job["out"])
    jid = job["id"]
    try:
        if jid == "mixtime_exact_d2":
            return check_n_mix(out, DENSE_MIX_D2)
        if jid == "bounds_exact_d3":
            return check_sandwich(out, 15, exact=True)
        if jid == "sweep_ub":
            return check_sweep(out, {FAST2: CHAR_SWEEP}, "ub")
        if jid == "mixtime_ub_d3":
            return check_n_mix(out, CHAR_MIX_D3)
        if jid == "bounds_ub_d2":
            return check_sandwich(out, 24, exact=False)
        if jid == "sweep_auto":
            ref = {m: dict(zip(SLOW_PS, ns)) for m, ns in SLOW_SWEEP.items()}
            return check_sweep(out, ref, "projected") + check_fits(
                os.path.join(workdir, job["fit"]))
        if jid == "mixtime_projected":
            return check_n_mix(out, SLOW_MIX)
        if jid == "project_8000":
            return check_project(out)
        inputs = beyond_inputs(seed)
        if jid == "simulate_dump":
            return check_states(out, inputs)
        if jid == "simulate_tv":
            return check_empirical_tv(out)
        if jid == "orbit":
            return check_orbit(out, inputs["orbit_c"])
        if jid.startswith("orbit_report_"):
            return check_orbit_report(out, job["p"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{jid}: output unreadable ({type(exc).__name__}: {exc})"]
    raise ValueError(f"no oracle for job {jid!r}")
