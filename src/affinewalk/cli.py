"""Command-line driver.

Subcommands: classify, bounds, mixtime, orbit, project, simulate, sweep.
Options can come from flags or from a JSON config file (--config);
flags override file values. Every CSV output starts with a comment line
carrying the tool version and the full effective config; JSON outputs
carry the same information in a "meta" field. Outputs contain nothing
run-dependent (no timestamps), so identical configs give identical
bytes.

Exit codes: 0 ok, 2 bad config, 3 mathematical precondition violated
(singular matrix, inadmissible or composite p where primality is
needed), 4 resource budget exceeded (including "not mixed by n_max").

Randomized subcommands default to seed 12345 unless one is given.
--threads and the AFFINEWALK_THREADS environment variable are accepted
and ignored: the character square sum is reduced serially, in a fixed
chunk order.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import __version__, exactdist, fourier, montecarlo, spectral
from .errors import BudgetError, PreconditionError
from .exactdist import WalkConfig
from .modmath import IntMatrix, ModVector, is_admissible

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    """Validated inputs for one subcommand run."""

    matrices: list[IntMatrix]
    ps: list[int]
    epsilon: Optional[float] = None
    n: Optional[int] = None
    n_min: int = 0
    n_max: Optional[int] = None
    c: Optional[list[int]] = None
    c1: float = fourier.DEFAULT_C1
    m: Optional[int] = None
    blocks: Optional[int] = None
    samples: Optional[int] = None
    seed: int = montecarlo.DEFAULT_SEED
    method: Optional[str] = None
    tol: float = spectral.DEFAULT_TOL
    output: Optional[str] = None
    fit_json: Optional[str] = None
    dump_states: bool = False
    exact: Optional[bool] = None
    state_cap: int = exactdist.DEFAULT_STATE_CAP
    char_cap: int = fourier.DEFAULT_CHAR_CAP
    ell_max: Optional[int] = None
    n_cap: int = fourier.DEFAULT_MIX_CAP
    threads: Optional[int] = None
    raw: dict = field(default_factory=dict)

    @property
    def T(self) -> IntMatrix:
        return self.matrices[0]

    @property
    def p(self) -> int:
        if not self.ps:
            raise ConfigError("a modulus p is required")
        return self.ps[0]

    def meta(self) -> str:
        return f"affinewalk {__version__} config={json.dumps(self.raw, sort_keys=True)}"

    def meta_dict(self) -> dict:
        return {"tool": f"affinewalk {__version__}", "config": self.raw}


def _parse_matrix(value) -> IntMatrix:
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"matrix must be JSON like [[2,1],[1,1]]: {exc}") from exc
    try:
        return IntMatrix(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad matrix: {exc}") from exc


def _parse_vector(value) -> list[int]:
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"vector must be JSON like [1,0]: {exc}") from exc
    if not isinstance(value, list) or not all(isinstance(x, int) for x in value):
        raise ConfigError("vector must be a list of integers")
    return value


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge the optional JSON config file with CLI flags (flags win)."""
    file_cfg: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")

    merged = dict(file_cfg)
    for key, val in vars(args).items():
        if key in ("command", "config", "func"):
            continue
        if val is not None:
            merged[key] = val

    matrices_raw = merged.get("matrix")
    if matrices_raw is None:
        raise ConfigError("a matrix is required (--matrix or config key 'matrix')")
    try:
        is_single = isinstance(matrices_raw, str) or isinstance(
            matrices_raw[0][0], int
        )
    except (TypeError, IndexError, KeyError) as exc:
        raise ConfigError(f"bad matrix value: {matrices_raw!r}") from exc
    if is_single:
        matrices_raw = [matrices_raw]
    matrices = [_parse_matrix(m) for m in matrices_raw]
    if not matrices:
        raise ConfigError("matrix list is empty")

    ps_raw = merged.get("p", [])
    if isinstance(ps_raw, int):
        ps_raw = [ps_raw]
    elif isinstance(ps_raw, str):
        ps_raw = [int(x) for x in ps_raw.split(",") if x.strip()]
    ps = [int(x) for x in ps_raw]
    if any(p < 2 for p in ps):
        raise ConfigError("all moduli must be >= 2")

    cfg = ExperimentConfig(matrices=matrices, ps=ps)
    for name in (
        "epsilon", "n", "n_min", "n_max", "c1", "m", "blocks", "samples",
        "seed", "method", "tol", "output", "fit_json", "dump_states",
        "exact", "state_cap", "char_cap", "ell_max", "n_cap", "threads",
    ):
        if merged.get(name) is not None:
            setattr(cfg, name, merged[name])
    if merged.get("c") is not None:
        cfg.c = _parse_vector(merged["c"])
    cfg.raw = {
        k: v for k, v in merged.items() if v is not None and k not in ("output", "fit_json")
    }
    cfg.raw["matrix"] = [m.to_lists() for m in matrices]
    if ps:
        cfg.raw["p"] = ps
    return cfg


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _with_meta_json(doc_text: str, cfg: ExperimentConfig) -> str:
    doc = json.loads(doc_text)
    doc["meta"] = cfg.meta_dict()
    return json.dumps(doc, indent=2) + "\n"


def cmd_classify(cfg: ExperimentConfig) -> int:
    report = spectral.classify(cfg.T, tol=cfg.tol)
    doc = json.loads(report.to_json())
    if cfg.ps:
        doc["admissible"] = {str(p): is_admissible(cfg.T, p) for p in cfg.ps}
    doc["meta"] = cfg.meta_dict()
    _emit(json.dumps(doc, indent=2) + "\n", cfg.output)
    if report.classification == spectral.Classification.SINGULAR:
        return EXIT_PRECONDITION
    return EXIT_OK


def cmd_bounds(cfg: ExperimentConfig) -> int:
    walk = WalkConfig(cfg.T, cfg.p)
    if cfg.n_max is None:
        raise ConfigError("bounds needs --n-max")
    n_values = list(range(cfg.n_min, cfg.n_max + 1))
    include_exact = cfg.exact
    partial = False
    if include_exact is None:
        include_exact = walk.num_states <= cfg.state_cap
    elif include_exact and walk.num_states > cfg.state_cap:
        include_exact = False
        partial = True
    series = fourier.bound_series(
        walk,
        n_values,
        include_exact=include_exact,
        state_cap=cfg.state_cap,
        char_cap=cfg.char_cap,
        threads=cfg.threads,
    )
    _emit(series.to_csv(header_comment=cfg.meta()), cfg.output)
    if partial:
        print(
            f"warning: p^d = {walk.num_states} exceeds the dense-state cap; "
            "tv_exact column omitted",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    return EXIT_OK


def cmd_mixtime(cfg: ExperimentConfig) -> int:
    if cfg.epsilon is None:
        raise ConfigError("mixtime needs --epsilon")
    walk = WalkConfig(cfg.T, cfg.p)
    method = cfg.method or "exact"
    if cfg.epsilon >= 1.0:
        n = 0  # TV never exceeds 1, so any n qualifies
    elif method == "projected":
        n = montecarlo.projected_mixing_time(cfg.T, cfg.p, cfg.epsilon, m=cfg.m)
    else:
        n = fourier.mixing_time(
            walk,
            cfg.epsilon,
            method=method,
            n_cap=cfg.n_cap,
            state_cap=cfg.state_cap,
            char_cap=cfg.char_cap,
            threads=cfg.threads,
        )
    doc = json.dumps(
        {
            "n_mix": n,
            "epsilon": cfg.epsilon,
            "method": method,
            "meta": cfg.meta_dict(),
        },
        indent=2,
    )
    _emit(doc + "\n", cfg.output)
    return EXIT_OK


def cmd_orbit(cfg: ExperimentConfig) -> int:
    if cfg.c is None:
        raise ConfigError("orbit needs --c, the character index vector")
    walk = WalkConfig(cfg.T, cfg.p)
    c = ModVector(cfg.p, cfg.c)
    record = fourier.orbit_analysis(c, walk, c1=cfg.c1, ell_max=cfg.ell_max)
    _emit(_with_meta_json(record.to_json(), cfg), cfg.output)
    return EXIT_OK


def cmd_project(cfg: ExperimentConfig) -> int:
    m = cfg.m
    if m is None:
        m = spectral.cyclotomic_order(spectral.char_poly(cfg.T))
        if m is None:
            raise PreconditionError(
                "matrix has no root-of-unity eigenvalue; the projection "
                "construction does not apply"
            )
    report = montecarlo.projection_functional(cfg.T, cfg.p, m)
    doc = json.loads(report.to_json())
    if cfg.blocks is not None:
        walk = WalkConfig(cfg.T, cfg.p)
        dist = montecarlo.projected_walk_dist(report, walk, cfg.blocks)
        doc["blocks"] = cfg.blocks
        doc["projected_tv"] = exactdist.tv_vector(dist)
    doc["meta"] = cfg.meta_dict()
    _emit(json.dumps(doc, indent=2) + "\n", cfg.output)
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig) -> int:
    if cfg.n is None or cfg.samples is None:
        raise ConfigError("simulate needs --n and --samples")
    walk = WalkConfig(cfg.T, cfg.p)
    batch = montecarlo.simulate(walk, cfg.n, cfg.samples, cfg.seed)
    if cfg.dump_states:
        _emit(batch.states_csv(header_comment=cfg.meta()), cfg.output)
        return EXIT_OK
    tv = montecarlo.empirical_tv(batch)
    doc = json.dumps(
        {
            "n": cfg.n,
            "samples": cfg.samples,
            "seed": cfg.seed,
            "empirical_tv": tv,
            "meta": cfg.meta_dict(),
        },
        indent=2,
    )
    _emit(doc + "\n", cfg.output)
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig) -> int:
    if cfg.epsilon is None:
        raise ConfigError("sweep needs --epsilon")
    if not cfg.ps:
        reports = []
    else:
        reports = montecarlo.scaling_sweep(
            cfg.matrices,
            cfg.ps,
            cfg.epsilon,
            method=cfg.method or "auto",
            n_cap=cfg.n_cap,
            char_cap=cfg.char_cap,
            state_cap=cfg.state_cap,
            threads=cfg.threads,
        )
    _emit(montecarlo.sweep_csv(reports, header_comment=cfg.meta()), cfg.output)
    if cfg.fit_json:
        fits = {
            "fits": [rep.fit_summary() for rep in reports],
            "meta": cfg.meta_dict(),
        }
        with open(cfg.fit_json, "w") as fh:
            json.dump(fits, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinewalk",
        description="Mixing analysis of the walk x -> T x + b (mod p) on (Z/pZ)^d",
    )
    parser.add_argument("--version", action="version", version=f"affinewalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file; flags override its values")
        sp.add_argument(
            "--matrix",
            action="append",
            help='row-major JSON, e.g. "[[2,1],[1,1]]" (repeatable for sweep)',
        )
        sp.add_argument("--p", type=int, action="append", dest="p", help="modulus (repeatable)")
        sp.add_argument("-o", "--output", help="output file (default stdout)")
        sp.add_argument("--state-cap", type=int, dest="state_cap")
        sp.add_argument("--char-cap", type=int, dest="char_cap")
        sp.add_argument("--threads", type=int)

    sp = sub.add_parser("classify", help="spectrum report for the matrix")
    common(sp)
    sp.add_argument("--tol", type=float)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("bounds", help="upper/lower/exact TV series as CSV")
    common(sp)
    sp.add_argument("--n-min", type=int, dest="n_min")
    sp.add_argument("--n-max", type=int, dest="n_max")
    sp.add_argument(
        "--exact",
        dest="exact",
        action=argparse.BooleanOptionalAction,
        help="force (or forbid) the exact TV column",
    )
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("mixtime", help="least n with distance <= epsilon")
    common(sp)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--method", choices=["exact", "ub", "projected"])
    sp.add_argument("--n-cap", type=int, dest="n_cap")
    sp.add_argument("--m", type=int)
    sp.set_defaults(func=cmd_mixtime)

    sp = sub.add_parser("orbit", help="orbit of a character under T^t")
    common(sp)
    sp.add_argument("--c", help='character vector as JSON, e.g. "[1,0]"')
    sp.add_argument("--c1", type=float)
    sp.add_argument("--ell-max", type=int, dest="ell_max")
    sp.set_defaults(func=cmd_orbit)

    sp = sub.add_parser("project", help="slow-mixing projection functional")
    common(sp)
    sp.add_argument("--m", type=int, help="root-of-unity order (default: detected)")
    sp.add_argument("--blocks", type=int, help="also evolve the projected walk")
    sp.set_defaults(func=cmd_project)

    sp = sub.add_parser("simulate", help="Monte Carlo trajectories")
    common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument(
        "--dump-states", action="store_true", default=None, dest="dump_states"
    )
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="mixing-time scaling over moduli")
    common(sp)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--method", choices=["auto", "exact", "ub", "projected"])
    sp.add_argument("--n-cap", type=int, dest="n_cap")
    sp.add_argument("--fit-json", dest="fit_json", help="write fit summaries here")
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        return args.func(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
