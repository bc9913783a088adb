"""Command-line driver.

Subcommands: classify, bounds, mixtime, orbit, project, simulate, sweep.
Each option is declared once, in OPTIONS (its type, its default and its
argparse keywords), and each subcommand's flags once, in COMMANDS; the
parser and the config-file check both read these two tables. Options
can come from flags or from a JSON config file (--config); flags
override file values. Only sweep takes several matrices, and only
sweep and classify several moduli (classify reports admissibility at
each); any other second --matrix or --p is refused (exit 2). Every CSV
output starts with a comment line carrying the tool version and the
full effective config; JSON outputs carry the same information in a
"meta" field. Outputs contain nothing run-dependent (no timestamps), so
identical configs give identical bytes.

Exit codes: 0 ok, 2 bad config (an --epsilon outside (0, 1) and a matrix
or vector entry that is not an integer included),
3 mathematical precondition violated (singular matrix, inadmissible or
composite p where primality is needed) or eigenvalues that numpy could
not find for classify's listing, 4 resource budget exceeded (including
"not mixed by n_max", and moduli too large for exact int64 simulation). `mixtime` and
every `sweep` cell search through `montecarlo.mixing_search`, so one
rule set covers --epsilon, --n-cap and --method. --n-cap counts steps
for every method; the projected search stops after floor(n_cap / m)
m-step blocks, m the root-of-unity order, which `mixtime` and `project`
detect.

Randomized subcommands default to seed 12345 unless one is given.

The parser is built once per process (`build_parser` keeps it) and
shared by every `main` call, since parsing never changes it. Only a
process that calls `main` more than once, as a test run or a benchmark
does, gains from that; the console script calls it once and gains
nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import __version__, exactdist, fourier, montecarlo, spectral
from .errors import BudgetError, PreconditionError, RootConvergenceError
from .exactdist import WalkConfig
from .modmath import IntMatrix, ModVector, as_int, is_admissible

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4

# option -> (the type its value must have, its value when unset, further
# add_argument keywords). Its flag is --option with "_" written "-", and
# an int or float flag converts to that type. Type None marks the options
# read on their own: the config file, the walk (matrix, p) and the
# character vector c, which is JSON text.
OPTIONS = {
    "config": (None, None, {"help": "JSON config file; flags override its values"}),
    "matrix": (None, None, {
        "action": "append", "help": 'row-major JSON, e.g. "[[2,1],[1,1]]" (repeatable for sweep)',
    }),
    "p": (None, None, {
        "type": int, "action": "append", "help": "modulus (repeatable for sweep and classify)",
    }),
    "epsilon": (float, None, {}),
    "n": (int, None, {}),
    "n_min": (int, 0, {}),
    "n_max": (int, None, {}),
    "c": (None, None, {"help": 'character vector as JSON, e.g. "[1,0]"'}),
    "c1": (float, fourier.DEFAULT_C1, {}),
    "blocks": (int, None, {"help": "also evolve the projected walk"}),
    "samples": (int, None, {}),
    "seed": (int, montecarlo.DEFAULT_SEED, {}),
    "method": (str, None, {"choices": montecarlo.METHODS}),
    "output": (str, None, {"help": "output file (default stdout)"}),
    "fit_json": (str, None, {"help": "write fit summaries here"}),
    "dump_states": (bool, False, {"action": "store_true"}),
    "exact": (bool, None, {
        "action": argparse.BooleanOptionalAction, "help": "force (or forbid) the exact TV column",
    }),
    "state_cap": (int, exactdist.DEFAULT_STATE_CAP, {}),
    "char_cap": (int, fourier.DEFAULT_CHAR_CAP, {}),
    "ell_max": (int, None, {}),
    "n_cap": (int, fourier.DEFAULT_MIX_CAP, {}),
}
# the keys a config file may set: every option of some subcommand
_FILE_KEYS = set(OPTIONS) - {"config"}


class ExperimentConfig:
    """Validated inputs for one subcommand run: the walk's matrices and
    moduli, the effective config `raw` that meta records, and one
    attribute per option of OPTIONS other than config, matrix and p."""

    def __init__(self, matrices: list[IntMatrix], ps: list[int], raw: dict, **options):
        self.matrices = matrices
        self.ps = ps
        self.raw = raw
        self.__dict__.update(options)

    @property
    def T(self) -> IntMatrix:
        """The one matrix of a single-walk command; only sweep reads
        several."""
        if len(self.matrices) > 1:
            raise ValueError(f"one matrix is allowed here, got {len(self.matrices)}")
        return self.matrices[0]

    @property
    def p(self) -> int:
        """The one modulus of a single-walk command; sweep and classify
        read every modulus through ps."""
        if not self.ps:
            raise ValueError("a modulus p is required")
        if len(self.ps) > 1:
            raise ValueError(f"one modulus p is allowed here, got {len(self.ps)}")
        return self.ps[0]

    def meta(self) -> str:
        return f"affinewalk {__version__} config={json.dumps(self.raw, sort_keys=True)}"

    def meta_dict(self) -> dict:
        return {"tool": f"affinewalk {__version__}", "config": self.raw}


def _check_type(name: str, want: type, value) -> None:
    """A config value must have its option's type; an int passes for a
    float, and a bool passes only for a bool."""
    accepted = (int, float) if want is float else want
    if isinstance(value, bool) != (want is bool) or not isinstance(value, accepted):
        raise ValueError(f"config key {name!r} must be {want.__name__}, got {value!r}")


def _parse_matrix(value) -> IntMatrix:
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ValueError(f"matrix must be JSON like [[2,1],[1,1]]: {exc}") from exc
    try:
        return IntMatrix(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad matrix: {exc}") from exc


def _parse_vector(value) -> list[int]:
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ValueError(f"vector must be JSON like [1,0]: {exc}") from exc
    if not isinstance(value, list):
        raise ValueError("vector must be a list of integers")
    return [as_int(x) for x in value]


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge the optional JSON config file with CLI flags (flags win)."""
    file_cfg: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - _FILE_KEYS)
        if unknown:
            raise ValueError(f"config key {unknown[0]!r} names no option")

    merged = dict(file_cfg)
    for key, val in vars(args).items():
        if key in ("command", "config", "func"):
            continue
        if val is not None:
            merged[key] = val

    matrices_raw = merged.get("matrix")
    if matrices_raw is None:
        raise ValueError("a matrix is required (--matrix or config key 'matrix')")
    try:  # by nesting depth: a matrix is a string or a list of rows of entries
        is_single = isinstance(matrices_raw, str) or not (
            isinstance(matrices_raw[0], str) or isinstance(matrices_raw[0][0], list)
        )
    except (TypeError, IndexError, KeyError) as exc:
        raise ValueError(f"bad matrix value: {matrices_raw!r}") from exc
    if is_single:
        matrices_raw = [matrices_raw]
    matrices = [_parse_matrix(m) for m in matrices_raw]
    if not matrices:
        raise ValueError("matrix list is empty")

    ps = merged.get("p", [])
    if isinstance(ps, int):
        ps = [ps]
    if not isinstance(ps, list) or any(type(x) is not int for x in ps):
        raise ValueError(f"config key 'p' must be an int or a list of ints, got {ps!r}")
    if any(p < 2 for p in ps):
        raise ValueError("all moduli must be >= 2")

    options = {}
    for name, (want, default, _) in OPTIONS.items():
        if want is not None:
            value = merged.get(name)
            if value is not None:
                _check_type(name, want, value)
            options[name] = default if value is None else value
    c = merged.get("c")
    options["c"] = None if c is None else _parse_vector(c)
    raw = {k: v for k, v in merged.items() if v is not None and k not in ("output", "fit_json")}
    raw["matrix"] = [m.to_lists() for m in matrices]
    if ps:
        raw["p"] = ps
    return ExperimentConfig(matrices, ps, raw, **options)


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, cfg: ExperimentConfig, path: Optional[str]) -> None:
    """Write doc with the run's meta as its last key, indented by 2."""
    _emit(json.dumps({**doc, "meta": cfg.meta_dict()}, indent=2) + "\n", path)


def cmd_classify(cfg: ExperimentConfig) -> int:
    report = spectral.classify(cfg.T)
    doc = report.to_dict()
    if cfg.ps:
        doc["admissible"] = {str(p): is_admissible(cfg.T, p) for p in cfg.ps}
    _emit_json(doc, cfg, cfg.output)
    if report.classification == spectral.Classification.SINGULAR:
        return EXIT_PRECONDITION
    return EXIT_OK


def cmd_bounds(cfg: ExperimentConfig) -> int:
    walk = WalkConfig(cfg.T, cfg.p)
    if cfg.n_max is None:
        raise ValueError("bounds needs --n-max")
    if cfg.n_min > cfg.n_max:
        raise ValueError(f"empty range: --n-min {cfg.n_min} exceeds --n-max {cfg.n_max}")
    n_values = list(range(cfg.n_min, cfg.n_max + 1))
    # --exact past the state cap: the bounds, no tv_exact column, exit 4
    partial = cfg.exact and walk.num_states > cfg.state_cap
    series = fourier.bound_series(
        walk,
        n_values,
        include_exact=None if partial else cfg.exact,
        state_cap=cfg.state_cap,
        char_cap=cfg.char_cap,
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
        raise ValueError("mixtime needs --epsilon")
    method = cfg.method or "exact"
    n = montecarlo.mixing_search(
        WalkConfig(cfg.T, cfg.p), cfg.epsilon, method, cfg.n_cap, cfg.state_cap, cfg.char_cap
    )
    _emit_json({"n_mix": n, "epsilon": cfg.epsilon, "method": method}, cfg, cfg.output)
    return EXIT_OK


def cmd_orbit(cfg: ExperimentConfig) -> int:
    if cfg.c is None:
        raise ValueError("orbit needs --c, the character index vector")
    walk = WalkConfig(cfg.T, cfg.p)
    c = ModVector(cfg.p, cfg.c)
    record = fourier.orbit_analysis(c, walk, c1=cfg.c1, ell_max=cfg.ell_max)
    _emit_json(record.to_dict(), cfg, cfg.output)
    return EXIT_OK


def cmd_project(cfg: ExperimentConfig) -> int:
    report = montecarlo.projection_functional(cfg.T, cfg.p)
    doc = report.to_dict()
    if cfg.blocks is not None:
        walk = WalkConfig(cfg.T, cfg.p)
        dist = montecarlo.projected_walk_dist(report, walk, cfg.blocks)
        doc["blocks"] = cfg.blocks
        doc["projected_tv"] = exactdist.tv_vector(dist)
    _emit_json(doc, cfg, cfg.output)
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig) -> int:
    if cfg.n is None or cfg.samples is None:
        raise ValueError("simulate needs --n and --samples")
    walk = WalkConfig(cfg.T, cfg.p)
    if not cfg.dump_states:  # refuse what empirical_tv would, before simulating
        montecarlo.check_simulate(walk, cfg.n, cfg.samples)
        montecarlo.check_counting(walk, cfg.samples)
    batch = montecarlo.simulate(walk, cfg.n, cfg.samples, cfg.seed)
    if cfg.dump_states:
        _emit(batch.states_csv(header_comment=cfg.meta()), cfg.output)
        return EXIT_OK
    tv = montecarlo.empirical_tv(batch)
    doc = {"n": cfg.n, "samples": cfg.samples, "seed": cfg.seed, "empirical_tv": tv}
    _emit_json(doc, cfg, cfg.output)
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig) -> int:
    if cfg.epsilon is None:
        raise ValueError("sweep needs --epsilon")
    if not cfg.ps:
        raise ValueError("a modulus p is required")
    reports = montecarlo.scaling_sweep(
        cfg.matrices,
        cfg.ps,
        cfg.epsilon,
        method=cfg.method or "auto",
        n_cap=cfg.n_cap,
        char_cap=cfg.char_cap,
        state_cap=cfg.state_cap,
    )
    _emit(montecarlo.sweep_csv(reports, header_comment=cfg.meta()), cfg.output)
    if cfg.fit_json:
        _emit_json({"fits": [rep.fit_summary() for rep in reports]}, cfg, cfg.fit_json)
    return EXIT_OK


# subcommand -> (its handler, its help text, its options after COMMON),
# each list in the order of the subcommand's --help
COMMON = ("config", "matrix", "p", "output")
COMMANDS = {
    "classify": (cmd_classify, "spectrum report for the matrix", ()),
    "bounds": (cmd_bounds, "upper/lower/exact TV series as CSV",
               ("state_cap", "char_cap", "n_min", "n_max", "exact")),
    "mixtime": (cmd_mixtime, "least n with distance <= epsilon",
                ("state_cap", "char_cap", "epsilon", "method", "n_cap")),
    "orbit": (cmd_orbit, "orbit of a character under T^t", ("c", "c1", "ell_max")),
    "project": (cmd_project, "slow-mixing projection functional", ("blocks",)),
    "simulate": (cmd_simulate, "Monte Carlo trajectories",
                 ("n", "samples", "seed", "dump_states")),
    "sweep": (cmd_sweep, "mixing-time scaling over moduli",
              ("state_cap", "char_cap", "epsilon", "method", "n_cap", "fit_json")),
}
# keywords that one subcommand's flag adds to its OPTIONS entry: only
# sweep's cells may leave the method to "auto"
OVERRIDES = {("sweep", "method"): {"choices": ("auto", *montecarlo.METHODS)}}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinewalk",
        description="Mixing analysis of the walk x -> T x + b (mod p) on (Z/pZ)^d",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"affinewalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, own) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for name in COMMON + own:
            want, _, kw = OPTIONS[name]
            flags = ("-o",) if name == "output" else ()
            if want in (int, float):
                kw = {"type": want, **kw}
            kw = {**kw, **OVERRIDES.get((command, name), {})}
            # an unset flag stays None, so a file value or the table
            # default stands and meta records nothing for it
            sp.add_argument(*flags, "--" + name.replace("_", "-"), default=None, **kw)
        sp.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        return args.func(cfg)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except RootConvergenceError as exc:
        print(f"eigenvalue listing failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
