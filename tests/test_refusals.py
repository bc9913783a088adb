"""Typed refusals: inputs the package cannot handle exactly end in a
package error and an exit code, never in a traceback or a wrong answer."""

import numpy as np
import pytest

from affinewalk import cli, exactdist, fourier, indexing, montecarlo, spectral
from affinewalk.errors import BudgetError, PreconditionError, RootConvergenceError
from affinewalk.exactdist import WalkConfig
from affinewalk.modmath import IntMatrix, ModVector


def test_root_convergence_error_exits_3(monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise RootConvergenceError("residuals not certified")

    monkeypatch.setattr(spectral, "complex_roots", no_convergence)
    assert cli.main(["classify", "--matrix", "[[2,1],[1,1]]"]) == cli.EXIT_PRECONDITION
    assert "residuals not certified" in capsys.readouterr().err


def test_numpy_root_failure_exits_3(monkeypatch, capsys):
    # numpy's LinAlgError is a ValueError; classify re-raises it typed, so
    # it exits 3 rather than 2 as a config error
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np, "roots", no_convergence)
    with pytest.raises(RootConvergenceError, match="did not converge"):
        spectral.complex_roots(spectral.CharPoly((1, -3, 1)))
    assert cli.main(["classify", "--matrix", "[[2,1],[1,1]]"]) == cli.EXIT_PRECONDITION
    assert "did not converge" in capsys.readouterr().err


def test_coefficient_past_float_range_exits_3(capsys):
    # the class is exact at any size; only the listed roots need floats
    big = 10**200
    T = IntMatrix([[big, 0], [0, big + 1]])  # constant term ~1e400
    assert spectral.root_of_unity_order(T) is None
    assert cli.main(["classify", "--matrix", str(T.to_lists())]) == cli.EXIT_PRECONDITION
    assert "eigenvalue listing failed" in capsys.readouterr().err


class TestNegativeStepCap:
    """n_cap counts steps, so a negative one is a bad input (exit 2), not
    a search that ran out of steps (exit 4)."""

    FAST = WalkConfig(IntMatrix([[2, 1], [1, 1]]), 11)
    ROT = IntMatrix([[0, -1], [1, 0]])

    @pytest.mark.parametrize("method", ["exact", "ub"])
    def test_mixing_time(self, method):
        with pytest.raises(ValueError, match="n_cap"):
            fourier.mixing_time(self.FAST, 0.25, method=method, n_cap=-1)

    def test_projected_mixing_time(self):
        with pytest.raises(ValueError, match="n_cap"):
            montecarlo.projected_mixing_time(self.ROT, 101, 0.25, n_cap=-1)

    def test_scaling_sweep_refuses_before_any_cell(self, monkeypatch):
        def boom(*args):
            raise RuntimeError("examined a matrix")

        monkeypatch.setattr(spectral, "cyclotomic_facts", boom)
        with pytest.raises(ValueError, match="n_cap"):
            montecarlo.scaling_sweep([self.ROT], [101], 0.25, n_cap=-1)

    @pytest.mark.parametrize("argv", [
        ["mixtime", "--matrix", "[[2,1],[1,1]]", "--p", "11", "--epsilon", "0.25",
         "--method", "ub"],
        ["mixtime", "--matrix", "[[0,-1],[1,0]]", "--p", "101", "--epsilon", "0.25",
         "--method", "projected"],
        ["sweep", "--matrix", "[[2,1],[1,1]]", "--p", "11", "--epsilon", "0.25"],
    ], ids=["mixtime-ub", "mixtime-projected", "sweep"])
    def test_cli_exit_2(self, argv, capsys):
        assert cli.main(argv + ["--n-cap", "-1"]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "n_cap must be >= 0" in err


class TestNegativeCaps:
    """state_cap and char_cap count states and characters, so a negative
    one is a bad input (exit 2) by the rule n_cap follows, whichever
    engine would run; a cap of 0 is still a budget that stops the work
    (exit 4)."""

    FAST = WalkConfig(IntMatrix([[2, 1], [1, 1]]), 11)
    ROT = WalkConfig(IntMatrix([[0, -1], [1, 0]]), 101)
    CAPS = {"state_cap": 10**6, "char_cap": 10**6}

    @pytest.mark.parametrize("cap", ["state_cap", "char_cap"])
    @pytest.mark.parametrize("call", [
        lambda self, caps: montecarlo.mixing_search(self.FAST, 0.25, "exact", 100, **caps),
        lambda self, caps: montecarlo.mixing_search(self.FAST, 0.25, "ub", 100, **caps),
        lambda self, caps: montecarlo.mixing_search(self.ROT, 0.25, "projected", 100, **caps),
        lambda self, caps: fourier.mixing_time(self.FAST, 0.25, method="exact", **caps),
        lambda self, caps: fourier.mixing_time(self.FAST, 0.25, method="ub", **caps),
        lambda self, caps: fourier.bound_series(self.FAST, [0, 3], **caps),
    ], ids=["search-exact", "search-ub", "search-projected", "mixing_time-exact",
            "mixing_time-ub", "bound_series"])
    def test_library(self, call, cap):
        with pytest.raises(ValueError, match=f"{cap} must be >= 0"):
            call(self, {**self.CAPS, cap: -1})

    def test_ub_bound(self):
        with pytest.raises(ValueError, match="char_cap must be >= 0"):
            fourier.ub_bound(3, self.FAST, char_cap=-1)

    @pytest.mark.parametrize("call,cap", [
        (lambda cfg: fourier.char_powers(cfg, -1), "char_cap"),
        (lambda cfg: exactdist.evolve(cfg, 1, state_cap=-1), "state_cap"),
        (lambda cfg: exactdist.dense_states(cfg, -1), "state_cap"),
        (lambda cfg: montecarlo.empirical_tv(montecarlo.simulate(cfg, 1, 4, seed=1),
                                             count_cap=-1), "count_cap"),
    ], ids=["char_powers", "evolve", "dense_states", "empirical_tv"])
    def test_below_the_entry_points(self, call, cap):
        # each read a negative cap as a budget (BudgetError) before
        with pytest.raises(ValueError, match=f"{cap} must be >= 0"):
            call(self.FAST)

    @pytest.mark.parametrize("cap", ["state_cap", "char_cap"])
    def test_scaling_sweep_refuses_before_any_cell(self, cap, monkeypatch):
        def boom(*args):
            raise RuntimeError("examined a matrix")

        monkeypatch.setattr(spectral, "cyclotomic_facts", boom)
        with pytest.raises(ValueError, match=f"{cap} must be >= 0"):
            montecarlo.scaling_sweep([self.ROT.T], [101], 0.25, **{cap: -1})

    COMMANDS = {
        "mixtime": ["mixtime", "--matrix", "[[2,1],[1,1]]", "--p", "11", "--epsilon", "0.25"],
        "mixtime-ub": ["mixtime", "--matrix", "[[2,1],[1,1]]", "--p", "11", "--epsilon",
                       "0.25", "--method", "ub"],
        "bounds": ["bounds", "--matrix", "[[2,1],[1,1]]", "--p", "11", "--n-max", "3"],
        "bounds-exact": ["bounds", "--matrix", "[[2,1],[1,1]]", "--p", "11", "--n-max", "3",
                         "--exact"],
        "sweep": ["sweep", "--matrix", "[[2,1],[1,1]]", "--p", "11", "--epsilon", "0.25",
                  "--method", "ub"],
    }

    @pytest.mark.parametrize("flag,value,name", [
        ("--state-cap", "-5", "state_cap"), ("--char-cap", "-1", "char_cap"),
    ])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_cli_exit_2(self, command, flag, value, name, capsys):
        assert cli.main(self.COMMANDS[command] + [flag, value]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and f"config error: {name} must be >= 0" in err

    @pytest.mark.parametrize("command,flag", [
        ("mixtime", "--state-cap"), ("mixtime-ub", "--char-cap"),
        ("bounds", "--char-cap"), ("bounds-exact", "--state-cap"),
    ])
    def test_cli_zero_cap_is_a_budget(self, command, flag, capsys):
        assert cli.main(self.COMMANDS[command] + [flag, "0"]) == cli.EXIT_BUDGET
        assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("call,text", [
    (lambda cfg: exactdist.dense_states(cfg, 10_000),
     "p^d = 10201 exceeds the dense-state cap 10000"),
    (lambda cfg: fourier.char_powers(cfg, 10_000),
     "p^d = 10201 exceeds the character cap 10000; "
     "use char_lower_bound on sampled candidates instead"),
    (lambda cfg: fourier.first_large_sweep(WalkConfig(cfg.T, 1001)),
     "p^d = 1002001 exceeds the character cap 1000000; "
     "pass sampled characters as cs= (sample= in orbit_constant_report)"),
    (lambda cfg: montecarlo.check_counting(cfg, 10, 10_000),
     "p^d = 10201 exceeds the counting budget 10000"),
], ids=["dense_states", "char_powers", "first_large_sweep", "check_counting"])
def test_budget_message(call, text):
    """Every budget over the p^d states or characters words its refusal
    one way (WalkConfig.require_states)."""
    with pytest.raises(BudgetError) as info:
        call(WalkConfig(IntMatrix([[2, 1], [1, 1]]), 101))
    assert str(info.value) == text


class TestDenseWalkGate:
    """The dense walk refuses on the call, whatever step it would reach
    first, in check_simulate's order: the state cap, an inadmissible
    (T, p), then the int64 limits (coordinates, then state indices)."""

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("p", [10, 1000])
    def test_inadmissible(self, p, n):
        # at p = 1000 the support steps covered n = 3 and returned a law
        with pytest.raises(PreconditionError, match="not admissible"):
            exactdist.evolve(WalkConfig(IntMatrix([[2, 0], [0, 1]]), p), n)

    @pytest.mark.parametrize("call", [
        lambda cfg: exactdist.evolve(cfg, 3, state_cap=5 * 10**9),
        lambda cfg: exactdist.dense_states(cfg, 5 * 10**9),
    ], ids=["evolve", "dense_states"])
    def test_int64_limit(self, call):
        # the support step wrapped here, giving supp P_3 =
        # [0, 1, 4294967087, 4294967088, 4294967310] for {0, 1, 2, p-1}
        with pytest.raises(BudgetError, match=r"^the dense walk needs .* 2\^63 - 1"):
            call(WalkConfig(IntMatrix([[-1]]), 4294967311))

    @pytest.mark.parametrize("call", [
        lambda cfg: exactdist.evolve(cfg, 2, state_cap=10**20),
        lambda cfg: exactdist.dense_states(cfg, 10**20),
    ], ids=["evolve", "dense_states"])
    def test_int64_index_limit(self, call):
        # p^4 - 1 > 2^63 - 1: the support keys wrapped here, giving supp P_2
        # ending in [844437815099392, 844437815099393, 844437815164929,
        # 844442110197761] with only numpy's overflow warning
        with pytest.raises(BudgetError, match=r"^the dense walk needs p\^d - 1 <= 2\^63 - 1"):
            call(WalkConfig(IntMatrix.identity(4).scale(-1), 65537))

    def test_int64_index_limit_exit_4(self, capsys):
        argv = ["mixtime", "--matrix", "[[-1,0,0,0],[0,-1,0,0],[0,0,-1,0],[0,0,0,-1]]",
                "--p", "65537", "--epsilon", "0.25", "--state-cap", str(10**20)]
        assert cli.main(argv) == cli.EXIT_BUDGET
        assert "p^d - 1 <= 2^63 - 1" in capsys.readouterr().err

    def test_order(self):
        cfg = WalkConfig(IntMatrix([[2]]), 2**32 + 16)  # inadmissible, past int64
        with pytest.raises(BudgetError, match="dense-state cap"):
            exactdist.dense_states(cfg)
        with pytest.raises(PreconditionError):
            exactdist.dense_states(cfg, 2**33)
        # inadmissible, p^d past int64: admissibility is checked first
        with pytest.raises(PreconditionError):
            exactdist.dense_states(WalkConfig(IntMatrix.identity(4).scale(2), 65536), 10**20)


class TestSweepEpsilon:
    """A sweep refuses an epsilon outside (0, 1) once, before any cell
    runs, as mixtime does (exit 2), instead of one failure per cell."""

    ROT = IntMatrix([[0, -1], [1, 0]])

    @pytest.mark.parametrize("eps", [0.0, -0.5, 1.0])
    def test_scaling_sweep_refuses_before_any_cell(self, eps, monkeypatch):
        def boom(*args):
            raise RuntimeError("examined a matrix")

        monkeypatch.setattr(spectral, "cyclotomic_facts", boom)
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
            montecarlo.scaling_sweep([self.ROT], [101], eps)

    @pytest.mark.parametrize("eps", ["0", "-0.5", "1.0"])
    def test_cli_exit_2(self, eps, capsys):
        argv = ["sweep", "--matrix", "[[2,1],[1,1]]", "--p", "11", "--epsilon", eps]
        assert cli.main(argv) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "config error: eps must lie in (0, 1)" in err


class TestUnknownMethod:
    """A method outside METHODS is refused with a message naming them
    all: by mixing_search, and by a sweep once, before any cell runs;
    fourier.mixing_time, which serves two of them, words it the same
    way (fourier.check_method)."""

    ROT = IntMatrix([[0, -1], [1, 0]])

    def test_mixing_search(self):
        with pytest.raises(ValueError, match="'fastest' .*exact, ub, projected"):
            montecarlo.mixing_search(WalkConfig(self.ROT, 11), 0.25, "fastest", 10, 10, 10)

    def test_scaling_sweep_refuses_before_any_cell(self, monkeypatch):
        def boom(*args):
            raise RuntimeError("examined a matrix")

        monkeypatch.setattr(spectral, "cyclotomic_facts", boom)
        with pytest.raises(ValueError, match="'fastest' .*auto, exact, ub, projected"):
            montecarlo.scaling_sweep([self.ROT], [11, 13], 0.25, method="fastest")

    @pytest.mark.parametrize("call,allowed", [
        (lambda cfg: fourier.mixing_time(cfg, 0.25, method="fastest"), "exact, ub"),
        (lambda cfg: montecarlo.mixing_search(cfg, 0.25, "fastest", 10, 10, 10),
         "exact, ub, projected"),
        (lambda cfg: montecarlo.scaling_sweep([cfg.T], [cfg.p], 0.25, method="fastest"),
         "auto, exact, ub, projected"),
    ], ids=["mixing_time", "mixing_search", "scaling_sweep"])
    def test_one_message(self, call, allowed):
        with pytest.raises(ValueError) as info:
            call(WalkConfig(self.ROT, 11))
        assert str(info.value) == f"unknown method 'fastest' (want one of {allowed})"


class TestNegativeOrbitBudget:
    """ell_max counts orbit steps, so every orbit function refuses a
    negative one (exit 2 through the CLI) instead of exploring nothing."""

    CFG = WalkConfig(IntMatrix([[2, 1], [1, 1]]), 101)

    @pytest.mark.parametrize("call", [
        lambda cfg, e: fourier.orbit_analysis(ModVector(cfg.p, [1, 0]), cfg, ell_max=e),
        lambda cfg, e: fourier.first_large_sweep(cfg, cs=np.array([[1, 0]]), ell_max=e),
        lambda cfg, e: fourier.orbit_constant_report(cfg, sample=10, ell_max=e),
    ], ids=["orbit_analysis", "first_large_sweep", "orbit_constant_report"])
    def test_refused_below_zero_only(self, call):
        with pytest.raises(ValueError, match="ell_max must be >= 0"):
            call(self.CFG, -1)
        call(self.CFG, 0)


def replay(cfg, n, samples, seed):
    """Final states recomputed with Python integers from the same steps."""
    T = cfg.T.mod(cfg.p).entries
    steps = montecarlo._step_stream(seed, 0, samples, n, cfg.d)
    rows = []
    for s in steps:
        x = [0] * cfg.d
        for b in s:
            x = [sum(T[i][j] * x[j] for j in range(cfg.d)) for i in range(cfg.d)]
            if b:
                x[b - 1] += 1
            x = [v % cfg.p for v in x]
        rows.append(x)
    return np.array(rows, dtype=np.int64)


class TestSimulateInt64Limit:
    def test_overflowing_modulus_is_refused(self):
        # int64 wraparound gave 64 of 64 wrong rows here, with no error
        cfg = WalkConfig(IntMatrix([[3, -1], [1, 0]]), 2**32 + 1)
        with pytest.raises(BudgetError, match=r"2\^63 - 1"):
            montecarlo.simulate(cfg, 60, 64, seed=1)

    def test_limit_is_sharp(self):
        # d = 2: 2 (p-1)^2 + 1 <= 2^63 - 1 exactly when p <= 2^31
        T = IntMatrix([[2, 1], [1, 1]])
        montecarlo.simulate(WalkConfig(T, 2**31), 1, 1, seed=1)
        with pytest.raises(BudgetError):
            montecarlo.simulate(WalkConfig(T, 2**31 + 1), 1, 1, seed=1)

    def test_minstd_modulus_still_exact(self):
        cfg = WalkConfig(IntMatrix([[2, 1], [1, 1]]), 2**31 - 1)
        batch = montecarlo.simulate(cfg, 40, 16, seed=7)
        assert np.array_equal(batch.final_states, replay(cfg, 40, 16, 7))


class TestFirstLargeSweepInt64Limit:
    T = IntMatrix([[3, -1], [1, 0]])

    @staticmethod
    def characters(p, rows):
        return np.random.default_rng(0).integers(1, p, size=(rows, 2))

    def test_overflowing_modulus_is_refused(self):
        # int64 wraparound in C @ T mod p made 222 of these 300 rows
        # differ from orbit_analysis, with no error
        cfg = WalkConfig(self.T, 2**32 + 15)
        with pytest.raises(BudgetError, match=r"first_large_sweep .* 2\^63 - 1"):
            fourier.first_large_sweep(cfg, c1=0.49, cs=self.characters(cfg.p, 300))

    def test_limit_is_shared_with_simulate(self):
        fourier.first_large_sweep(WalkConfig(self.T, 2**31), cs=[[1, 0]])
        with pytest.raises(BudgetError):
            fourier.first_large_sweep(WalkConfig(self.T, 2**31 + 1), cs=[[1, 0]])

    def test_minstd_modulus_matches_orbit_analysis(self):
        cfg = WalkConfig(self.T, 2**31 - 1)
        cs = self.characters(cfg.p, 60)
        got = fourier.first_large_sweep(cfg, c1=0.49, cs=cs)
        want = [
            fourier.orbit_analysis(ModVector(cfg.p, [int(x) for x in c]), cfg, c1=0.49)
            .first_large_ell
            for c in cs
        ]
        assert got.tolist() == [-1 if w is None else w for w in want]


class TestFirstLargeSweepCharCap:
    T = IntMatrix([[2, 1], [1, 1]])

    @pytest.fixture
    def no_coordinate_table(self, monkeypatch):
        def boom(*args):
            raise RuntimeError("built the (p^d, d) coordinate table")

        monkeypatch.setattr(indexing, "all_coords", boom)

    def test_every_character_at_minstd_is_refused(self, no_coordinate_table):
        # numpy's "array is too big" ended this call before
        with pytest.raises(BudgetError, match="sample="):
            fourier.orbit_constant_report(WalkConfig(self.T, 2**31 - 1))

    def test_refused_just_over_the_cap(self, no_coordinate_table):
        assert 1001**2 > fourier.DEFAULT_CHAR_CAP
        with pytest.raises(BudgetError, match="character cap"):
            fourier.first_large_sweep(WalkConfig(self.T, 1001))

    def test_built_at_the_cap(self, no_coordinate_table):
        assert 1000**2 == fourier.DEFAULT_CHAR_CAP
        with pytest.raises(RuntimeError, match="coordinate table"):
            fourier.first_large_sweep(WalkConfig(self.T, 1000))

    def test_sampled_characters_are_not_capped(self, no_coordinate_table):
        report = fourier.orbit_constant_report(WalkConfig(self.T, 2**31 - 1), sample=50)
        assert report["characters"] == 50
