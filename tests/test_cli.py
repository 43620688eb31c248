import numpy as np
import pytest

from picardcert.cli import (ConfigError, build_problem, load_config, main)
from picardcert.paths import read_csv

ORACLE_CONFIG = """
[problem]
variant = advanced_delayed
dim = 1
window = -40 40
grid_step = 0.02
state_bound = 3.0
label = sin_conv_oracle

[nonlinearity]
family = sinusoid_affine
sin_amp = 1.0

[kernel.delayed]
family = exponential_decay
rate = 2.0
state_coeff = 0.25

[kernel.advanced]
family = zero

[numeric]
quad_tol = 1e-9
solver_tol = 1e-7
rho = 1.0

[diagnose]
eps = 0.01
windows = 30 40
shift_step = 6.283185307179586
shift_count = 5
probe_window = -3 3
probe_count = 25
tol = 1e-3
"""


def write_config(tmp_path, text=ORACLE_CONFIG, name="problem.ini"):
    cfg = tmp_path / name
    cfg.write_text(text, encoding="utf-8")
    return cfg


# -- config parsing ---------------------------------------------------------------

def test_load_and_build(tmp_path):
    cfg = load_config(write_config(tmp_path))
    spec = build_problem(cfg)
    assert spec.variant == "advanced_delayed"
    assert spec.f.lipschitz == 0.0
    assert spec.kernel_advanced.is_zero


def test_unknown_section_rejected(tmp_path):
    bad = ORACLE_CONFIG + "\n[surprise]\nkey = 1\n"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, bad))


def test_unknown_key_rejected(tmp_path):
    bad = ORACLE_CONFIG.replace("sin_amp = 1.0", "sin_amp = 1.0\nwobble = 2")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, bad))


def test_bad_tolerance_rejected(tmp_path):
    bad = ORACLE_CONFIG.replace("quad_tol = 1e-9", "quad_tol = -1")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, bad))


def test_unknown_family_rejected(tmp_path):
    bad = ORACLE_CONFIG.replace("family = exponential_decay",
                                "family = mystery_meat")
    with pytest.raises(ConfigError):
        build_problem(load_config(write_config(tmp_path, bad)))


# -- certify command ---------------------------------------------------------------

def test_certify_pass_exit_zero(tmp_path):
    cfg = write_config(tmp_path)
    code = main(["certify", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "certificate.txt").read_text()
    assert "verdict: pass" in text


def test_certify_fail_exit_two(tmp_path):
    bad = ORACLE_CONFIG.replace("sin_amp = 1.0",
                                "sin_amp = 1.0\nstate_coeff = 0.9")
    cfg = write_config(tmp_path, bad)
    code = main(["certify", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "verdict: fail" in (tmp_path / "certificate.txt").read_text()


@pytest.mark.parametrize("argv", [["certify", "--tol", "-1"],
                                  ["solve", "--tol", "nan"],
                                  ["diagnose", "solution.csv", "--tol", "0"]],
                         ids=["certify", "solve", "diagnose"])
def test_bad_tol_exit_one(tmp_path, capsys, argv):
    # the contraction inequality fails here by 0.35 (certify exits 2); a
    # slack margin of -1 would let it hold
    bad = ORACLE_CONFIG.replace("sin_amp = 1.0",
                                "sin_amp = 1.0\nstate_coeff = 0.3")
    cfg = write_config(tmp_path, bad)
    code = main(argv + ["--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "certificate.txt").exists()


def test_certify_ball_past_state_bound_exit_two(tmp_path):
    text = (ORACLE_CONFIG.replace("variant = advanced_delayed",
                                  "variant = delayed_only")
            .replace("window = -40 40", "window = -5 5")
            .replace("state_bound = 3.0", "state_bound = 0.0"))
    cfg = write_config(tmp_path, text)
    code = main(["certify", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "violated: state radius rho <= kernel state_bound" \
        in (tmp_path / "certificate.txt").read_text()


def test_malformed_config_exit_one(tmp_path):
    cfg = tmp_path / "broken.ini"
    cfg.write_text("[problem]\nvariant = advanced_delayed\nwindow = banana\n")
    code = main(["certify", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1


def test_theorem_of_wrong_family_exit_one(tmp_path):
    text = ORACLE_CONFIG.replace("variant = advanced_delayed",
                                 "variant = delayed_only")
    cfg = write_config(tmp_path, text + "\n[certify]\ntheorem = th31\n")
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "certificate.txt").exists()


RESOLVENT_CONFIG = """
[problem]
variant = resolvent_nonlocal
window = 0 10
grid_step = 0.05

[nonlinearity]
family = sinusoid_affine
sin_amp = 0.2
state_coeff = 0.3

[memory]
coeff = -0.25
rate = 1.0

[resolvent]
a_value = -2.0
horizon = 10
decay_gamma = 1.0

[numeric]
rho = 2.0
"""


def test_resolvent_window_outside_its_grid_exit_one(tmp_path):
    # the resolvent is tabulated, audited and checked only up to its horizon,
    # and the mild solution is computed from t = 0 on
    cfg = write_config(tmp_path, RESOLVENT_CONFIG)
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    for name, old, new, reason in (
            ("short.ini", "horizon = 10", "horizon = 5", "resolvent's grid"),
            ("late.ini", "window = 0 10", "window = 2 10", "start at t = 0")):
        bad = write_config(tmp_path, RESOLVENT_CONFIG.replace(old, new),
                           name=name)
        with pytest.raises(ConfigError, match=reason):
            build_problem(load_config(bad))
        assert main(["certify", "--config", str(bad),
                     "--out", str(tmp_path)]) == 1


def test_resolvent_declared_decay_audited(tmp_path):
    # R(t) = (1 - t/2) e^{-1.5 t} for this memory: e^{-5t} fails the sampled
    # audit of the declared bound, and the config is refused
    bad = write_config(tmp_path, RESOLVENT_CONFIG.replace(
        "decay_gamma = 1.0", "decay_gamma = 5"))
    with pytest.raises(ConfigError, match=r"decay does not hold: \|R\("):
        build_problem(load_config(bad))
    assert main(["certify", "--config", str(bad),
                 "--out", str(tmp_path)]) == 1


EVOLUTION_CONFIG = """
[problem]
variant = evolution_nonlocal
window = 2 10
grid_step = 0.05

[nonlinearity]
family = sinusoid_affine
sin_amp = 0.2

[evolution]
family = scalar_constant
value = -1.0
"""


def test_evolution_window_after_zero_exit_one(tmp_path):
    # u0 is the state at t = 0; a window from t = 2 would start the cell
    # recurrence there from u0, as if t = 2 were t = 0
    cfg = write_config(tmp_path, EVOLUTION_CONFIG)
    with pytest.raises(ConfigError, match="start at t = 0"):
        build_problem(load_config(cfg))
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_non_finite_config_number_exit_one(tmp_path):
    # a nan generator value sent the propagators' integrator into an endless
    # step loop: every float and float-list value must be finite
    text = EVOLUTION_CONFIG.replace("window = 2 10", "window = 0 10")
    for name, old, new, key in (
            ("nan.ini", "value = -1.0", "value = nan", "evolution.value"),
            ("inf.ini", "window = 0 10", "window = 0 inf", "problem.window")):
        cfg = write_config(tmp_path, text.replace(old, new), name=name)
        with pytest.raises(ConfigError, match=key):
            load_config(cfg)
        assert main(["certify", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1


HALF_LINE_CONFIG = """
[problem]
variant = half_line
window = 2 12
grid_step = 0.05
state_bound = 3.0

[nonlinearity]
family = sinusoid_affine
sin_amp = 1.0

[split.delayed]
family = split_exponential
rate = 2.0
aa_state_coeff = 0.25

[split.advanced]
family = split_exponential
rate = 2.0
"""


def test_half_line_window_after_zero_exit_one(tmp_path):
    # the history integral runs from t = 0; a window from t = 2 would read
    # [0, 2] through the iterate's constant tail y(2)
    cfg = write_config(tmp_path, HALF_LINE_CONFIG)
    with pytest.raises(ConfigError, match="start at t = 0"):
        build_problem(load_config(cfg))
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    good = write_config(tmp_path, HALF_LINE_CONFIG.replace("window = 2 12",
                                                           "window = 0 12"),
                        name="zero.ini")
    assert main(["certify", "--config", str(good), "--out", str(tmp_path)]) == 0


def test_missing_config_exit_one(tmp_path):
    code = main(["certify", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path)])
    assert code == 1


# -- solve command -------------------------------------------------------------------

def test_solve_writes_solution_matching_oracle(tmp_path):
    cfg = write_config(tmp_path)
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    sol = read_csv(tmp_path / "solution.csv")
    A, B = 72.0 / 65.0, -4.0 / 65.0
    expect = A * np.sin(sol.grid) + B * np.cos(sol.grid)
    assert np.max(np.abs(sol.values[:, 0] - expect)) < 1e-6
    assert (tmp_path / "solver_report.txt").exists()


def test_solve_uncertified_blocked_without_flag(tmp_path):
    bad = ORACLE_CONFIG.replace("sin_amp = 1.0",
                                "sin_amp = 1.0\nstate_coeff = 0.9")
    cfg = write_config(tmp_path, bad)
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert not (tmp_path / "solution.csv").exists()


def test_solve_zero_problem(tmp_path):
    zero = ORACLE_CONFIG.replace("family = sinusoid_affine\nsin_amp = 1.0",
                                 "family = zero")
    cfg = write_config(tmp_path, zero)
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    sol = read_csv(tmp_path / "solution.csv")
    assert np.max(np.abs(sol.values)) <= 1e-12


# -- diagnose command -----------------------------------------------------------------

def test_solve_then_diagnose_round_trip(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    code = main(["diagnose", str(tmp_path / "solution.csv"),
                 "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "diagnostic.txt").read_text()
    assert "verdict: consistent" in text
    assert (tmp_path / "residuals.csv").read_text().startswith(
        "index,shift,forward_residual,backward_residual")

    # round trip: re-reading the written CSV reproduces the diagnostics of
    # the in-memory solution bit-identically
    from picardcert.certify import certify
    from picardcert.cli import _diagnose_path
    from picardcert.solver import picard_solve
    cfgobj = load_config(cfg)
    spec = build_problem(cfgobj)
    cert = certify(spec, rho=1.0, mode="ball")
    fresh = picard_solve(spec, cert, tol=1e-7).solution
    reread = read_csv(tmp_path / "solution.csv", tail_policy="constant")
    assert np.array_equal(fresh.grid, reread.grid)
    assert np.array_equal(fresh.values, reread.values)
    rep1 = _diagnose_path(cfgobj, spec, fresh)
    rep2 = _diagnose_path(cfgobj, spec, reread)
    assert rep1.to_text() == rep2.to_text()
    assert rep1.residual_csv_text() == rep2.residual_csv_text()


def test_diagnose_growing_path_inconsistent(tmp_path):
    cfg = write_config(tmp_path)
    grid = np.arange(-60.0, 60.0 + 0.025, 0.05)
    from picardcert.paths import SampledPath, write_csv
    bad = SampledPath(grid, 0.1 * grid)
    write_csv(bad, tmp_path / "bad.csv")
    code = main(["diagnose", str(tmp_path / "bad.csv"),
                 "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    assert "verdict: inconsistent" in (tmp_path / "diagnostic.txt").read_text()


def test_diagnose_bad_csv_exit_one(tmp_path):
    cfg = write_config(tmp_path)
    (tmp_path / "junk.csv").write_text("not,a,path\n1,2,3\n")
    code = main(["diagnose", str(tmp_path / "junk.csv"),
                 "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1


# -- demo command ------------------------------------------------------------------------

@pytest.mark.slow
def test_demo_heat(tmp_path):
    code = main(["demo", "heat", "--out", str(tmp_path)])
    assert code == 0
    for name in ("heat_certificate.txt", "heat_conditions.txt",
                 "heat_solution.csv", "heat_probes.csv",
                 "heat_resolvent_decay.csv", "heat_diagnostic.txt"):
        assert (tmp_path / name).exists(), name
    decay = (tmp_path / "heat_resolvent_decay.csv").read_text().splitlines()
    assert decay[0] == "t,resolvent_norm,decay_bound"
    rows = np.array([[float(x) for x in line.split(",")] for line in decay[1:]])
    assert np.all(rows[:, 1] <= rows[:, 2] + 1e-12)


@pytest.mark.slow
def test_demo_delay_sides_disagree_indeterminate(tmp_path, monkeypatch):
    from picardcert import cli

    real = cli.range_compactness_trend

    def inconsistent(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.verdict = "inconsistent"
        return rep

    monkeypatch.setattr(cli, "range_compactness_trend", inconsistent)
    assert main(["demo", "delay", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "delay_diagnostic.txt").read_text()
    assert text.splitlines()[1].startswith("verdict: indeterminate")
    assert "compact-range side: inconsistent" in text


def test_failed_integration_exit_one(tmp_path, monkeypatch, capsys):
    # the first stability sample fails to integrate: a named error, no
    # traceback
    from types import SimpleNamespace

    from picardcert import evolution
    monkeypatch.setattr(evolution, "solve_ivp", lambda *a, **kw: SimpleNamespace(
        success=False, message="Required step size is less than spacing "
                               "between numbers."))
    assert main(["demo", "delay", "--out", str(tmp_path)]) == 1
    assert "propagation failed" in capsys.readouterr().err


@pytest.mark.slow
def test_demo_delay(tmp_path):
    code = main(["demo", "delay", "--out", str(tmp_path)])
    assert code == 0
    for name in ("delay_certificate.txt", "delay_solution.csv",
                 "delay_solver_report.txt", "delay_diagnostic.txt"):
        assert (tmp_path / name).exists(), name
    sol = read_csv(tmp_path / "delay_solution.csv")
    assert np.max(np.abs(sol.values)) < 2.0  # stays inside the certified ball
