import re
from pathlib import Path

import numpy as np
import pytest

from picardcert.certify import CertificationError, certify
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


@pytest.mark.parametrize("old, new, key, command", [
    ("rho = 1.0", "rho = 1.0\nmax_iter = 0", "numeric.max_iter", "solve"),
    ("rho = 1.0", "rho = 1.0\nmax_iter = -3", "numeric.max_iter", "solve"),
    ("probe_count = 25", "probe_count = 0", "diagnose.probe_count", "diagnose"),
    ("windows = 30 40", "windows = 40", "diagnose.windows", "diagnose"),
    ("probe_window = -3 3", "probe_window = 3", "diagnose.probe_window",
     "diagnose"),
    ("tol = 1e-3", "tol = -1", "diagnose.tol", "diagnose"),
    ("eps = 0.01", "eps = 0", "diagnose.eps", "diagnose"),
    ("shift_count = 5", "shift_count = 2", "diagnose.shift_count", "diagnose"),
    ("shift_step = 6.283185307179586", "shift_step = 0",
     "diagnose.shift_step", "diagnose"),
    ("windows = 30 40", "windows = 40 30", "diagnose.windows", "diagnose"),
    ("windows = 30 40", "windows = -30 40", "diagnose.windows", "diagnose")],
    ids=["max_iter_zero", "max_iter_negative", "probe_count", "windows",
         "probe_window", "diagnose_tol", "eps_zero", "shift_count_two",
         "shift_step_zero", "windows_decreasing", "windows_negative"])
def test_bad_config_number_exit_one(tmp_path, capsys, old, new, key, command):
    # each crashed deep in the solver or the diagnostics with a message that
    # names no key, or was accepted and tested nothing (diagnose.tol = -1,
    # shift_step = 0, decreasing windows); the config is refused before the
    # path is read
    cfg = write_config(tmp_path, ORACLE_CONFIG.replace(old, new), name="bad.ini")
    with pytest.raises(ConfigError, match=key):
        load_config(cfg)
    argv = ([command] + ([str(tmp_path / "solution.csv")]
                         if command == "diagnose" else [])
            + ["--config", str(cfg), "--out", str(tmp_path / "bad")])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "bad").exists()


REFUTED_STABILITY_CONFIG = """
[problem]
variant = delay_parabolic
window = -10 10
grid_step = 0.05

[nonlinearity]
family = sinusoid_affine
sin_amp = 0.5
state_coeff = 0.1

[evolution]
family = scalar_constant
value = -0.5
delay = 1.0

[numeric]
rho = 2
"""


def test_refuted_stability_bound_is_refused(tmp_path, capsys):
    # a = -0.5 decays at rate 0.5, so the default bound M = 1, delta = 1 is
    # refuted by the family's own samples; no certificate rests on it
    cfg = write_config(tmp_path, REFUTED_STABILITY_CONFIG)
    spec = build_problem(load_config(cfg))
    assert not spec.evolution.stability.passed
    with pytest.raises(CertificationError, match="FAIL: growth detected"):
        certify(spec, rho=2.0)
    assert main(["certify", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "M = 1, delta = 1; worst slack -0.249986 over 30 samples" in err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("edits, reason", [
    # h A_hat is finite, but its exponential overflows
    ({"a_value = -2.0": "a_value = 1e308"}, "matrix exponential overflows"),
    # every entry of h A_hat is finite, but its first column sums to inf
    ({"a_value = -2.0": "a_value = 1.7e308\ngrid_step = 1",
      "coeff = -0.25": "coeff = 1.7e308"}, "infinite 1-norm")])
def test_resolvent_expm_failure_exit_one(tmp_path, capsys, edits, reason):
    text = RESOLVENT_CONFIG
    for old, new in edits.items():
        text = text.replace(old, new)
    cfg = write_config(tmp_path, text)
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert reason in capsys.readouterr().err


def test_resolvent_declared_decay_audited(tmp_path):
    # R(t) = (1 - t/2) e^{-1.5 t} for this memory: e^{-5t} fails the sampled
    # audit of the declared bound, and the config is refused
    bad = write_config(tmp_path, RESOLVENT_CONFIG.replace(
        "decay_gamma = 1.0", "decay_gamma = 5"))
    with pytest.raises(ConfigError, match=r"^\[resolvent\] decay does not "
                       r"hold: stability bound .* \(FAIL"):
        build_problem(load_config(bad))
    assert main(["certify", "--config", str(bad),
                 "--out", str(tmp_path)]) == 1


NO_DECAY_CONFIG = """
[problem]
variant = evolution_nonlocal
window = 0 10
grid_step = 0.05

[nonlinearity]
family = sinusoid_affine
sin_amp = 0.2
state_coeff = 0.5

[evolution]
family = scalar_constant
value = 0.5
stability_delta = -1

[numeric]
rho = 30
"""


@pytest.mark.parametrize("text, old, new, key", [
    (NO_DECAY_CONFIG, "", "", "evolution.stability_delta"),
    (NO_DECAY_CONFIG, "stability_delta = -1", "stability_delta = 0",
     "evolution.stability_delta"),
    (NO_DECAY_CONFIG, "stability_delta = -1", "stability_m = 0.5",
     "evolution.stability_m"),
    (RESOLVENT_CONFIG, "decay_gamma = 1.0", "decay_gamma = 0",
     "resolvent.decay_gamma"),
    (RESOLVENT_CONFIG, "decay_gamma = 1.0", "decay_q = 0",
     "resolvent.decay_q"),
    (RESOLVENT_CONFIG, "decay_gamma = 1.0", "decay_m = 0.5",
     "resolvent.decay_m")],
    ids=["growing_family_delta_negative", "delta_zero", "m_below_one",
         "gamma_zero", "q_zero", "decay_m_below_one"])
def test_declared_bound_that_is_no_decay_exit_one(tmp_path, capsys, text, old,
                                                   new, key):
    # a delta or gamma of 0 crashed with a ZeroDivisionError, a q of 0 warned
    # twice and quoted a bound of 0, and stability_delta = -1 on the growing
    # family a = 0.5 passed theoaaa1 with contraction constant -0.5 and
    # solved in one sweep to residual 248
    cfg = write_config(tmp_path, text.replace(old, new), name="bad.ini")
    with pytest.raises(ConfigError, match=key):
        load_config(cfg)
    assert main(["solve", "--config", str(cfg), "--out",
                 str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "bad").exists()


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


@pytest.mark.parametrize("window", ["15 -15", "5", "1 2 3", "3 3", ""],
                         ids=["reversed", "one", "three", "equal", "empty"])
def test_bad_stability_window_exit_one(tmp_path, capsys, window):
    # the stability pairs need lo < hi: a reversed window asked to propagate
    # backwards, and one or three numbers failed to unpack
    text = EVOLUTION_CONFIG.replace("window = 2 10", "window = 0 10") \
        + f"stability_window = {window}\n"
    cfg = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match="bad value for "
                       "evolution.stability_window"):
        build_problem(load_config(cfg))
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "evolution.stability_window" in capsys.readouterr().err


DELAY_CONFIG = """
[problem]
variant = delay_parabolic
window = -10 45
grid_step = 0.02

[nonlinearity]
family = sinusoid_affine
sin_amp = 0.5
state_coeff = 0.1

[evolution]
family = scalar_constant
value = -2.0
delay = 1.0

[numeric]
rho = 2.0
"""


@pytest.mark.parametrize("text, held", [
    (EVOLUTION_CONFIG.replace("window = 2 10", "window = 0 10"),
     "evolution family"),
    (RESOLVENT_CONFIG, "resolvent"),
    (DELAY_CONFIG, "evolution family")],
    ids=["evolution_nonlocal", "resolvent_nonlocal", "delay_parabolic"])
def test_family_of_other_dimension_exit_one(tmp_path, capsys, text, held):
    # the built-in families and the configured resolvent are scalar: with
    # dim = 2, evolution_nonlocal solved on the first component alone and
    # the other two failed with numpy's matmul and reshape errors
    good = write_config(tmp_path, text, name="one.ini")
    assert main(["certify", "--config", str(good), "--out", str(tmp_path)]) == 0
    cfg = write_config(tmp_path, text.replace("[problem]\n",
                                              "[problem]\ndim = 2\n"))
    reason = f"the {held} has dimension 1, the problem has dim = 2"
    with pytest.raises(ConfigError, match=reason):
        build_problem(load_config(cfg))
    for command in ("certify", "solve"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert reason in capsys.readouterr().err
        assert not (out / "solution.csv").exists()


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
    rep1, _ = _diagnose_path(cfgobj, spec, fresh)
    rep2, _ = _diagnose_path(cfgobj, spec, reread)
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


def test_diagnose_failed_hypotheses_exit_two(tmp_path, capsys):
    # L_f = 0.9 and the delayed modulus integral 0.25/2 give rho = 1.025:
    # the recurrence-transfer hypotheses fail, a certified fail as in certify
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    bad = write_config(tmp_path, ORACLE_CONFIG.replace(
        "sin_amp = 1.0", "sin_amp = 1.0\nstate_coeff = 0.9"), name="bad.ini")
    code = main(["diagnose", str(tmp_path / "solution.csv"),
                 "--config", str(bad), "--out", str(tmp_path / "diag")])
    assert code == 2
    assert "rho = 1.025" in capsys.readouterr().err
    assert not (tmp_path / "diag" / "diagnostic.txt").exists()


def test_diagnose_bad_csv_exit_one(tmp_path):
    cfg = write_config(tmp_path)
    (tmp_path / "junk.csv").write_text("not,a,path\n1,2,3\n")
    code = main(["diagnose", str(tmp_path / "junk.csv"),
                 "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1


def test_diagnose_unfit_shift_plan_names_its_keys(tmp_path, capsys):
    # eight shifts of 2 pi with probes on [-3, 3] (the default plan) need the
    # path on [-46.98, 53.27]; the oracle config's path covers [-40, 40]
    from picardcert.paths import SampledPath, write_csv
    cfg = write_config(tmp_path, ORACLE_CONFIG.replace("shift_count = 5",
                                                       "shift_count = 8"))
    grid = np.arange(-40.0, 40.0 + 0.01, 0.02)
    write_csv(SampledPath(grid, np.sin(grid)), tmp_path / "full.csv")
    assert main(["diagnose", str(tmp_path / "full.csv"), "--config",
                 str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "window too small" in err and "[-46.9823, 53.2655]" in err
    for key in ("[diagnose] probe_window", "shift_step", "shift_count"):
        assert key in err
    assert not (tmp_path / "diagnostic.txt").exists()


HALF_LINE_SPLIT = Path(__file__).resolve().parents[1] / "perfbench" \
    / "configs" / "half_line_split.ini"


def test_diagnose_tests_the_recurrent_part_of_a_half_line_path(tmp_path,
                                                               capsys):
    # the default plan reads times down to -47, which the path on [0, 40]
    # does not cover; it reads the split's recurrent part, which is defined
    # on the whole line
    from picardcert.diagnostics import aaa_split_estimate
    assert main(["solve", "--config", str(HALF_LINE_SPLIT), "--out",
                 str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["diagnose", str(tmp_path / "solution.csv"), "--config",
                 str(HALF_LINE_SPLIT), "--out", str(tmp_path / "diag")]) == 0
    lines = (tmp_path / "diag" / "diagnostic.txt").read_text().splitlines()
    assert "verdict: consistent" in lines[1]
    assert "shifts: 8 offered, 8 kept by the recurrence filter" in lines
    assert ("note: compact-range side: consistent; double-limit side: "
            "consistent; agreement: yes") in lines
    path = read_csv(tmp_path / "solution.csv", domain_kind="half_line",
                    tail_policy="constant")
    _, resid, fit = aaa_split_estimate(path, split_time=20.0)
    assert resid <= 1e-7
    assert lines[-4:] == fit + [f"split remainder: {resid:.6g}"]


def test_diagnose_half_line_path_whose_remainder_has_not_vanished(tmp_path):
    # log(1 + t) has no recurrent part: the split leaves a remainder of 0.37
    # beyond t = 20, and the sup grows from log 21 on [0, 20] to log 41
    from picardcert.paths import SampledPath, write_csv
    grid = np.arange(0.0, 40.0 + 0.01, 0.02)
    write_csv(SampledPath(grid, np.log1p(grid)), tmp_path / "log.csv")
    assert main(["diagnose", str(tmp_path / "log.csv"), "--config",
                 str(HALF_LINE_SPLIT), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "diagnostic.txt").read_text()
    assert "verdict: inconsistent" in text
    assert ("reason: split remainder above tol: the vanishing part has not "
            "vanished") in text
    assert ("note: compact-range side: inconsistent; double-limit side: "
            "inconsistent; agreement: yes") in text
    assert text.splitlines()[-1].startswith("split remainder: 0.37")


# shift plan of a path on [0, 40]: probes at 16..18 shifted back by up to
# 4 * 4 = 16 and forward by 5 * 4 = 20
HALF_LINE_DIAGNOSE = """
[diagnose]
probe_window = 16 18
shift_step = 4
shift_count = 5
split_time = 20
"""


def test_diagnose_splits_a_half_line_path(tmp_path, capsys):
    from picardcert.diagnostics import aaa_split_estimate
    text = HALF_LINE_CONFIG.replace("window = 2 12", "window = 0 40")
    cfg = write_config(tmp_path, text + HALF_LINE_DIAGNOSE)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["diagnose", str(tmp_path / "solution.csv"), "--config",
                 str(cfg), "--out", str(tmp_path / "diag")]) == 0
    lines = (tmp_path / "diag" / "diagnostic.txt").read_text().splitlines()
    path = read_csv(tmp_path / "solution.csv", domain_kind="half_line",
                    tail_policy="constant")
    _, resid, fit = aaa_split_estimate(path, split_time=20.0)
    assert lines[-4:] == fit + [f"split remainder: {resid:.6g}"]
    assert lines[-4].startswith("fitted frequencies: 1")
    assert capsys.readouterr().out.splitlines() == lines
    # without the key the split is at half the path's end, t = 20
    plain = write_config(tmp_path, text + HALF_LINE_DIAGNOSE.replace(
        "split_time = 20", ""), name="plain.ini")
    assert main(["diagnose", str(tmp_path / "solution.csv"), "--config",
                 str(plain), "--out", str(tmp_path / "plain")]) == 0
    plain_lines = (tmp_path / "plain" / "diagnostic.txt").read_text().splitlines()
    assert plain_lines == lines


def test_diagnose_refuses_a_split_time_on_a_full_line_path(tmp_path, capsys):
    from argparse import Namespace
    from picardcert.cli import cmd_diagnose
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    split = write_config(tmp_path, ORACLE_CONFIG + "split_time = 20\n",
                         name="split.ini")
    with pytest.raises(ConfigError, match="advanced_delayed"):
        cmd_diagnose(Namespace(path_csv=str(tmp_path / "solution.csv"),
                               config=str(split), out=None, tol=None))
    assert main(["diagnose", str(tmp_path / "solution.csv"), "--config",
                 str(split), "--out", str(tmp_path / "diag")]) == 1
    err = capsys.readouterr().err
    assert "diagnose.split_time" in err and "advanced_delayed" in err
    assert not (tmp_path / "diag" / "diagnostic.txt").exists()


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


def test_demo_heat_stops_on_a_failed_audit(tmp_path, monkeypatch, capsys):
    # the certificate reads the constants the audits check: a failed audit
    # leaves its conditions and decay table, and no certificate or solution
    from dataclasses import replace
    from picardcert import cli
    real = cli.heat_demo_assemble

    def refuted(*args, **kwargs):
        spec, rho, report = real(*args, **kwargs)
        return spec, rho, replace(report, decay_passed=False)

    monkeypatch.setattr(cli, "heat_demo_assemble", refuted)
    assert main(["demo", "heat", "--out", str(tmp_path)]) == 2
    assert "audit failed: resolvent decay bound" in capsys.readouterr().err
    assert "sampled t: NO" in (tmp_path / "heat_conditions.txt").read_text()
    assert (tmp_path / "heat_resolvent_decay.csv").exists()
    assert not (tmp_path / "heat_certificate.txt").exists()
    assert not (tmp_path / "heat_solution.csv").exists()


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
    # the demo's family reads nan, so the first stability sample fails to
    # propagate: a named error, no traceback
    from picardcert import cli, evolution
    monkeypatch.setattr(cli, "scalar_family", lambda a_of_t, label: (
        evolution.scalar_family(lambda t: np.nan, label=label)))
    assert main(["demo", "delay", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "propagation failed" in err
    assert "Traceback" not in err


@pytest.mark.slow
def test_demo_delay(tmp_path):
    code = main(["demo", "delay", "--out", str(tmp_path)])
    assert code == 0
    for name in ("delay_certificate.txt", "delay_solution.csv",
                 "delay_solver_report.txt", "delay_diagnostic.txt"):
        assert (tmp_path / name).exists(), name
    sol = read_csv(tmp_path / "delay_solution.csv")
    assert np.max(np.abs(sol.values)) < 2.0  # stays inside the certified ball
    text = (tmp_path / "delay_diagnostic.txt").read_text()
    assert text.splitlines()[1].startswith("verdict: consistent")
    assert "sup norm on [-10, 45]: 0.356144" in text


@pytest.mark.parametrize("text, key", [
    (DELAY_CONFIG.replace("family = scalar_constant\nvalue = -2.0",
                          "family = scalar_two_plus_sin\nvalue = 7.0"),
     "evolution.value is not read by family 'scalar_two_plus_sin'"),
    (EVOLUTION_CONFIG.replace("window = 2 10", "window = 0 10")
     + "delay = 1.0\n",
     "evolution.delay is read by delay_parabolic only, not by "
     "evolution_nonlocal")], ids=["value", "delay"])
def test_evolution_key_the_problem_does_not_read_exit_one(tmp_path, capsys,
                                                          text, key):
    # both were dropped without a word: scalar_two_plus_sin with value = 7
    # certified as if the value were absent, and so did a delay outside
    # delay_parabolic
    cfg = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=key):
        build_problem(load_config(cfg))
    assert main(["certify", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


UNREAD_EVOLUTION = """
[evolution]
family = scalar_constant
value = 3.0
stability_m = 2
"""


@pytest.mark.parametrize("text, variant", [
    (ORACLE_CONFIG.replace("variant = advanced_delayed",
                           "variant = delayed_only"), "delayed_only"),
    (ORACLE_CONFIG, "advanced_delayed"),
    (RESOLVENT_CONFIG, "resolvent_nonlocal")],
    ids=["delayed_only", "advanced_delayed", "resolvent_nonlocal"])
def test_evolution_section_the_variant_does_not_read_exit_one(
        tmp_path, capsys, text, variant):
    # a growing family (value = 3) in a delayed_only config was ignored
    # whole, and th24 certified pass
    cfg = write_config(tmp_path, text + UNREAD_EVOLUTION)
    reason = ("[evolution] is read by evolution_nonlocal and delay_parabolic "
              f"only, not by {variant}")
    with pytest.raises(ConfigError, match=re.escape(reason)):
        build_problem(load_config(cfg))
    assert main(["certify", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 1
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_memory_family_is_an_unknown_key_exit_one(tmp_path, capsys):
    # the memory is always the exponential one built from coeff and rate; a
    # family named there was parsed and never read
    cfg = write_config(tmp_path, RESOLVENT_CONFIG.replace(
        "[memory]\n", "[memory]\nfamily = no_such_family\n"))
    with pytest.raises(ConfigError, match="unknown key 'family' in section "
                       r"\[memory\]"):
        load_config(cfg)
    assert main(["certify", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 1
    assert "'family'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
