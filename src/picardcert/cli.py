"""Batch front door: parse problem configs, run the certify/solve/diagnose
pipelines and the two built-in demos, and write reports and CSV artifacts.

Configs are line-oriented text with [section] headers and key = value pairs.
Kernels, nonlinearities and propagator families are chosen from named
built-in families with numeric parameters, so configs stay portable; unknown
sections or keys are rejected.  Exit codes: 0 pass, 1 error, 2 certified-fail.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import problem as pb
from .certify import CertificationError, certify
from .diagnostics import (aaa_split_estimate, bochner_test,
                          bohr_neugebauer_verdict, range_compactness_trend)
from .evolution import (PropagationError, build_resolvent, certify_stability,
                        decay_violations, delay_demo_solve, exponential_causal,
                        exponential_memory, heat_demo_assemble, scalar_family,
                        stability_sample_pairs)
from .kernels import (KERNEL_FAMILIES, SPLIT_KERNEL_FAMILIES)
from .paths import HALF_LINE, SampledPath, TimeWarp, read_csv, write_csv
from .problem import (NONLINEARITY_FAMILIES, NONLOCAL_FAMILIES, ProblemError,
                      ProblemSpec, saturating_lipschitz)
from .solver import (CertificationRequired, ConvergenceError,
                     NonContractionError, picard_solve)

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_CERTIFIED_FAIL = 2


class ConfigError(ValueError):
    pass


# schema: section -> {key: parser}; sections matched by exact name or prefix
_FLOAT = float
_INT = int
_STR = str


def _floats(s):
    return tuple(float(x) for x in s.split())


_SCHEMA = {
    "problem": {"variant": _STR, "dim": _INT, "window": _floats,
                "grid_step": _FLOAT, "state_bound": _FLOAT, "label": _STR},
    "nonlinearity": {"family": _STR, "sin_amp": _FLOAT, "cos_amp": _FLOAT,
                     "const": _FLOAT, "state_coeff": _FLOAT,
                     "warp_state_coeff": _FLOAT, "omega": _FLOAT,
                     "curve_l0": _FLOAT, "curve_l1": _FLOAT,
                     "curve_scale": _FLOAT},
    "kernel.": {"family": _STR, "rate": _FLOAT, "state_coeff": _FLOAT,
                "warp_state_coeff": _FLOAT, "const": _FLOAT,
                "mod_amp": _FLOAT, "mod_omega": _FLOAT},
    "split.": {"family": _STR, "rate": _FLOAT, "aa_const": _FLOAT,
               "aa_state_coeff": _FLOAT, "aa_warp_state_coeff": _FLOAT,
               "erg_state_coeff": _FLOAT, "erg_warp_state_coeff": _FLOAT,
               "erg_const": _FLOAT, "erg_decay": _FLOAT},
    "warp.": {"kind": _STR, "tau": _FLOAT},
    "evolution": {"family": _STR, "value": _FLOAT, "delay": _FLOAT,
                  "stability_m": _FLOAT, "stability_delta": _FLOAT,
                  "stability_window": _floats},
    "nonlocal": {"family": _STR, "coeff": _FLOAT, "t_probe": _FLOAT,
                 "offset": _FLOAT},
    "memory": {"family": _STR, "coeff": _FLOAT, "rate": _FLOAT},
    "resolvent": {"a_value": _FLOAT, "horizon": _FLOAT, "grid_step": _FLOAT,
                  "decay_m": _FLOAT, "decay_gamma": _FLOAT, "decay_q": _FLOAT},
    "numeric": {"quad_tol": _FLOAT, "const_tol": _FLOAT, "solver_tol": _FLOAT,
                "rho": _FLOAT, "max_iter": _INT},
    "certify": {"mode": _STR, "theorem": _STR},
    "diagnose": {"eps": _FLOAT, "windows": _floats, "shift_step": _FLOAT,
                 "shift_count": _INT, "probe_window": _floats,
                 "probe_count": _INT, "tol": _FLOAT, "split_time": _FLOAT},
    "output": {"certificate": _STR, "solution": _STR, "report": _STR,
               "diagnostic": _STR, "residuals": _STR},
}

_EVOLUTION_FAMILIES = {
    "scalar_constant": lambda value=-1.0, **kw: scalar_family(
        lambda t: value, label="scalar_constant"),
    "scalar_two_plus_sin": lambda **kw: scalar_family(
        lambda t: -(2.0 + np.sin(t)), label="scalar_two_plus_sin"),
}


@dataclass
class RunConfig:
    """Parsed and validated config: sections of typed key/value maps."""

    sections: dict = field(default_factory=dict)

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)

    def section(self, name):
        return self.sections.get(name, {})


def _schema_for(section):
    if section in _SCHEMA:
        return _SCHEMA[section]
    for prefix, schema in _SCHEMA.items():
        if prefix.endswith(".") and section.startswith(prefix):
            return schema
    return None


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    read = parser.read(str(path))
    if not read:
        raise ConfigError(f"config file not found: {path}")
    sections = {}
    for section in parser.sections():
        schema = _schema_for(section)
        if schema is None:
            raise ConfigError(f"unknown config section [{section}]")
        out = {}
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                out[key] = schema[key](raw)
                # nan or inf (say, in a generator) hangs the ODE integrator
                if schema[key] in (_FLOAT, _floats) \
                        and not np.all(np.isfinite(out[key])):
                    raise ValueError(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
        sections[section] = out
    cfg = RunConfig(sections)
    for key in ("quad_tol", "const_tol", "solver_tol", "rho"):
        val = cfg.get("numeric", key)
        if val is not None and val <= 0:
            raise ConfigError(f"numeric.{key} must be positive")
    return cfg


# ---------------------------------------------------------------------------
# problem assembly from a config


def _build_nonlinearity(cfg, dim):
    sec = dict(cfg.section("nonlinearity"))
    family = sec.pop("family", "zero")
    if family not in NONLINEARITY_FAMILIES:
        raise ConfigError(f"unknown nonlinearity family {family!r}")
    curve = None
    if "curve_l0" in sec:
        curve = saturating_lipschitz(sec.pop("curve_l0"),
                                     sec.pop("curve_l1", 0.0),
                                     sec.pop("curve_scale", 1.0))
    f = NONLINEARITY_FAMILIES[family](dim=dim, **sec)
    if curve is not None:
        f = pb.Nonlinearity(f.func, lipschitz=f.lipschitz,
                            lipschitz_curve=curve, dim=dim, label=f.label)
    return f


def _build_kernel(cfg, which, dim, state_bound):
    sec = dict(cfg.section(f"kernel.{which}"))
    if not sec:
        return None
    family = sec.pop("family", "zero")
    if family not in KERNEL_FAMILIES:
        raise ConfigError(f"unknown kernel family {family!r}")
    if family == "zero":
        return KERNEL_FAMILIES["zero"](dim=dim)
    kw = {"dim": dim, "state_bound": state_bound}
    if "state_coeff" in sec:
        kw["cx"] = sec.pop("state_coeff")
    if "warp_state_coeff" in sec:
        kw["cy"] = sec.pop("warp_state_coeff")
    kw.update(sec)
    return KERNEL_FAMILIES[family](**kw)


def _build_split(cfg, which, dim, state_bound):
    sec = dict(cfg.section(f"split.{which}"))
    if not sec:
        return None
    family = sec.pop("family", "split_exponential")
    if family not in SPLIT_KERNEL_FAMILIES:
        raise ConfigError(f"unknown split kernel family {family!r}")
    kw = {"dim": dim, "state_bound": state_bound}
    rename = {"aa_state_coeff": "aa_cx", "aa_warp_state_coeff": "aa_cy",
              "erg_state_coeff": "erg_cx", "erg_warp_state_coeff": "erg_cy"}
    for src, dst in rename.items():
        if src in sec:
            kw[dst] = sec.pop(src)
    kw.update(sec)
    return SPLIT_KERNEL_FAMILIES[family](**kw)


def _build_warps(cfg):
    warps = {}
    for name in ("a0", "a1", "a2"):
        sec = cfg.section(f"warp.{name}")
        if not sec:
            continue
        kind = sec.get("kind", "identity")
        if kind == "identity":
            warps[name] = TimeWarp("identity")
        elif kind == "shift":
            warps[name] = TimeWarp("shift", tau=sec.get("tau", 0.0))
        else:
            raise ConfigError(f"unknown warp kind {kind!r} for {name}")
    return warps


def _build_evolution(cfg):
    sec = cfg.section("evolution")
    if not sec:
        return None, None
    family = sec.get("family", "scalar_constant")
    if family not in _EVOLUTION_FAMILIES:
        raise ConfigError(f"unknown evolution family {family!r}")
    fam = _EVOLUTION_FAMILIES[family](value=sec.get("value", -1.0))
    window = sec.get("stability_window", (-15.0, 15.0))
    certify_stability(fam, stability_sample_pairs(window, n=30, max_sep=5.0),
                      M=sec.get("stability_m", 1.0),
                      delta=sec.get("stability_delta", 1.0))
    return fam, sec.get("delay")


def _build_nonlocal(cfg, dim):
    sec = dict(cfg.section("nonlocal"))
    if not sec:
        return pb.zero_nonlocal(dim)
    family = sec.pop("family", "zero")
    if family not in NONLOCAL_FAMILIES:
        raise ConfigError(f"unknown nonlocal family {family!r}")
    return NONLOCAL_FAMILIES[family](dim=dim, **sec)


def build_problem(cfg: RunConfig) -> ProblemSpec:
    prob = cfg.section("problem")
    variant = prob.get("variant")
    if variant not in pb.VARIANTS:
        raise ConfigError(f"unknown problem variant {variant!r}")
    dim = prob.get("dim", 1)
    window = prob.get("window", (-20.0, 20.0))
    if len(window) != 2:
        raise ConfigError("problem.window needs two numbers")
    state_bound = prob.get("state_bound", 3.0)
    num = cfg.section("numeric")
    kwargs = dict(
        variant=variant, dim=dim, report_window=tuple(window),
        grid_step=prob.get("grid_step", 0.05),
        quad_tol=num.get("quad_tol", 1e-8),
        const_tol=num.get("const_tol", 1e-10),
        label=prob.get("label", ""),
        f=_build_nonlinearity(cfg, dim), warps=_build_warps(cfg))

    if variant in (pb.ADVANCED_DELAYED, pb.DELAYED_ONLY):
        kwargs["kernel_delayed"] = _build_kernel(cfg, "delayed", dim, state_bound)
        if variant == pb.ADVANCED_DELAYED:
            kwargs["kernel_advanced"] = _build_kernel(cfg, "advanced", dim,
                                                      state_bound)
    elif variant == pb.HALF_LINE:
        kwargs["split_delayed"] = _build_split(cfg, "delayed", dim, state_bound)
        kwargs["split_advanced"] = _build_split(cfg, "advanced", dim,
                                                state_bound)
    elif variant in (pb.EVOLUTION_NONLOCAL, pb.DELAY_PARABOLIC):
        fam, delay = _build_evolution(cfg)
        if fam is None:
            raise ConfigError(f"{variant} needs an [evolution] section")
        kwargs["evolution"] = fam
        if variant == pb.DELAY_PARABOLIC:
            kwargs["delay"] = delay
        else:
            kwargs["u0"] = np.zeros(dim)
            kwargs["nonlocal_map"] = _build_nonlocal(cfg, dim)
            mem = cfg.section("memory")
            if mem:
                kwargs["memory_kernel"] = exponential_causal(
                    mem.get("coeff", 0.0) * np.eye(dim),
                    mem.get("rate", 1.0), dim)
    elif variant == pb.RESOLVENT_NONLOCAL:
        sec = cfg.section("resolvent")
        if not sec:
            raise ConfigError("resolvent_nonlocal needs a [resolvent] section")
        mem_sec = cfg.section("memory")
        mem = exponential_memory(
            [(np.array([[mem_sec.get("coeff", 0.0)]]),
              mem_sec.get("rate", 1.0))], dim=dim)
        grid = np.arange(0.0, sec.get("horizon", 10.0) + sec.get("grid_step", 0.01) / 2,
                         sec.get("grid_step", 0.01))
        R = build_resolvent(np.array([[sec.get("a_value", -1.0)]]), mem, grid,
                            tol=max(num.get("quad_tol", 1e-8), 1e-9))
        R.decay = (sec.get("decay_m", 1.0),
                   sec.get("decay_gamma", 1.0), sec.get("decay_q", 1.0))
        over = decay_violations(R.norm_table())
        if over.size:
            t, norm, bound = over[0]
            raise ConfigError(f"[resolvent] decay does not hold: |R({t:g})| = "
                              f"{norm:.6g} > M exp(-gamma t/q) = {bound:.6g}, first "
                              f"of {len(over)} violations at sampled times")
        kwargs["resolvent"] = R
        kwargs["u0"] = np.zeros(dim)
        kwargs["nonlocal_map"] = _build_nonlocal(cfg, dim)
    try:
        return ProblemSpec(**kwargs)
    except ProblemError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# commands


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")


def _tol_option(args, default):
    """--tol, or default without it.  A value that is not finite and positive
    is refused here, not by an argparse type, whose exit 2 would read as a
    certified fail."""
    if args.tol is None:
        return default
    if not (np.isfinite(args.tol) and args.tol > 0.0):
        raise ConfigError(f"--tol must be finite and positive (got {args.tol!r})")
    return args.tol


def cmd_certify(args) -> int:
    slack = _tol_option(args, 1e-9)
    cfg = load_config(args.config)
    spec = build_problem(cfg)
    rho = cfg.get("numeric", "rho", 1.0)
    mode = cfg.get("certify", "mode", "ball")
    theorem = cfg.get("certify", "theorem")
    cert = certify(spec, rho=rho, mode=mode, theorem=theorem,
                   slack_margin=slack)
    out = _out_dir(args)
    name = cfg.get("output", "certificate", "certificate.txt")
    _write(out / name, cert.to_text())
    print(cert.to_text(), end="")
    return EXIT_PASS if cert.passed else EXIT_CERTIFIED_FAIL


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    num = cfg.section("numeric")
    tol = _tol_option(args, num.get("solver_tol", 1e-7))
    spec = build_problem(cfg)
    rho = num.get("rho", 1.0)
    cert = certify(spec, rho=rho, mode=cfg.get("certify", "mode", "ball"),
                   theorem=cfg.get("certify", "theorem"))
    out = _out_dir(args)
    _write(out / cfg.get("output", "certificate", "certificate.txt"),
           cert.to_text())
    if not cert.passed and not args.allow_uncertified:
        print(f"certificate failed ({cert.violated}); pass --allow-uncertified "
              "to iterate anyway", file=sys.stderr)
        return EXIT_CERTIFIED_FAIL
    report = picard_solve(spec, cert, tol=tol,
                          max_iter=num.get("max_iter", 200),
                          allow_uncertified=args.allow_uncertified)
    write_csv(report.solution, out / cfg.get("output", "solution", "solution.csv"))
    _write(out / cfg.get("output", "report", "solver_report.txt"),
           report.to_text())
    print(report.to_text(), end="")
    return EXIT_PASS


def _diagnose_path(cfg, spec, path, tol_override=None):
    dia = cfg.section("diagnose")
    eps = dia.get("eps", 0.01)
    tol = tol_override if tol_override is not None else dia.get("tol", 1e-3)
    step = dia.get("shift_step", 2.0 * np.pi)
    count = dia.get("shift_count", 8)
    shifts = step * np.arange(1, count + 1)
    pw = dia.get("probe_window", (-3.0, 3.0))
    probe = np.linspace(pw[0], pw[1], dia.get("probe_count", 25))
    if path.domain_kind == HALF_LINE:
        windows = [(0.0, w) for w in dia.get("windows", (path.t_max / 2,
                                                         path.t_max))]
    else:
        windows = [(-w, w) for w in dia.get("windows", (path.t_max / 2,
                                                        path.t_max))]
    if spec is not None and spec.variant in (pb.ADVANCED_DELAYED,
                                             pb.DELAYED_ONLY):
        return bohr_neugebauer_verdict(spec, path, shifts, probe, tol, eps,
                                       windows)
    return _merge_sides(bochner_test(path, shifts, probe, tol),
                        range_compactness_trend(path, eps, windows))


def _merge_sides(recur, compact):
    """Fold the compact-range side into recur; a disagreement is indeterminate."""
    recur.net_sizes = compact.net_sizes
    recur.notes.append(f"compact-range side: {compact.verdict}")
    if compact.verdict != recur.verdict:
        recur.verdict = "indeterminate"
    return recur


def cmd_diagnose(args) -> int:
    tol = _tol_option(args, None)
    cfg = load_config(args.config)
    path = read_csv(args.path_csv,
                    tail_policy="constant",
                    domain_kind=(HALF_LINE if cfg.get("problem", "variant")
                                 in (pb.HALF_LINE, pb.EVOLUTION_NONLOCAL,
                                     pb.RESOLVENT_NONLOCAL) else "full_line"))
    spec = None
    if cfg.get("problem", "variant") in (pb.ADVANCED_DELAYED, pb.DELAYED_ONLY):
        spec = build_problem(cfg)
    report = _diagnose_path(cfg, spec, path, tol_override=tol)
    out = _out_dir(args)
    _write(out / cfg.get("output", "diagnostic", "diagnostic.txt"),
           report.to_text())
    _write(out / cfg.get("output", "residuals", "residuals.csv"),
           report.residual_csv_text())
    print(report.to_text(), end="")
    return EXIT_PASS


def cmd_demo(args) -> int:
    out = _out_dir(args)
    if args.name == "heat":
        spec, rho, heat_rep = heat_demo_assemble()
        cert = certify(spec, rho=rho)
        _write(out / "heat_certificate.txt", cert.to_text())
        _write(out / "heat_conditions.txt", heat_rep.to_text())
        table = heat_rep.decay_table
        rows = ["t,resolvent_norm,decay_bound"]
        rows += [",".join(repr(float(x)) for x in r) for r in table]
        _write(out / "heat_resolvent_decay.csv", "\n".join(rows) + "\n")
        if not cert.passed:
            return EXIT_CERTIFIED_FAIL
        report = picard_solve(spec, cert, tol=1e-8)
        write_csv(report.solution, out / "heat_solution.csv")
        _write(out / "heat_solver_report.txt", report.to_text())
        n = spec.dim // 2
        mid = (n - 1) // 2
        probes = SampledPath(report.solution.grid,
                             report.solution.values[:, [mid, n + mid]],
                             domain_kind=HALF_LINE, tail_policy="constant")
        write_csv(probes, out / "heat_probes.csv")
        dec, resid, fit = aaa_split_estimate(probes, split_time=probes.t_max / 2)
        lines = fit.lines + [f"split remainder: {resid:.6g}"]
        _write(out / "heat_diagnostic.txt", "\n".join(lines) + "\n")
        print(f"heat demo artifacts written to {out}")
        return EXIT_PASS
    if args.name == "delay":
        fam = scalar_family(lambda t: -(2.0 + np.sin(t)),
                            label="scalar_two_plus_sin")
        certify_stability(fam, stability_sample_pairs((-15.0, 15.0), n=30,
                                                      max_sep=5.0),
                          M=1.0, delta=1.0)
        f = pb.sinusoid_affine(sin_amp=0.5, state_coeff=0.1)
        try:
            report, cert = delay_demo_solve(fam, f, tau=1.0, rho=2.0, tol=1e-8,
                                            report_window=(-10.0, 45.0),
                                            grid_step=0.02)
        except CertificationRequired as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_CERTIFIED_FAIL
        _write(out / "delay_certificate.txt", cert.to_text())
        write_csv(report.solution, out / "delay_solution.csv")
        _write(out / "delay_solver_report.txt", report.to_text())
        shifts = 2.0 * np.pi * np.arange(1, 6)
        probe = np.linspace(-3.0, 3.0, 25)
        recur = _merge_sides(
            bochner_test(report.solution_work, shifts, probe, tol=1e-2),
            range_compactness_trend(report.solution, 0.01,
                                    [(-10.0, 25.0), (-10.0, 45.0)]))
        _write(out / "delay_diagnostic.txt", recur.to_text())
        _write(out / "delay_residuals.csv", recur.residual_csv_text())
        print(f"delay demo artifacts written to {out}")
        return EXIT_PASS
    print(f"unknown demo {args.name!r}", file=sys.stderr)
    return EXIT_ERROR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="picardcert",
        description="certified fixed-point solving and recurrence diagnostics "
                    "for integral equations of advanced/delayed type")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="check a theorem's hypotheses")
    p_cert.add_argument("--config", required=True)
    p_cert.add_argument("--out", default=None)
    p_cert.add_argument("--tol", type=float, default=None)
    p_cert.set_defaults(func=cmd_certify)

    p_solve = sub.add_parser("solve", help="certify, then iterate to the fixed point")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--allow-uncertified", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_diag = sub.add_parser("diagnose", help="recurrence diagnostics on a path CSV")
    p_diag.add_argument("path_csv")
    p_diag.add_argument("--config", required=True)
    p_diag.add_argument("--out", default=None)
    p_diag.add_argument("--tol", type=float, default=None)
    p_diag.set_defaults(func=cmd_diagnose)

    p_demo = sub.add_parser("demo", help="run a built-in application demo")
    p_demo.add_argument("name", choices=("heat", "delay"))
    p_demo.add_argument("--out", default=None)
    p_demo.set_defaults(func=cmd_demo)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ProblemError, CertificationError, ConvergenceError,
            NonContractionError, PropagationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
