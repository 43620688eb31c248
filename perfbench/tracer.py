"""Span tracing of the picardcert layers from outside the library.

`Tracer.install()` replaces each traced function with a wrapper in every
namespace its callers look it up in: module globals (`cli` binds `certify`
and `picard_solve` by name, `certify` and `solver` each bind
`adaptive_integral`, `solver` and `evolution` each bind `solve_ivp`) and class
dicts (`ResolventOperator.__call__` and `SampledPath.__call__` are aliases of
`eval`/`evaluate` captured at class creation).  Modules are reached through
`sys.modules`, because `picardcert.certify` as a package attribute is the
`certify` function, not the module.

Each wrapper records a span [name, start, end, parent, extra] in memory;
`summarise()` turns the spans of one repetition into the per-layer metrics.
"""

from __future__ import annotations

import sys
import time

import numpy as np

LAYERS = ("cli", "evolution", "certify", "quadrature", "solver", "paths",
          "diagnostics")


def _points(args, kwargs, out):
    return int(np.size(args[1] if len(args) > 1 else kwargs["t"]))


def _nfev(args, kwargs, out):
    return int(out.nfev)


# (module, qualified name, layer, extra): the layer is the module that owns
# the work; `extra` returns a work count from the call
TARGETS = (
    ("cli", "load_config", "cli", None),
    ("cli", "build_problem", "cli", None),
    ("evolution", "certify_stability", "evolution", None),
    ("evolution", "EvolutionFamily.propagate_matrix", "evolution", None),
    ("evolution", "build_resolvent", "evolution", None),
    ("evolution", "resolvent_residual", "evolution", None),
    ("evolution", "ResolventOperator.eval", "evolution", _points),
    ("evolution", "heat_demo_assemble", "evolution", None),
    ("evolution", "delay_demo_solve", "evolution", None),
    ("certify", "certify", "certify", None),
    ("certify", "certify_evolution", "certify", None),
    ("certify", "compute_envelope_constants", "certify", None),
    ("certify", "compute_base_point", "certify", None),
    ("certify", "certify_bohr_neugebauer_hypotheses", "certify", None),
    ("quadrature", "adaptive_integral", "quadrature", None),
    ("quadrature", "envelope_constant", "quadrature", None),
    ("solver", "picard_solve", "solver", None),
    ("solver", "apply_operator", "solver", None),
    ("paths", "SampledPath.evaluate", "paths", _points),
    ("diagnostics", "bohr_neugebauer_verdict", "diagnostics", None),
    ("diagnostics", "interior_residual", "diagnostics", None),
    ("diagnostics", "bochner_test", "diagnostics", None),
    ("diagnostics", "range_compactness_trend", "diagnostics", None),
    ("diagnostics", "aaa_split_estimate", "diagnostics", None),
)

# a third-party function wrapped per namespace: the span name and layer are
# those of the binding module
PER_NAMESPACE = (("solve_ivp", ("solver", "evolution"), _nfev),)

# bindings that must exist after install(); a by-name import the scan
# missed would otherwise leave a caller untraced without any sign
REQUIRED_BINDINGS = (
    ("cli", "certify"), ("cli", "picard_solve"), ("cli", "build_problem"),
    ("cli", "certify_stability"), ("cli", "heat_demo_assemble"),
    ("cli", "delay_demo_solve"), ("cli", "aaa_split_estimate"),
    ("cli", "bochner_test"), ("cli", "range_compactness_trend"),
    ("cli", "bohr_neugebauer_verdict"),
    ("certify", "adaptive_integral"), ("solver", "adaptive_integral"),
    ("certify", "envelope_constant"), ("certify", "certify"),
    ("solver", "solve_ivp"), ("evolution", "solve_ivp"),
    ("evolution", "ResolventOperator.__call__"),
    ("paths", "SampledPath.__call__"),
)

ROOT = "bench.workload"


def _module(name):
    return sys.modules[f"picardcert.{name}"]


class Tracer:
    def __init__(self):
        self.names = []        # span name per id
        self.layer_of = []     # layer per id (None for the root)
        self.spans = []        # [name_id, start, end, parent, extra]
        self.stack = [-1]
        self.patched = []      # (owner, attribute, original)

    def _name_id(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def wrap(self, name, layer, fn, extra=None):
        nid = self._name_id(name, layer)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [nid, 0.0, 0.0, stack[-1], 0]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[4] = extra(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every target in every picardcert namespace that binds it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "picardcert" or k.startswith("picardcert.")]
        for mod_name, qual, layer, extra in TARGETS:
            owner_name, _, attr = qual.rpartition(".")
            home = _module(mod_name)
            if owner_name:
                cls = getattr(home, owner_name)
                original = cls.__dict__[attr]
                wrapper = self.wrap(f"{mod_name}.{qual}", layer, original,
                                    extra)
                for key, val in list(cls.__dict__.items()):
                    if val is original:
                        self._patch(cls, key, wrapper)
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", layer, original, extra)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)
        for attr, homes, extra in PER_NAMESPACE:
            for mod_name in homes:
                mod = _module(mod_name)
                self._patch(mod, attr, self.wrap(f"{mod_name}.{attr}",
                                                 mod_name, getattr(mod, attr),
                                                 extra))
        done = {(owner, attr) for owner, attr, _ in self.patched}
        for mod_name, qual in REQUIRED_BINDINGS:
            owner_name, _, attr = qual.rpartition(".")
            owner = _module(mod_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            if (owner, attr) not in done:
                raise RuntimeError(f"tracer missed {mod_name}.{qual}")

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def root(self, fn):
        """Run fn() under the root span of the repetition."""
        return self.wrap(ROOT, None, fn)()

    def dump(self, path, rep_id):
        """Write the spans as tab-separated rows, times relative to the first
        span, tagged with the repetition id."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("rep\tspan\tparent\tname\tstart_s\tend_s\textra\n")
            for i, (nid, t0, t1, parent, extra) in enumerate(self.spans):
                fh.write(f"{rep_id}\t{i}\t{parent}\t{self.names[nid]}\t"
                         f"{t0 - t_ref:.9f}\t{t1 - t_ref:.9f}\t{extra}\n")

    # -- per-layer metrics --------------------------------------------------

    def summarise(self):
        """Per-layer metrics of the spans recorded so far.

        Inclusive times sum the spans of one name; `<layer>.self_s` is the
        time spans of the layer cover minus the time their child spans cover.
        Returns (times, counts, layers_seen).
        """
        ids = {nm: i for i, nm in enumerate(self.names)}
        n = len(self.spans)
        nid = np.array([s[0] for s in self.spans], dtype=int)
        dur = np.array([s[2] - s[1] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=int)
        extra = np.array([s[4] for s in self.spans], dtype=np.int64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        layer = np.array([self.layer_of[i] or "" for i in nid])

        def mask(span_name):
            return nid == ids.get(span_name, -1)

        def total(span_name, values=dur):
            return float(values[mask(span_name)].sum())

        def count(span_name):
            return int(mask(span_name).sum())

        # the operator applications a Picard loop makes are its sweeps, except
        # the last one, which is the residual sweep
        apply_id = ids.get("solver.apply_operator", -1)
        solve_id = ids.get("solver.picard_solve", -1)
        kind = np.zeros(n, dtype=int)          # 1 sweep, 2 residual
        last = {}
        for i in np.flatnonzero(nid == apply_id):
            p = parent[i]
            if p >= 0 and nid[p] == solve_id:
                kind[i] = 1
                last[p] = i
        kind[list(last.values())] = 2

        # context of each span, top-down (parents precede children)
        in_certify = np.zeros(n, dtype=bool)
        sweep_of = np.zeros(n, dtype=int)      # kind of the enclosing sweep
        is_certify = layer == "certify"
        for i in range(n):
            p = parent[i]
            if p >= 0:
                in_certify[i] = in_certify[p] or is_certify[p]
                sweep_of[i] = kind[p] or sweep_of[p]

        times = {
            "cli.assemble_s": total("cli.load_config") + total("cli.build_problem"),
            "evolution.stability_s": total("evolution.certify_stability"),
            "evolution.resolvent_build_s": total("evolution.build_resolvent"),
            "evolution.resolvent_residual_s": total("evolution.resolvent_residual"),
            "evolution.resolvent_eval_s": total("evolution.ResolventOperator.eval"),
            "certify.constants_s": total("certify.compute_envelope_constants"),
            "certify.base_point_s": total("certify.compute_base_point"),
            "solver.sweep_s": float(dur[kind == 1].sum()),
            "solver.residual_s": float(dur[kind == 2].sum()),
            "solver.ode_s": total("solver.solve_ivp"),
            "paths.evaluate_s": total("paths.SampledPath.evaluate"),
            "quadrature.adaptive_s": total("quadrature.adaptive_integral"),
            "diagnostics.hypotheses_s":
                total("certify.certify_bohr_neugebauer_hypotheses"),
            "diagnostics.residual_s": total("diagnostics.interior_residual"),
            "diagnostics.recurrence_s": total("diagnostics.bochner_test"),
            "diagnostics.compactness_s":
                total("diagnostics.range_compactness_trend"),
            "diagnostics.split_s": total("diagnostics.aaa_split_estimate"),
        }
        for lay in LAYERS:
            times[f"{lay}.self_s"] = float(own[layer == lay].sum())
        times["trace.root_s"] = total(ROOT)
        times["trace.unattributed_s"] = total(ROOT, own)

        sweeps = int((kind == 1).sum())
        reads = (mask("paths.SampledPath.evaluate")
                 | mask("evolution.ResolventOperator.eval")) & (sweep_of == 1)
        counts = {
            "evolution.propagate_matrix_calls":
                count("evolution.EvolutionFamily.propagate_matrix"),
            "evolution.ode_rhs_calls": int(total("evolution.solve_ivp", extra)),
            "evolution.resolvent_eval_calls":
                count("evolution.ResolventOperator.eval"),
            "evolution.resolvent_eval_points":
                int(total("evolution.ResolventOperator.eval", extra)),
            "quadrature.adaptive_calls": count("quadrature.adaptive_integral"),
            "certify.operator_applications":
                int((mask("solver.apply_operator") & in_certify).sum()),
            "solver.sweeps": sweeps,
            "solver.quad_nodes_per_sweep":
                int(extra[reads].sum()) // sweeps if sweeps else 0,
            "solver.ode_rhs_calls": int(total("solver.solve_ivp", extra)),
            "paths.evaluate_calls": count("paths.SampledPath.evaluate"),
            "paths.evaluate_points":
                int(total("paths.SampledPath.evaluate", extra)),
            "trace.spans": n,
        }
        seen = set(layer[dur > 0].tolist()) - {""}
        return times, counts, seen
