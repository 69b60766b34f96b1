"""Span tracing for the traced run, installed from outside the package.

``Tracer.install`` replaces the public functions and instance methods of
each layer with wrappers that record a span: name, start, end, parent span
and op id.  Spans stay in flat arrays in memory and are written out once,
at the end.  Self time is a span's duration minus the durations of its
direct children.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import gzip
import statistics
import time
from array import array
from collections import Counter, defaultdict

RATE_TABLE = ("chi", "Sigma", "Sigma_tilde", "Sigma_star", "Sigma_tilde_star",
              "Psi", "Psi_star")
VERIFY_CHECKS = ("check_ar", "check_family_ar", "check_Tm_ar", "check_chi_T_series",
                 "check_recursive_inequalities", "search_metastable", "check_mu",
                 "check_xu_lemma", "check_convex_afp", "check_variational")
GEOMETRY_CHECKERS = ("check_w_axioms", "check_cn", "check_uniform_convexity",
                     "check_quasilin_axioms", "run_all_geometry_checks")
FAMILIES = ("IdentityFamily", "ConstantFamily", "RotationFamily",
            "MetricProjectionFamily", "ProximalFamily", "ResolventFamily")

PER_LAYER = (
    ("geometry.comb.calls", "count"), ("geometry.dist.calls", "count"),
    ("geometry.comb.per_step", "count"), ("geometry.dist.per_step", "count"),
    ("geometry.comb.self_s", "s"), ("geometry.dist.self_s", "s"),
    ("geometry.quasilin.calls", "count"), ("geometry.quasilin.self_s", "s"),
    ("geometry.checkers.self_s", "s"),
    ("mappings.apply.calls", "count"), ("mappings.apply.per_step", "count"),
    ("mappings.apply.self_s", "s"),
    ("mappings.resolvent.base_calls_per_apply.mean", "count"),
    ("mappings.resolvent.base_calls_per_apply.max", "count"),
    ("mappings.solver_failures", "count"),
    ("schedules.step_params.self_s", "s"), ("schedules.sigma_star.calls", "count"),
    ("schedules.sigma_star.self_s", "s"), ("schedules.sigma_star.max_bits", "bits"),
    ("schedules.audit.self_s", "s"),
    ("rates.table.self_s", "s"), ("rates.mu.self_s", "s"), ("rates.mu_star.self_s", "s"),
    ("rates.astro_ratio", "ratio"), ("rates.astro.ms_p50", "ms"),
    ("engine.run.self_s", "s"), ("engine.steps", "count"),
    ("engine.write_csv.self_s", "s"), ("engine.csv_bytes", "bytes"),
    ("engine.checks.self_s", "s"),
) + tuple((f"verify.{c}.self_s", "s") for c in VERIFY_CHECKS) + (
    ("verify.search.windows_scanned", "count"), ("verify.pass_ratio", "ratio"),
    ("scenario.build.self_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.current_op = -1
        self.info: dict[int, object] = {}  # span id -> what a result hook noted
        self._wrapped: set[int] = set()

    def wrap(self, name, fn, on_result=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter
        names, start, end, parent, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self.stack)

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.info[sid] = exc
                raise
            finally:
                end[sid] = clock()
                stack.pop()
            if on_result is not None:
                self.info[sid] = on_result(result, args)
            return result

        return traced

    def patch(self, owner, attr, name, on_result=None):
        fn = getattr(owner, attr)
        if id(fn) in self._wrapped:
            return
        wrapped = self.wrap(name, fn, on_result)
        self._wrapped.add(id(wrapped))
        setattr(owner, attr, wrapped)

    def install(self, tm):
        """Wrap every layer's public functions and methods, process-wide.
        Scenarios and schedule bundles made afterwards get their per-instance
        callables wrapped as they are built."""
        G, M, S, R, E, V = (tm.geometry, tm.mappings, tm.schedules, tm.rates,
                            tm.engine, tm.verify)
        for cls in (G.Euclidean, G.PoincareDisk, G.Tripod):
            self.patch(cls, "comb", "geometry.comb")
            self.patch(cls, "dist", "geometry.dist")
        self.patch(G.SpaceModel, "quasilin", "geometry.quasilin")
        self.patch(G.Euclidean, "quasilin", "geometry.quasilin")
        for fn in GEOMETRY_CHECKERS:
            self.patch(G, fn, "geometry.checkers")
        for cls in FAMILIES:
            self.patch(getattr(M, cls), "apply", f"mappings.apply[{cls}]")
        self.patch(S, "audit_schedule", "schedules.audit")
        self.patch(S, "preset", "schedules.preset",
                   on_result=lambda b, args: self.bundle(b))
        is_astro = lambda v, args: v.is_astronomical
        for fn in RATE_TABLE:
            self.patch(R, fn, "rates.table", on_result=is_astro)
        self.patch(R, "mu", "rates.mu", on_result=is_astro)
        self.patch(R, "mu_star", "rates.mu_star", on_result=is_astro)
        self.patch(E, "run", "engine.run", on_result=lambda t, args: len(t.records))
        self.patch(E.Trajectory, "write_csv", "engine.write_csv",
                   on_result=lambda _, args: args[1].tell())
        self.patch(E, "check_hilbert_special_case", "engine.checks")
        self.patch(E, "check_boundedness", "engine.checks")
        for fn in VERIFY_CHECKS:
            self.patch(V, fn, f"verify.{fn}", on_result=_check_info)
        self.patch(tm.scenario, "build_scenario", "scenario.build",
                   on_result=lambda sc, args: self.scenario(sc))

    def bundle(self, bundle):
        for attr in ("beta", "lam", "gamma"):
            self.patch(bundle, attr, "schedules.step_params")
        self.patch(bundle, "sigma_star", "schedules.sigma_star",
                   on_result=lambda v, args: int(v).bit_length())

    def scenario(self, sc):
        self.bundle(sc.bundle)
        if getattr(sc.family, "gammas", None) is not None:
            self.patch(sc.family, "gammas", "schedules.step_params")

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start,end,parent,op\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.op[i]}\n")

    # -- analysis -------------------------------------------------------------

    def self_times(self):
        """Duration and self time of every span."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def pass_summary(self, lo, hi, dur, own):
        """Counts, self times and hook notes of the spans of ops lo..hi-1."""
        apply_ids = {i for nm, i in self._ids.items() if nm.startswith("mappings.apply[")}
        base_calls = Counter(p for i, p in enumerate(self.parent)
                             if p >= 0 and self.name[i] in apply_ids)
        calls, self_s = Counter(), defaultdict(float)
        notes, durations = defaultdict(list), defaultdict(list)
        top_applies, base_counts = 0, []
        for i in range(len(self.name)):
            if not lo <= self.op[i] < hi:
                continue
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += own[i]
            durations[name].append(dur[i])
            if i in self.info:
                notes[name].append(self.info[i])
            if self.name[i] in apply_ids:
                p = self.parent[i]
                if p < 0 or self.name[p] not in apply_ids:
                    top_applies += 1
                if name == "mappings.apply[ResolventFamily]":
                    base_counts.append(base_calls[i])
        return {"calls": calls, "self_s": self_s, "notes": notes,
                "durations": durations, "top_applies": top_applies,
                "base_counts": base_counts}

    def per_op(self, lo, hi):
        """Span counts by name, plus engine steps, of each op lo..hi-1."""
        out = defaultdict(Counter)
        for i in range(len(self.name)):
            o = self.op[i]
            if lo <= o < hi:
                name = self.names[self.name[i]]
                out[o][name] += 1
                if name == "engine.run" and isinstance(self.info.get(i), int):
                    out[o]["engine.steps"] += self.info[i]
        return out

    def setup_self_s(self, name, own):
        """Self time of the named spans made outside any op (in set-up)."""
        nid = self._ids.get(name)
        return sum(own[i] for i in range(len(self.name))
                   if self.name[i] == nid and self.op[i] < 0)


def _check_info(result, args):
    if hasattr(result, "passed"):
        return bool(result.passed)
    return getattr(result, "scanned", None)


def layer_metrics(summaries, setup_build_s, overhead_s):
    """Per-layer metrics per pass, averaged over the traced passes.  Counts
    must agree between passes; the caller checks that."""

    def per_pass(fn):
        return statistics.fmean(fn(s) for s in summaries)

    def self_of(*names):
        return lambda s: sum(s["self_s"].get(n, 0.0) for n in names)

    def prefixed(prefix, key):
        return lambda s: sum(v for n, v in s[key].items() if n.startswith(prefix))

    def ints(s, name):
        return [v for v in s["notes"].get(name, [])
                if isinstance(v, int) and not isinstance(v, bool)]

    def steps(s):
        return sum(ints(s, "engine.run"))

    def ratio(a, b):
        return a / b if b else 0.0

    def rate_notes(s):
        return [v for n in ("rates.table", "rates.mu", "rates.mu_star")
                for v in s["notes"].get(n, []) if isinstance(v, bool)]

    def astro_ms(s):
        out = []
        for n in ("rates.table", "rates.mu", "rates.mu_star"):
            for v, d in zip(s["notes"].get(n, []), s["durations"].get(n, [])):
                if v is True:
                    out.append(d * 1e3)
        return statistics.median(out) if out else 0.0

    def verify_notes(s):
        return [v for n in VERIFY_CHECKS for v in s["notes"].get(f"verify.{n}", [])
                if isinstance(v, bool)]

    def solver_failures(s):
        return sum(1 for v in s["notes"].get("mappings.apply[ResolventFamily]", [])
                   if type(v).__name__ == "SolverFailure")

    base = lambda s: s["base_counts"]
    m = {
        "geometry.comb.calls": per_pass(lambda s: s["calls"]["geometry.comb"]),
        "geometry.dist.calls": per_pass(lambda s: s["calls"]["geometry.dist"]),
        "geometry.comb.per_step": per_pass(lambda s: ratio(s["calls"]["geometry.comb"], steps(s))),
        "geometry.dist.per_step": per_pass(lambda s: ratio(s["calls"]["geometry.dist"], steps(s))),
        "geometry.comb.self_s": per_pass(self_of("geometry.comb")),
        "geometry.dist.self_s": per_pass(self_of("geometry.dist")),
        "geometry.quasilin.calls": per_pass(lambda s: s["calls"]["geometry.quasilin"]),
        "geometry.quasilin.self_s": per_pass(self_of("geometry.quasilin")),
        "geometry.checkers.self_s": per_pass(self_of("geometry.checkers")),
        "mappings.apply.calls": per_pass(lambda s: s["top_applies"]),
        "mappings.apply.per_step": per_pass(lambda s: ratio(s["top_applies"], steps(s))),
        "mappings.apply.self_s": per_pass(prefixed("mappings.apply[", "self_s")),
        "mappings.resolvent.base_calls_per_apply.mean": per_pass(
            lambda s: statistics.fmean(base(s)) if base(s) else 0.0),
        "mappings.resolvent.base_calls_per_apply.max": per_pass(
            lambda s: max(base(s), default=0)),
        "mappings.solver_failures": per_pass(solver_failures),
        "schedules.step_params.self_s": per_pass(self_of("schedules.step_params")),
        "schedules.sigma_star.calls": per_pass(lambda s: s["calls"]["schedules.sigma_star"]),
        "schedules.sigma_star.self_s": per_pass(self_of("schedules.sigma_star")),
        "schedules.sigma_star.max_bits": per_pass(
            lambda s: max(ints(s, "schedules.sigma_star"), default=0)),
        "schedules.audit.self_s": per_pass(self_of("schedules.audit")),
        "rates.table.self_s": per_pass(self_of("rates.table")),
        "rates.mu.self_s": per_pass(self_of("rates.mu")),
        "rates.mu_star.self_s": per_pass(self_of("rates.mu_star")),
        "rates.astro_ratio": per_pass(lambda s: ratio(sum(rate_notes(s)), len(rate_notes(s)))),
        "rates.astro.ms_p50": per_pass(astro_ms),
        "engine.run.self_s": per_pass(self_of("engine.run")),
        "engine.steps": per_pass(steps),
        "engine.write_csv.self_s": per_pass(self_of("engine.write_csv")),
        "engine.csv_bytes": per_pass(lambda s: sum(ints(s, "engine.write_csv"))),
        "engine.checks.self_s": per_pass(self_of("engine.checks")),
    }
    for c in VERIFY_CHECKS:
        m[f"verify.{c}.self_s"] = per_pass(self_of(f"verify.{c}"))
    m["verify.search.windows_scanned"] = per_pass(
        lambda s: sum(ints(s, "verify.search_metastable")))
    m["verify.pass_ratio"] = per_pass(lambda s: ratio(sum(verify_notes(s)), len(verify_notes(s))))
    m["scenario.build.self_s"] = setup_build_s
    m["trace.spans"] = per_pass(lambda s: sum(s["calls"].values()))
    m["trace.overhead_s"] = overhead_s
    return m
