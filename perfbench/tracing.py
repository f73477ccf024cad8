"""Tracer for the benchmark's traced passes.

It wraps the public functions of each skipcomp module from outside, by
replacing module attributes, including the names that ``coverage`` and
``throughput`` import from ``numerics``.  Nothing in the program changes.

Three kinds of wrapper, by how often the function runs:

* span: coarse calls (a CLI job, a simulation, a coverage point).  Each call
  keeps a span (name, start, end, parent, job id) in memory.
* timed: calls made once per row or per integrand evaluation.  Each call adds
  to its name's call count, inclusive time and child time, but keeps no span.
* counted: the hottest leaves (hypergeometric kernel, Laplace transforms,
  integrand evaluations).  Each call only adds one to a count.

A layer's self time is the inclusive time of its span and timed calls minus
the time of the traced calls they contain.  Time in counted calls stays with
the caller.
"""

from __future__ import annotations

import json
import time

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.job = None
        self.stack = []        # open frames: [child_s, span_index]
        self.stats = {}        # name -> [calls, inclusive_s, child_s, layer]
        self.depth = {}        # layer -> open calls of that layer
        self.outer = {}        # layer -> inclusive time of outermost calls
        self.counts = {}       # name -> calls of counted wrappers
        self.spans = []        # (name, start, end, parent, job)
        self.seen = {}         # name -> set of argument keys already seen
        self.repeats = {}      # name -> calls whose key was already seen
        self.sim_trials = 0
        self.sim_redraws = 0
        self.rows_out = 0

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, layer, fn, span=False, key=None, after=None):
        """Wrap fn; key(args) marks repeats, after(args, result) adds counts."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, layer])
        self.depth.setdefault(layer, 0)
        self.outer.setdefault(layer, 0.0)
        seen = self.seen.setdefault(name, set()) if key else None
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][1] if stack else -1
            frame = [0.0, -1]
            if span:
                frame[1] = len(tracer.spans)
                tracer.spans.append(None)
            outermost = tracer.depth[layer] == 0
            tracer.depth[layer] += 1
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tracer.depth[layer] -= 1
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += frame[0]
                if stack:
                    stack[-1][0] += dt
                if outermost:
                    tracer.outer[layer] += dt
                if span:
                    tracer.spans[frame[1]] = (name, t0, t1, parent, tracer.job)
            if seen is not None:
                k = key(args)
                if k in seen:
                    tracer.repeats[name] = tracer.repeats.get(name, 0) + 1
                seen.add(k)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_quad(self, quad):
        """scipy.integrate.quad that also counts integrand evaluations."""
        counts = self.counts
        counts.setdefault("numerics.integrand_evals", 0)

        def wrapper(func, a, b, args=(), **kwargs):
            def integrand(*x):
                counts["numerics.integrand_evals"] += 1
                return func(*x)
            return quad(integrand, a, b, args=args, **kwargs)

        return self.timed("numerics.quad", "numerics", wrapper)

    # -- installation ------------------------------------------------------

    def install(self):
        """Replace the module attributes of the already imported program."""
        import scipy.integrate
        from skipcomp import cli, coverage, distances, montecarlo, numerics, throughput

        def patch(modules, attr, wrapper):
            for mod in modules:
                setattr(mod, attr, wrapper)

        def on_simulate(args, result):
            self.sim_trials += result.spec.trials
            self.sim_redraws += result.redraws

        def on_write(args, result):
            self.rows_out += len(args[4])

        t = self.timed
        patch([cli], "main", t("cli.main", "cli", cli.main, span=True))
        patch([cli], "_write", t("cli.write", "cli", cli._write, span=True,
                                 after=on_write))

        patch([montecarlo], "simulate", t(
            "montecarlo.simulate", "montecarlo", montecarlo.simulate, span=True,
            key=lambda a: (a[0], a[1]), after=on_simulate))
        for attr in ("empirical_coverage", "coverage_from_result",
                     "spectral_efficiency_from_result"):
            name = "montecarlo.reduce" if attr.endswith("_from_result") \
                else f"montecarlo.{attr}"
            patch([montecarlo], attr, t(name, "montecarlo",
                                        getattr(montecarlo, attr), span=True))

        patch([distances], "sample_ordered_distances_array", t(
            "distances.sample", "distances",
            distances.sample_ordered_distances_array, span=True))
        for attr in ("joint_pdf_r123", "marginal_pdf_r1", "marginal_pdf_r2",
                     "joint_pdf_r2_r3", "conditional_pdf_r1_given_r2"):
            patch([distances], attr, t("distances.pdf", "distances",
                                       getattr(distances, attr)))

        patch([coverage], "coverage_curve", t(
            "coverage.curve", "coverage", coverage.coverage_curve, span=True))
        patch([coverage], "coverage", t("coverage.lookup", "coverage",
                                        coverage.coverage))
        for attr in ("coverage_best", "coverage_blackout_nocoop",
                     "coverage_blackout_coop"):
            patch([coverage], attr, t("coverage.point", "coverage",
                                      getattr(coverage, attr), span=True))
        for attr in ("lt_i1_coop", "lt_ir2_coop"):
            patch([coverage], attr, self.counted("coverage.lt",
                                                 getattr(coverage, attr)))

        patch([numerics, coverage, throughput], "integrate_1d", t(
            "numerics.integrate_1d", "numerics", numerics.integrate_1d))
        patch([numerics, coverage], "hyp2f1_lt",
              self.counted("numerics.hyp2f1", numerics.hyp2f1_lt))
        patch([scipy.integrate], "quad", self.counted_quad(scipy.integrate.quad))

        patch([throughput], "spectral_efficiency", t(
            "throughput.se", "throughput", throughput.spectral_efficiency,
            span=True, key=lambda a: (a[0], a[1])))
        patch([throughput], "throughput_sweep", t(
            "throughput.sweep", "throughput", throughput.throughput_sweep,
            span=True))

    # -- results -----------------------------------------------------------

    def self_seconds(self) -> dict:
        out = {}
        for calls, incl, child, layer in self.stats.values():
            out[layer] = out.get(layer, 0.0) + incl - child
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")

    def summary(self, wall_s: float, job_noise: dict, analytic_values: int,
                bytes_out: int) -> dict:
        """Per-layer metrics of one traced pass."""
        s = self.stats
        calls = lambda n: s[n][0]  # noqa: E731
        incl = lambda n: s[n][1]  # noqa: E731
        selfs = self.self_seconds()
        trials = self.sim_trials
        sims = calls("montecarlo.simulate")
        ses = calls("throughput.se")
        point_s = {"noise_free": [0, 0.0], "noisy": [0, 0.0]}
        for name, start, end, parent, job in self.spans:
            if name == "coverage.point":
                acc = point_s["noisy" if job_noise[job] > 0 else "noise_free"]
                acc[0] += 1
                acc[1] += end - start
        evals = self.counts["numerics.integrand_evals"]
        return {
            "montecarlo.simulate.calls": sims,
            "montecarlo.simulate.s": incl("montecarlo.simulate"),
            "montecarlo.us_per_trial":
                1e6 * incl("montecarlo.simulate") / trials if trials else 0.0,
            "montecarlo.trials": trials,
            "montecarlo.redraw_share": self.sim_redraws / trials if trials else 0.0,
            "montecarlo.repeat_share":
                self.repeats.get("montecarlo.simulate", 0) / sims if sims else 0.0,
            "montecarlo.reduce.s": incl("montecarlo.reduce"),
            "montecarlo.self_s": selfs["montecarlo"],
            "distances.sample.calls": calls("distances.sample"),
            "distances.sample.s": incl("distances.sample"),
            "distances.pdf.calls": calls("distances.pdf"),
            "distances.pdf.s": incl("distances.pdf"),
            "distances.self_s": selfs["distances"],
            "cli.calls": calls("cli.main"),
            "cli.self_s": selfs["cli"],
            "cli.bytes_out": bytes_out,
            "cli.rows_out": self.rows_out,
            "coverage.points": point_s["noise_free"][0] + point_s["noisy"][0],
            "coverage.point_ms.noise_free": _mean_ms(point_s["noise_free"]),
            "coverage.point_ms.noisy": _mean_ms(point_s["noisy"]),
            "coverage.s": self.outer["coverage"],
            "coverage.lt.calls": self.counts["coverage.lt"],
            "coverage.self_s": selfs["coverage"],
            "numerics.integrate_1d.calls": calls("numerics.integrate_1d"),
            "numerics.quad_calls": calls("numerics.quad"),
            "numerics.integrand_evals": evals,
            "numerics.evals_per_value":
                evals / analytic_values if analytic_values else 0.0,
            "numerics.hyp2f1.calls": self.counts["numerics.hyp2f1"],
            "numerics.self_s": selfs["numerics"],
            "throughput.se.calls": ses,
            "throughput.se.s": incl("throughput.se"),
            "throughput.se.repeat_share":
                self.repeats.get("throughput.se", 0) / ses if ses else 0.0,
            "throughput.sweep.s": incl("throughput.sweep"),
            "throughput.self_s": selfs["throughput"],
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - sum(selfs.values()),
        }


def _mean_ms(acc) -> float:
    n, total = acc
    return 1e3 * total / n if n else 0.0
