"""The three benchmark workloads: inputs from a seed, the timed operation, its checks.

Each workload is a class with four static methods:

* ``setup(seed, tiny, workdir)`` builds and validates the inputs the program
  is given (this is what ``setup_s`` times, together with ``import fluidq``);
* ``operate(inputs)`` is the timed operation, one public fluidq entry point;
* ``check(inputs, result, tamper)`` returns ``{check name: (passed, detail)}``
  and a dict of informational values that are not checks;
* ``check_names(inputs)`` lists the checks ``check`` must return, so that a
  run that raises can count every one of them as failed.

The inputs object's ``bytes_written()`` sizes the files the command wrote.

``tamper`` corrupts one output before it is checked; the self-test uses it
to show that a wrong result is caught.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

import fluidq
from fluidq import cli, scaling, simulate
from fluidq.distributions import (Exponential, HyperExponential,
                                  UniformInterval, UniformMixture)
from fluidq.fluid import invariant_state
from fluidq.scaling import ScalingPlan
from fluidq.simulate import ClassSpec, SimConfig, WarmStart, fluid_model_of

# The two-piece deadline law shared by fluid_kink and simulate_large: its
# survival function has kinks at 1 and 2 and a flat stretch between them.
MIXTURE = ((0.5, 0.0, 1.0), (0.5, 2.0, 3.0))


def _write_config(workdir: str, cfg: dict) -> str:
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _exp(rate: float) -> dict:
    return {"family": "exponential", "rate": rate}


@dataclass
class CliInputs:
    config_path: str
    out_dir: str
    params: dict

    def bytes_written(self) -> int:
        """Size of every file the command wrote."""
        return sum(os.path.getsize(os.path.join(self.out_dir, name))
                   for name in os.listdir(self.out_dir))


class ConvergeMarkov:
    """``fluidq converge`` on the acceptance M/M/1+M system, in-process."""

    SCALES = (10, 100, 1000, 10000, 100000)
    TINY_SCALES = (10, 100, 1000, 10000)
    REPS = 2
    HORIZON = 6.0
    C_GRID = (0.0, 0.5, 1.0)
    # Plan defaults the row count depends on: 13 grid times, one age (0.25)
    # and four corner radii.
    TIMES = 13
    AGES = (0.25,)
    KAPPAS = 4
    # sup-of-mean-error ceilings at scale n, checked on seeds 2, 3 and 5 and
    # on the benchmark's baseline seeds.
    CEILINGS = {10000: 0.05, 100000: 0.02}
    METRICS = ("workload", "queue_length")

    @staticmethod
    def setup(seed: int, tiny: bool, workdir: str) -> CliInputs:
        scales = ConvergeMarkov.TINY_SCALES if tiny else ConvergeMarkov.SCALES
        cfg = {
            "model": {"classes": [{"arrival": _exp(2.0), "service": _exp(1.0),
                                   "deadline": _exp(1.0)}]},
            "sim": {"horizon": ConvergeMarkov.HORIZON, "seed": seed,
                    "initial": {"kind": "empty"}},
            "converge": {"scales": list(scales), "reps": ConvergeMarkov.REPS,
                         "c_grid": list(ConvergeMarkov.C_GRID)},
        }
        path = _write_config(workdir, cfg)
        with open(path) as fh:
            parsed = json.load(fh)
        specs = cli.parse_model(parsed, allow_replay=False)
        base = SimConfig(specs, horizon=ConvergeMarkov.HORIZON, seed=seed)
        ScalingPlan(base, scales, ConvergeMarkov.REPS)
        return CliInputs(path, os.path.join(workdir, "out"),
                         {"scales": scales, "classes": len(specs)})

    @staticmethod
    def operate(inputs: CliInputs) -> dict:
        jobs = [0]
        traced_run = scaling.run

        def counting_run(config):
            trace = traced_run(config)
            jobs[0] += len(trace.t_arr)
            return trace

        scaling.run = counting_run
        try:
            code = cli.main(["converge", "--config", inputs.config_path,
                             "--out", inputs.out_dir])
        finally:
            scaling.run = traced_run
        return {"exit_code": code, "jobs": jobs[0]}

    @staticmethod
    def expected_rows(inputs: CliInputs) -> int:
        cm = ConvergeMarkov
        K = inputs.params["classes"]
        grid = [cm.HORIZON * i / (cm.TIMES - 1) for i in range(cm.TIMES)]
        aged = sum(1 for t in grid for u in cm.AGES if u <= t)
        per_trace = (2 * cm.TIMES                       # workload, idle
                     + 4 * K * cm.TIMES + K * aged      # state section
                     + 2 * K * cm.TIMES * len(cm.C_GRID)  # residual tails
                     + cm.KAPPAS * cm.TIMES)            # corner probe
        return per_trace * cm.REPS * len(inputs.params["scales"])

    @staticmethod
    def check_names(inputs: CliInputs) -> list[str]:
        names = ["exit_code_zero", "summary_parses", "row_count"]
        names += [f"{m}_falls_across_scales" for m in ConvergeMarkov.METRICS]
        for n in ConvergeMarkov.CEILINGS:
            if n in inputs.params["scales"]:
                names += [f"{m}_at_n{n}" for m in ConvergeMarkov.METRICS]
        return names

    @staticmethod
    def check(inputs: CliInputs, result: dict, tamper: bool):
        out = {"exit_code_zero": (result["exit_code"] == 0, result["exit_code"])}
        report_path = os.path.join(inputs.out_dir, "report.csv")
        with open(report_path, "rb") as fh:
            raw = fh.read()
        rows = raw.count(b"\n") - 1
        if tamper:
            rows -= 1
        want = ConvergeMarkov.expected_rows(inputs)
        out["row_count"] = (rows == want, f"{rows} rows, plan gives {want}")
        with open(os.path.join(inputs.out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        out["summary_parses"] = (isinstance(summary.get("summary"), list), "")
        sup = {(e["n"], e["metric"]): e["sup_mean_err"] for e in summary["summary"]}
        scales = inputs.params["scales"]
        for m in ConvergeMarkov.METRICS:
            errs = [sup[(n, m)] for n in scales]
            out[f"{m}_falls_across_scales"] = (
                all(b < a for a, b in zip(errs, errs[1:])), errs)
            for n, ceiling in ConvergeMarkov.CEILINGS.items():
                if n in scales:
                    out[f"{m}_at_n{n}"] = (sup[(n, m)] <= ceiling,
                                           f"{sup[(n, m)]:.4g} <= {ceiling}")
        return out, {"report_sha256": hashlib.sha256(raw).hexdigest()}


class FluidKink:
    """``fluidq fluid`` on a two-class model whose path crosses survival kinks."""

    HORIZON = 3.0
    TINY_HORIZON = 0.6
    GRID_STEP = 0.02
    # (rho_k, deadline as uniform components (weight, lo, hi)); class 1's
    # uniform law on [0.5, 2.5) is a one-component mixture.
    CLASSES = ((1.5, MIXTURE), (0.5, ((1.0, 0.5, 2.5),)))
    PATH_TOL = 1e-8
    IDENTITY_TOL = 1e-9
    DENSE_POINTS = 3001

    @staticmethod
    def setup(seed: int, tiny: bool, workdir: str) -> CliInputs:
        # Deterministic: the seed is not used.
        horizon = FluidKink.TINY_HORIZON if tiny else FluidKink.HORIZON
        cfg = {
            "model": {"classes": [
                {"arrival": _exp(1.5), "service": _exp(1.0),
                 "deadline": {"family": "uniform_mixture", "components": [
                     {"weight": w, "lo": lo, "hi": hi} for w, lo, hi in MIXTURE]}},
                {"arrival": _exp(1.0), "service": _exp(2.0),
                 "deadline": {"family": "uniform", "lo": 0.5, "hi": 2.5}},
            ]},
            "fluid": {"w0": 0.0, "horizon": horizon, "grid_step": FluidKink.GRID_STEP},
        }
        path = _write_config(workdir, cfg)
        with open(path) as fh:
            parsed = json.load(fh)
        specs = cli.parse_model(parsed, allow_replay=False)
        fluid_model_of(SimConfig(specs, horizon=horizon))
        return CliInputs(path, os.path.join(workdir, "out"), {"horizon": horizon})

    @staticmethod
    def operate(inputs: CliInputs) -> dict:
        captured = []
        solve = cli.solve_fluid

        def capturing_solve(*args, **kwargs):
            solution = solve(*args, **kwargs)
            captured.append(solution)
            return solution

        cli.solve_fluid = capturing_solve
        try:
            code = cli.main(["fluid", "--config", inputs.config_path,
                             "--out", inputs.out_dir])
        finally:
            cli.solve_fluid = solve
        return {"exit_code": code, "solution": captured[0] if captured else None}

    @staticmethod
    def check_names(inputs: CliInputs) -> list[str]:
        return ["exit_code_zero", "z_equals_n_plus_a", "path_matches_oracle"]

    @staticmethod
    def load(w):
        """sum_k rho_k G_k(w), written out independently of fluidq."""
        return math.fsum(
            rho * math.fsum(wt * min(max((hi - w) / (hi - lo), 0.0), 1.0)
                            for wt, lo, hi in comps)
            for rho, comps in FluidKink.CLASSES)

    @staticmethod
    def oracle_times(ws):
        """t(w) = integral_0^w du / (load(u) - 1) for nondecreasing ws.

        The integrand is smooth between the deadline knots, so quad runs
        on each piece between consecutive knots and requested levels.
        """
        from scipy.integrate import quad

        knots = sorted({x for _, comps in FluidKink.CLASSES
                        for _, lo, hi in comps for x in (lo, hi)})
        out, t, at = [], 0.0, 0.0
        for w in ws:
            for edge in [k for k in knots if at < k < w] + [w]:
                if edge > at:
                    t += quad(lambda u: 1.0 / (FluidKink.load(u) - 1.0), at, edge,
                              epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                    at = edge
            out.append(t)
        return out

    @staticmethod
    def check(inputs: CliInputs, result: dict, tamper: bool):
        import numpy as np

        out = {"exit_code_zero": (result["exit_code"] == 0, result["exit_code"])}
        rows = _read_csv(os.path.join(inputs.out_dir, "functionals.csv"))
        gap = max(abs(float(r["z"]) - float(r["n"]) - float(r["a"])) for r in rows)
        out["z_equals_n_plus_a"] = (gap <= FluidKink.IDENTITY_TOL, f"max gap {gap:.3g}")

        # Path values: every written grid point, plus a dense grid read from
        # the solved path, most of whose points fall between RK4 nodes.
        written = _read_csv(os.path.join(inputs.out_dir, "workload.csv"))
        ts = [float(r["t"]) for r in written]
        ws = [float(r["w"]) for r in written]
        dense = np.linspace(0.0, inputs.params["horizon"], FluidKink.DENSE_POINTS)
        ts += dense.tolist()
        ws += result["solution"].workload.at(dense).tolist()
        if tamper:
            ws[-1] += 1e-6
        order = sorted(range(len(ts)), key=lambda i: ws[i])
        t_of_w = FluidKink.oracle_times([ws[i] for i in order])
        # A time error dt at level w is a level error of w'(t) * dt, with
        # w' = load(w) - 1; both are exact to first order.
        err = max(abs(t_of_w[j] - ts[i]) * abs(FluidKink.load(ws[i]) - 1.0)
                  for j, i in enumerate(order))
        out["path_matches_oracle"] = (err <= FluidKink.PATH_TOL, f"max err {err:.3g}")
        return out, {"fluid_max_err": err}


@dataclass
class SimInputs:
    config: SimConfig
    model: fluidq.FluidModelInput
    query_times: tuple[float, ...]

    def bytes_written(self) -> int:
        return 0


class SimulateLarge:
    """``fluidq.simulate.run`` at scale 1e5 and one set of trace queries."""

    SCALE = 100000
    TINY_SCALE = 1000
    HORIZON = 6.0
    QUERY_TIMES = (0.0, 1.5, 3.0, 4.5, 6.0)
    # Degenerate equilibrium band: on [1, 2] the load is
    # 1.6 * 0.5 + (5/12) * (2.5 - u) / 2, which equals 1 at u = 1.54.
    BAND = 1.54
    SLACK = 0.05

    @staticmethod
    def setup(seed: int, tiny: bool, workdir: str) -> SimInputs:
        classes = (
            ClassSpec(HyperExponential(((0.5, 1.0), (0.5, 4.0))), Exponential(1.0),
                      UniformMixture(MIXTURE)),
            ClassSpec(Exponential(1.0), HyperExponential(((0.5, 1.5), (0.5, 6.0))),
                      UniformInterval(0.5, 2.5)),
        )
        config = SimConfig(classes, horizon=SimulateLarge.HORIZON,
                           scale=SimulateLarge.TINY_SCALE if tiny else SimulateLarge.SCALE,
                           seed=seed, initial=WarmStart())
        return SimInputs(config, fluid_model_of(config), SimulateLarge.QUERY_TIMES)

    @staticmethod
    def operate(inputs: SimInputs) -> dict:
        trace = simulate.run(inputs.config)
        queries = [(t, trace.snapshot(t), trace.queue_lengths(t),
                    trace.residual_deadline_measures(t), trace.workload_at(t))
                   for t in inputs.query_times]
        return {"trace": trace, "queries": queries, "jobs": len(trace.t_arr)}

    @staticmethod
    def check_names(inputs: SimInputs) -> list[str]:
        return ["served_iff_deadline_exceeds_workload", "exit_minus_arrival",
                "workload_before_nonnegative", "snapshot_matches_queue_lengths",
                "workload_below_band", "workload_not_falling",
                "queue_lengths_below_invariant"]

    @staticmethod
    def check(inputs: SimInputs, result: dict, tamper: bool):
        import numpy as np

        tr = result["trace"]
        served = np.array(tr.served)
        if tamper:
            served[0] = not served[0]
        out = {}
        out["served_iff_deadline_exceeds_workload"] = (
            bool(np.array_equal(served, tr.d > tr.w_before)), "")
        stay = np.where(served, tr.w_before + tr.v, tr.d)
        gap = float(np.max(np.abs((tr.t_exit - tr.t_arr) - stay)))
        out["exit_minus_arrival"] = (gap <= 1e-12 * max(1.0, float(tr.t_arr[-1])),
                                     f"max gap {gap:.3g}")
        out["workload_before_nonnegative"] = (bool(np.all(tr.w_before >= 0)), "")

        n = inputs.config.scale
        state = invariant_state(inputs.model, SimulateLarge.BAND)
        z_max = [state.queue_length(k) + SimulateLarge.SLACK
                 for k in range(len(inputs.config.classes))]
        ws = [w for _, _, _, _, w in result["queries"]]
        atoms_ok = below = True
        for _, snap, counts, _, _ in result["queries"]:
            atoms_ok &= all(len(s) == c.total for s, c in zip(snap, counts))
            below &= all(c.total / n <= zk for c, zk in zip(counts, z_max))
        out["snapshot_matches_queue_lengths"] = (atoms_ok, "")
        out["workload_below_band"] = (
            max(ws) <= SimulateLarge.BAND + SimulateLarge.SLACK, ws)
        out["workload_not_falling"] = (min(ws) >= ws[0] - SimulateLarge.SLACK, ws)
        out["queue_lengths_below_invariant"] = (below, z_max)
        return out, {"workload_at_query_times": ws}


WORKLOADS = {
    "converge_markov": ConvergeMarkov,
    "fluid_kink": FluidKink,
    "simulate_large": SimulateLarge,
}
