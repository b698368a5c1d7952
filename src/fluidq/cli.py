"""Command-line front end: validate a JSON config, run one command, write artifacts.

Commands:

* ``fluid``     -- solve the fluid model; writes workload.csv, functionals.csv, band.json
* ``simulate``  -- one exact simulation run; writes jobs.csv, workload.csv, snapshot.csv
* ``converge``  -- scaling study against fluid targets; writes report.csv, summary.json
* ``invariant`` -- evaluate the invariant state at a level w; writes invariant.csv

Exit codes: 0 success, 2 config error, 3 precondition violation, 4 I/O failure.
``--log-level`` (default WARNING) sends the package's log records at that
level and above to standard error; the artifacts do not depend on it.
Every float lands in CSV with 17 significant digits, so emitted values
re-parse bit-exactly.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys

import numpy as np

from .distributions import (Deterministic, Distribution, DistributionError,
                            Exponential, HyperExponential, Replay,
                            UniformInterval, UniformMixture)
from .fluid import (BoxMixtureInitial, FluidModelError, InvariantInitial,
                    ZeroInitial, invariant_state, solve_fluid,
                    fluid_abandoning, fluid_nonabandoning, fluid_queue_length)
from .measures import Box, measure_rows
from .numerics import sig17
from .scaling import ScalingError, ScalingPlan, run_plan
from .simulate import (ClassSpec, Empty, SimConfig, SimulationError, WarmStart,
                       fluid_model_of, run)

ENV_SEED = "FLUIDQ_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4

_TOP_KEYS = {"model", "fluid", "sim", "converge", "output"}

# fluid's time grid may hold at most this many multiples of grid_step up to
# the horizon (the horizon itself is added where it falls between two)
MAX_GRID_POINTS = 10 ** 6


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _config_error(path: str, message: str) -> CliError:
    return CliError(EXIT_CONFIG, f"config error at {path}: {message}")


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise _config_error(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, path: str, allowed: set[str], required: set[str]) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise _config_error(f"{path}.{unknown[0]}", "unknown key")
    missing = sorted(required - set(mapping))
    if missing:
        raise _config_error(path, f"missing required key {missing[0]!r}")


def _number(value, path: str, *, minimum=None, positive=False, infinite=False) -> float:
    """A finite number (json reads 1e400 as inf), or inf too where infinite
    is set; NaN is never one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _config_error(path, f"expected a number, got {type(value).__name__}")
    x = float(value)
    if math.isnan(x):
        raise _config_error(path, "must not be NaN")
    if not infinite and math.isinf(x):
        raise _config_error(path, f"must be finite, got {x}")
    if positive and not x > 0:
        raise _config_error(path, f"must be positive, got {x}")
    if minimum is not None and x < minimum:
        raise _config_error(path, f"must be >= {minimum}, got {x}")
    return x


def _integer(value, path: str, *, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _config_error(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise _config_error(path, f"must be >= {minimum}, got {value}")
    return value


def _number_list(value, path: str, *, minimum=None, infinite=False) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise _config_error(path, "expected a nonempty array of numbers")
    return tuple(_number(v, f"{path}[{i}]", minimum=minimum, infinite=infinite)
                 for i, v in enumerate(value))


def _components(spec: dict, path: str, fields: tuple[str, ...]) -> tuple[tuple[float, ...], ...]:
    """A mixture family's nonempty components array, each entry an object
    with exactly these fields; "lo" may be zero, every other field is positive."""
    _check_keys(spec, path, {"family", "components"}, {"components"})
    comps = spec["components"]
    if not isinstance(comps, list) or not comps:
        raise _config_error(f"{path}.components", "expected a nonempty array")
    parsed = []
    for i, comp in enumerate(comps):
        cpath = f"{path}.components[{i}]"
        comp = _require_mapping(comp, cpath)
        _check_keys(comp, cpath, set(fields), set(fields))
        parsed.append(tuple(
            _number(comp[f], f"{cpath}.{f}", minimum=0.0) if f == "lo"
            else _number(comp[f], f"{cpath}.{f}", positive=True) for f in fields))
    return tuple(parsed)


def parse_distribution(spec, path: str, *, allow_replay: bool) -> Distribution:
    spec = _require_mapping(spec, path)
    family = spec.get("family")
    if not isinstance(family, str):
        raise _config_error(f"{path}.family", "missing or non-string distribution family")
    try:
        if family == "exponential":
            _check_keys(spec, path, {"family", "rate"}, {"rate"})
            return Exponential(_number(spec["rate"], f"{path}.rate", positive=True))
        if family == "deterministic":
            _check_keys(spec, path, {"family", "value"}, {"value"})
            return Deterministic(_number(spec["value"], f"{path}.value", positive=True))
        if family == "uniform":
            _check_keys(spec, path, {"family", "lo", "hi"}, {"lo", "hi"})
            return UniformInterval(_number(spec["lo"], f"{path}.lo", minimum=0.0),
                                   _number(spec["hi"], f"{path}.hi", positive=True))
        if family == "uniform_mixture":
            return UniformMixture(_components(spec, path, ("weight", "lo", "hi")))
        if family == "hyperexponential":
            return HyperExponential(_components(spec, path, ("weight", "rate")))
        if family == "replay":
            if not allow_replay:
                raise _config_error(f"{path}.family",
                                    "scripted 'replay' laws are not allowed here")
            _check_keys(spec, path, {"family", "samples"}, {"samples"})
            return Replay(_number_list(spec["samples"], f"{path}.samples"))
    except DistributionError as exc:
        raise _config_error(path, str(exc)) from exc
    raise _config_error(f"{path}.family", f"unknown distribution family {family!r}")


def parse_model(cfg: dict, *, allow_replay: bool) -> tuple[ClassSpec, ...]:
    model = _require_mapping(cfg.get("model"), "model")
    _check_keys(model, "model", {"classes"}, {"classes"})
    classes = model["classes"]
    if not isinstance(classes, list) or not classes:
        raise _config_error("model.classes", "expected a nonempty array of class objects")
    specs = []
    for i, cls in enumerate(classes):
        path = f"model.classes[{i}]"
        cls = _require_mapping(cls, path)
        _check_keys(cls, path, {"arrival", "service", "deadline"},
                    {"arrival", "service", "deadline"})
        try:
            specs.append(ClassSpec(
                parse_distribution(cls["arrival"], f"{path}.arrival",
                                   allow_replay=allow_replay),
                parse_distribution(cls["service"], f"{path}.service",
                                   allow_replay=allow_replay),
                parse_distribution(cls["deadline"], f"{path}.deadline",
                                   allow_replay=allow_replay),
            ))
        except (SimulationError, DistributionError) as exc:
            raise _config_error(path, str(exc)) from exc
    return tuple(specs)


def _parse_initial(spec, path: str) -> Empty | WarmStart:
    spec = _require_mapping(spec, path)
    kind = spec.get("kind")
    if kind == "empty":
        _check_keys(spec, path, {"kind"}, set())
        return Empty()
    if kind == "warm":
        _check_keys(spec, path, {"kind", "duration"}, set())
        if "duration" in spec:
            return WarmStart(_number(spec["duration"], f"{path}.duration", minimum=0.0))
        return WarmStart()
    raise _config_error(f"{path}.kind", "expected 'empty' or 'warm'")


def _parse_box(value, path: str) -> Box:
    if not isinstance(value, list) or len(value) != 4:
        raise _config_error(path, "expected an array [a, b, c, d]")
    # the right and top edges b and d may be infinite
    a, b, c, d = (_number(v, f"{path}[{i}]", minimum=0.0, infinite=i % 2 == 1)
                  for i, v in enumerate(value))
    try:
        return Box(a, b, c, d)
    except ValueError as exc:
        raise _config_error(path, str(exc)) from exc


def _resolve_seed(args, sim_cfg: dict | None) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CliError(EXIT_CONFIG, f"{ENV_SEED} must be an integer, got {env!r}") from exc
    if sim_cfg is not None and "seed" in sim_cfg:
        return _integer(sim_cfg["seed"], "sim.seed", minimum=0)
    return 0


def _out_dir(args, cfg: dict) -> str:
    output = _require_mapping(cfg.get("output", {}), "output")
    _check_keys(output, "output", {"dir"}, set())
    out = output.get("dir")
    if out is not None and not isinstance(out, str):
        raise _config_error("output.dir", "expected a string")
    out = (args.out if args.out is not None else out) or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot create output directory {out!r}: {exc}") from exc
    return out


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {path}: {exc}") from exc


def _write_json(path: str, payload) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {path}: {exc}") from exc


def _time_grid(horizon: float, step: float) -> list[float]:
    count = horizon / step + 1e-9
    if count >= MAX_GRID_POINTS:    # checked before a point is built
        raise _config_error("fluid.grid_step", f"{step} puts more than {MAX_GRID_POINTS} "
                            f"grid points on the horizon {horizon}")
    count = int(count)
    ts = [min(i * step, horizon) for i in range(count + 1)]
    if not ts or ts[-1] < horizon - 1e-12 * horizon:
        ts.append(horizon)
    return ts


def cmd_fluid(cfg: dict, args) -> list[str]:
    specs = parse_model(cfg, allow_replay=False)
    fl = _require_mapping(cfg.get("fluid"), "fluid")
    _check_keys(fl, "fluid", {"w0", "horizon", "tol", "grid_step", "initial"}, {"horizon"})
    horizon = _number(fl["horizon"], "fluid.horizon", minimum=0.0)
    tol = _number(fl.get("tol", 1e-10), "fluid.tol", positive=True)
    step = _number(fl.get("grid_step", horizon / 100 if horizon > 0 else 1.0),
                   "fluid.grid_step", positive=True)
    grid = _time_grid(horizon, step)

    sim_cfg = SimConfig(specs, horizon=horizon)
    try:
        model = fluid_model_of(sim_cfg)
    except (SimulationError, FluidModelError) as exc:
        raise CliError(EXIT_CONFIG, f"config error at model: {exc}") from exc

    out = _out_dir(args, cfg)
    try:
        w_l, w_u = model.band
        initial = _fluid_initial(fl, model)
        solution = solve_fluid(model, initial, horizon, tol=tol)
    except (FluidModelError, DistributionError) as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from exc

    path = solution.workload
    ts = np.array(grid)
    workload_rows = [(sig17(t), sig17(w), sig17(s))
                     for t, w, s in zip(grid, path.at(ts), path.tau(ts))]
    columns = [[f(solution, k, ts) for f in (fluid_queue_length, fluid_nonabandoning,
                                              fluid_abandoning)]
               for k in range(len(model.classes))]
    func_rows = [(sig17(t), k, *(sig17(col[i]) for col in columns[k]))
                 for i, t in enumerate(grid) for k in range(len(model.classes))]

    band = {"w_l": w_l, "w_u": w_u, "d_max": model.d_max}
    for name, level in (("at_w_l", w_l), ("at_w_u", w_u)):
        state = invariant_state(model, level)
        band[name] = {
            "queue_length": [state.queue_length(k) for k in range(len(model.classes))],
            "nonabandoning": [state.nonabandoning(k) for k in range(len(model.classes))],
        }

    paths = [os.path.join(out, name) for name in
             ("workload.csv", "functionals.csv", "band.json")]
    _write_csv(paths[0], ("t", "w", "tau"), workload_rows)
    _write_csv(paths[1], ("t", "class", "z", "n", "a"), func_rows)
    _write_json(paths[2], band)
    return paths


def _fluid_initial(fl: dict, model):
    """Initial fluid state from the fluid block.

    Explicit 'initial' wins; otherwise w0 = 0 (or absent) means empty, and
    a w0 inside the equilibrium band means the invariant state there. Any
    other bare w0 is rejected: the workload level alone does not determine
    a measure-valued state.
    """
    spec = fl.get("initial")
    w0 = fl.get("w0")
    if w0 is not None:
        w0 = _number(w0, "fluid.w0", minimum=0.0)
    if spec is not None:
        initial = _parse_fluid_initial(spec, "fluid.initial")
        if w0 is not None:
            edge = initial.support_edge(model)
            if abs(edge - w0) > 1e-9:
                raise FluidModelError(
                    f"fluid.w0 = {w0} does not match the initial state's "
                    f"support edge {edge}")
        return initial
    if w0 is None or w0 == 0.0:
        return ZeroInitial()
    if w0 > model.d_max:
        raise FluidModelError(
            f"fluid.w0 = {w0} exceeds the largest deadline {model.d_max}: "
            "no initial state can hold that much unexpired work")
    w_l, w_u = model.band
    if w_l - 1e-9 <= w0 <= w_u + 1e-9:
        return InvariantInitial(w0)
    raise FluidModelError(
        f"fluid.w0 = {w0} lies outside the equilibrium band [{w_l}, {w_u}]; "
        "give an explicit fluid.initial block to start there")


def _parse_fluid_initial(spec, path: str):
    spec = _require_mapping(spec, path)
    kind = spec.get("kind")
    if kind == "zero":
        _check_keys(spec, path, {"kind"}, set())
        return ZeroInitial()
    if kind == "invariant":
        _check_keys(spec, path, {"kind", "w"}, {"w"})
        return InvariantInitial(_number(spec["w"], f"{path}.w", positive=True))
    if kind == "boxes":
        _check_keys(spec, path, {"kind", "pieces"}, {"pieces"})
        pieces = spec["pieces"]
        if not isinstance(pieces, list) or not pieces:
            raise _config_error(f"{path}.pieces", "expected a nonempty array")
        parsed = []
        for i, piece in enumerate(pieces):
            ppath = f"{path}.pieces[{i}]"
            piece = _require_mapping(piece, ppath)
            _check_keys(piece, ppath, {"class", "box", "mass"}, {"class", "box", "mass"})
            parsed.append((_integer(piece["class"], f"{ppath}.class", minimum=0),
                           _parse_box(piece["box"], f"{ppath}.box"),
                           _number(piece["mass"], f"{ppath}.mass", positive=True)))
        return BoxMixtureInitial(tuple(parsed))
    raise _config_error(f"{path}.kind", "expected 'zero', 'invariant', or 'boxes'")


def _parse_sim_config(cfg: dict, args, *, allow_replay: bool) -> SimConfig:
    specs = parse_model(cfg, allow_replay=allow_replay)
    sim = _require_mapping(cfg.get("sim"), "sim")
    _check_keys(sim, "sim", {"n", "seed", "horizon", "initial"}, {"horizon"})
    horizon = _number(sim["horizon"], "sim.horizon", minimum=0.0)
    scale = _integer(sim.get("n", 1), "sim.n", minimum=1)
    seed = _resolve_seed(args, sim)
    initial = _parse_initial(sim.get("initial", {"kind": "empty"}), "sim.initial")
    try:
        return SimConfig(specs, horizon=horizon, scale=scale, seed=seed, initial=initial)
    except SimulationError as exc:
        raise CliError(EXIT_CONFIG, f"config error at sim: {exc}") from exc


def cmd_simulate(cfg: dict, args) -> list[str]:
    config = _parse_sim_config(cfg, args, allow_replay=True)
    out = _out_dir(args, cfg)
    try:
        trace = run(config)
    except (SimulationError, DistributionError, FluidModelError) as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from exc

    jobs = trace.jobs()
    job_rows = [(job.cls, job.index, sig17(job.arrival), sig17(job.service),
                 sig17(job.deadline), sig17(job.workload_before),
                 sig17(job.virtual_sojourn), sig17(job.patience),
                 int(job.served), sig17(job.exit_time), job.exit_cause) for job in jobs]

    # a job's virtual sojourn is the workload just after its arrival
    workload_rows = [(sig17(0.0), sig17(trace.workload_at(0.0)))]
    workload_rows += [(sig17(job.arrival), sig17(job.virtual_sojourn)) for job in jobs
                      if 0.0 < job.arrival <= trace.horizon]
    if trace.horizon > 0:
        workload_rows.append((sig17(trace.horizon), sig17(trace.workload_at(trace.horizon))))

    snap_rows = []
    for measure in trace.snapshot(trace.horizon):
        for cid, w, p, mass in measure_rows(measure):
            snap_rows.append((cid, sig17(w), sig17(p), sig17(mass)))

    paths = [os.path.join(out, name) for name in
             ("jobs.csv", "workload.csv", "snapshot.csv")]
    _write_csv(paths[0], ("class", "j", "arrival", "v", "d", "workload_before",
                          "w", "p", "served", "exit_time", "exit_cause"), job_rows)
    _write_csv(paths[1], ("t", "W"), workload_rows)
    _write_csv(paths[2], ("class", "w", "p", "mass"), snap_rows)
    return paths


def cmd_converge(cfg: dict, args) -> list[str]:
    base = _parse_sim_config(cfg, args, allow_replay=False)
    if base.scale != 1:
        raise CliError(EXIT_CONFIG,
                       "config error at sim.n: converge requires the unscaled base (n = 1)")
    conv = _require_mapping(cfg.get("converge"), "converge")
    _check_keys(conv, "converge",
                {"scales", "reps", "time_grid", "rect_grid", "c_grid", "kappas", "ages"},
                {"scales", "reps"})
    scales = conv["scales"]
    if not isinstance(scales, list) or not scales:
        raise _config_error("converge.scales", "expected a nonempty array of integers")
    scales = tuple(_integer(v, f"converge.scales[{i}]", minimum=1)
                   for i, v in enumerate(scales))
    reps = _integer(conv["reps"], "converge.reps", minimum=1)
    time_grid = (_number_list(conv["time_grid"], "converge.time_grid", minimum=0.0)
                 if "time_grid" in conv else None)
    rect_grid = None
    if "rect_grid" in conv:
        boxes = conv["rect_grid"]
        if not isinstance(boxes, list) or not boxes:
            raise _config_error("converge.rect_grid", "expected a nonempty array of boxes")
        rect_grid = tuple(_parse_box(b, f"converge.rect_grid[{i}]")
                          for i, b in enumerate(boxes))
    c_grid = (_number_list(conv["c_grid"], "converge.c_grid", minimum=0.0)
              if "c_grid" in conv else None)
    # an infinite radius gets the radii's own message, just below
    kappas = (_number_list(conv["kappas"], "converge.kappas", infinite=True)
              if "kappas" in conv else None)
    for i, kappa in enumerate(kappas or ()):
        if not 0 < kappa < math.inf:
            raise _config_error(f"converge.kappas[{i}]",
                                f"must be positive and finite, got {kappa}")
    ages = (_number_list(conv["ages"], "converge.ages", minimum=0.0)
            if "ages" in conv else (0.25,))

    out = _out_dir(args, cfg)
    try:
        plan = ScalingPlan(base, scales, reps, time_grid=time_grid,
                           rect_grid=rect_grid, ages=ages)
        report = run_plan(plan, c_grid=c_grid, kappas=kappas)
    except (ScalingError, SimulationError, FluidModelError, DistributionError) as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from exc

    report_path = os.path.join(out, "report.csv")
    summary_path = os.path.join(out, "summary.json")
    try:
        report.to_csv(report_path)
        report.to_summary_json(summary_path)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write report: {exc}") from exc
    return [report_path, summary_path]


def cmd_invariant(cfg: dict, args) -> list[str]:
    specs = parse_model(cfg, allow_replay=False)
    sim_cfg = SimConfig(specs, horizon=0.0)
    out = _out_dir(args, cfg)
    try:
        model = fluid_model_of(sim_cfg)
        w_l, w_u = model.band
        w = float(args.w) if args.w is not None else w_l
        state = invariant_state(model, w)
    except (SimulationError, FluidModelError, DistributionError) as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from exc

    xs = np.linspace(0.0, w, 6)
    ys = np.linspace(0.0, w + model.d_tilde, 6)

    rows = []
    for k in range(len(model.classes)):
        for i in range(5):
            for j in range(5):
                box = Box(float(xs[i]), float(xs[i + 1]), float(ys[j]), float(ys[j + 1]))
                rows.append((k, "box", sig17(box.a), sig17(box.b), sig17(box.c),
                             sig17(box.d), sig17(state.measure(k, box))))
        rows.append((k, "queue_length", "", "", "", "", sig17(state.queue_length(k))))
        rows.append((k, "nonabandoning", "", "", "", "", sig17(state.nonabandoning(k))))
        rows.append((k, "abandoning", "", "", "", "", sig17(state.abandoning(k))))

    path = os.path.join(out, "invariant.csv")
    _write_csv(path, ("class", "metric", "a", "b", "c", "d", "value"), rows)
    return [path]


_COMMANDS = {
    "fluid": cmd_fluid,
    "simulate": cmd_simulate,
    "converge": cmd_converge,
    "invariant": cmd_invariant,
}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_CONFIG,
                       f"config error at {path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    cfg = _require_mapping(raw, "<top level>")
    _check_keys(cfg, "<top level>", _TOP_KEYS, set())
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluidq",
        description="Overloaded multiclass FIFO queues with reneging: "
                    "fluid solver, exact simulator, convergence harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("fluid", "solve the fluid model and export its functionals"),
            ("simulate", "run one exact simulation"),
            ("converge", "compare fluid-scaled simulations against fluid targets"),
            ("invariant", "evaluate the invariant state at a workload level")):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help=f"base seed (overrides {ENV_SEED} and the config)")
        sp.add_argument("--log-level", default="WARNING", type=str.upper,
                        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
                        help="log records at this level and above go to stderr "
                             "(default: WARNING)")
        if name == "invariant":
            sp.add_argument("--w", type=float, default=None,
                            help="workload level (default: the lower band endpoint)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level)
    try:
        cfg = _load_config(args.config)
        paths = _COMMANDS[args.command](cfg, args)
    except CliError as exc:
        print(f"fluidq: {exc}", file=sys.stderr)
        return exc.code
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
