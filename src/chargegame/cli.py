"""Command-line interface: scenario ingestion, solving, result emission.

Scenarios are single JSON documents (see ``configs/`` in the repository for
examples).  Subcommands:

* ``solve``          one equilibrium -> report.json + loads.csv + equilibrium_loads.csv
* ``sweep``          coalition-size sweep -> sweep.csv + sweep_audits.json
* ``dynamics-trace`` learning run with per-iteration trace -> trace.csv + report.json
* ``verify``         re-check a saved report.json

All numeric output is deterministic for a given config; report numbers are
written at 12 significant digits, while the loads.csv echo keeps full float
precision so re-ingesting it reproduces the game bit-exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .costs import cost_from_config, cost_to_config
from .dynamics import DEFAULT_GAP_TOL, DEFAULT_MAX_ITER
from .errors import (
    ChargeGameError,
    SpecError,
    _check,
    _FieldError,
    _is_integer,
    _is_number,
    _known_keys,
    _quiet,
    _real,
)
from .model import GameSpec, Profile
from .sweep import (
    DEFAULT_GRID_SIZE,
    DEFAULT_GRID_START,
    DEFAULT_GRID_STOP,
    MAX_SWEEP_COUNT,
    METHODS,
    _write_rows,
    audits_to_dict,
    default_grid,
    run_sweep,
    solve,
    write_csv,
)
from .verify import (
    EquilibriumReport,
    SolverStatus,
    check_cost_ordering,
    check_wardrop,
    make_report,
    vi_gap,
)

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_CONFIG_ERROR = 2

SOLVER_DEFAULTS = {
    "method": "auto",
    "max_iter": DEFAULT_MAX_ITER,
    "gap_tol": DEFAULT_GAP_TOL,
    "step_size": "default",
}

GAME_KEYS = tuple(f.name for f in fields(GameSpec) if f.name != "base_load")

SWEEP_DEFAULTS = {
    "start": DEFAULT_GRID_START,
    "stop": DEFAULT_GRID_STOP,
    "count": DEFAULT_GRID_SIZE,
}


def _round_floats(obj):
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def load_profile_csv(path: str, normalize: bool = False) -> np.ndarray:
    """Read a ``t,load`` CSV with rows t = 1..T in order.

    ``normalize`` rescales so the maximum load equals one (the convention
    is recorded in the output metadata, not assumed by the reader).
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SpecError(f"{path}: empty load-profile CSV") from None
        if [h.strip().lower() for h in header] != ["t", "load"]:
            raise SpecError(f"{path}: expected header 't,load', got {header}")
        loads = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise SpecError(f"{path}:{lineno}: expected two columns")
            try:
                t = int(row[0])
                value = float(row[1])
            except ValueError:
                raise SpecError(
                    f"{path}:{lineno}: non-numeric entry {row!r}"
                ) from None
            if not math.isfinite(value):
                raise SpecError(f"{path}:{lineno}: non-finite load {row[1]!r}")
            expected = len(loads) + 1
            if t != expected:
                raise SpecError(
                    f"{path}:{lineno}: slot column must run 1..T in order; "
                    f"expected t={expected}, got t={t}"
                )
            loads.append(value)
    if not loads:
        raise SpecError(f"{path}: no load rows found")
    result = np.array(loads)
    return _peak_normalized(result, path) if normalize else result


def _peak_normalized(loads: np.ndarray, source: str) -> np.ndarray:
    """``loads`` scaled so their maximum is one; an empty profile, or one
    with no positive load, read from ``source``, is refused."""
    if not loads.size:
        raise SpecError(f"{source}: cannot normalize an empty load profile")
    peak = loads.max()
    if peak <= 0:
        raise SpecError(f"{source}: cannot normalize a load profile with no positive load")
    return loads / peak


def resolve_config(raw: dict, config_dir: str, normalize_flag: bool = False) -> dict:
    """Fill in every default, check and convert every solver and sweep
    field, and resolve the load profile to a vector.

    This is the one place that reads a raw config: the rest of the CLI
    reads the typed values it returns, and :func:`build_game` checks the
    game fields as it converts them.  A wrong type, an out-of-range value
    or an unknown game/solver/sweep key raises a SpecError naming the
    field, which the CLI reports as ``malformed config: <field> ...``.
    """
    if not isinstance(raw, dict):
        raise SpecError("config must be a JSON object")
    for key in ("game", "load_profile"):
        if key not in raw:
            raise SpecError(f"config is missing the '{key}' section")

    game = dict(_section(raw, "game", GAME_KEYS))
    for key in ("horizon", "duration", "weights"):
        if key not in game:
            raise SpecError(f"config game section is missing '{key}'")
    game.setdefault("power", 1.0)
    game.setdefault("cost", {"kind": "linear", "slope": 1.0, "intercept": 0.0})

    profile_cfg = raw["load_profile"]
    meta = {"normalized": False, "convention": "max load scaled to 1"}
    if isinstance(profile_cfg, dict):
        path = profile_cfg.get("csv")
        _check("load_profile.csv", path, "a path", isinstance(path, str))
        if not os.path.isabs(path):
            path = os.path.join(config_dir, path)
        normalize = profile_cfg.get("normalize", False)
        _check("load_profile.normalize", normalize, "true or false", isinstance(normalize, bool))
        normalize = normalize or normalize_flag
        loads = load_profile_csv(path, normalize=normalize)
        meta.update({"source": profile_cfg["csv"], "normalized": normalize})
    else:
        _check("load_profile", profile_cfg, "a list or a mapping", isinstance(profile_cfg, list))
        loads = np.array(_reals("load_profile", profile_cfg))
        if normalize_flag:
            loads = _peak_normalized(loads, "inline load_profile")
            meta["normalized"] = True
        meta["source"] = "inline"

    sweep = None
    if raw.get("sweep") is not None:
        sweep = _resolve_sweep(_section(raw, "sweep", (*SWEEP_DEFAULTS, "grid")))
    return {
        "game": game,
        "load_profile": [float(x) for x in loads],
        "load_profile_meta": meta,
        "solver": _resolve_solver(_section(raw, "solver", SOLVER_DEFAULTS)),
        "sweep": sweep,
    }


def _integer(field: str, value, minimum: int) -> int:
    return int(_check(field, value, f"an integer >= {minimum}", _is_integer(value, minimum)))


def _reals(field: str, values) -> list[float]:
    """The entries of the list ``values`` as floats, each a finite number."""
    _check(field, values, "a list", isinstance(values, list))
    return [_real(f"{field}[{i}]", x) for i, x in enumerate(values)]


def _section(raw: dict, name: str, keys) -> dict:
    """The ``name`` mapping of a config, after rejecting keys not in ``keys``."""
    given = raw.get(name, {})
    _check(name, given, "a mapping", isinstance(given, dict))
    _known_keys(name, given, keys)
    return given


def _resolve_solver(given: dict) -> dict:
    solver = {**SOLVER_DEFAULTS, **given}
    method, step, gap_tol = solver["method"], solver["step_size"], solver["gap_tol"]
    if step != "default":
        ok = _is_number(step) and step > 0
        step = float(_check("solver.step_size", step, '"default" or a number > 0', ok))
    tol_ok = _is_number(gap_tol) and gap_tol >= 0
    return {
        "method": _check(
            "solver.method", method, f"one of {'/'.join(METHODS)}", method in METHODS
        ),
        "max_iter": _integer("solver.max_iter", solver["max_iter"], 0),
        "gap_tol": float(_check("solver.gap_tol", gap_tol, "a finite number >= 0", tol_ok)),
        "step_size": step,
    }


def _resolve_sweep(given: dict) -> dict:
    if "grid" not in given:
        sweep = {**SWEEP_DEFAULTS, **given}
        count = sweep["count"]
        count_ok = _is_integer(count, 1) and count <= MAX_SWEEP_COUNT
        return {
            "start": _real("sweep.start", sweep["start"]),
            "stop": _real("sweep.stop", sweep["stop"]),
            "count": int(
                _check("sweep.count", count, f"an integer in [1, {MAX_SWEEP_COUNT}]", count_ok)
            ),
        }
    _check("sweep.grid", given, "given without start/stop/count", len(given) == 1)
    grid = given["grid"]
    ok = isinstance(grid, list) and bool(grid) and all(_is_number(m) for m in grid)
    _check("sweep.grid", grid, "a nonempty list of numbers", ok)
    return {"grid": [float(m) for m in grid]}


def build_game(resolved: dict) -> GameSpec:
    game = resolved["game"]
    return GameSpec(
        horizon=_integer("game.horizon", game["horizon"], 1),
        duration=_integer("game.duration", game["duration"], 1),
        power=_real("game.power", game["power"]),
        base_load=np.array(resolved["load_profile"]),
        cost=cost_from_config(game["cost"], "game.cost"),
        weights=np.array(_reals("game.weights", game["weights"])),
    )


def report_to_dict(report: EquilibriumReport, resolved: dict) -> dict:
    spec = report.game
    game = {f.name: getattr(spec, f.name) for f in fields(spec)}
    game["cost"] = cost_to_config(spec.cost)
    return _round_floats(
        {
            "game": game,
            "load_profile_meta": resolved.get("load_profile_meta", {}),
            "status": report.status.value,
            "iterations": report.iterations,
            "vi_gap": report.vi_gap,
            "wardrop_slack": report.wardrop_slack,
            "boundary": report.boundary,
            "profile": report.profile.matrix(),
            "loads": report.loads._asdict(),
            "costs": report.costs._asdict(),
            "reduced_costs": None if report.reduced is None else report.reduced._asdict(),
        }
    )


def report_from_dict(data: dict) -> tuple[GameSpec, Profile, dict]:
    _check("report", data, "a mapping", isinstance(data, dict))
    game, rows = data["game"], data["profile"]
    _check("game", game, "a mapping", isinstance(game, dict))
    spec = build_game({"game": game, "load_profile": _reals("game.base_load", game["base_load"])})
    _check("profile", rows, "a list", isinstance(rows, list))
    rows = [_reals(f"profile[{i}]", row) for i, row in enumerate(rows)]
    return spec, Profile.from_rows(spec, rows), data


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_loads_echo(path: str, spec: GameSpec) -> None:
    # Full float precision: re-ingesting this file must reproduce the
    # game's load vector bit-exactly.
    rows = ((t, repr(float(value))) for t, value in enumerate(spec.base_load, start=1))
    _write_rows(path, ["t", "load"], rows)


def _write_equilibrium_loads(path: str, report: EquilibriumReport) -> None:
    spec = report.game
    names = (
        ["coalition"]
        if spec.num_coalitions == 1
        else [f"coalition_{k}" for k in range(1, spec.num_players)]
    )
    rows = []
    for t in range(spec.horizon):
        ev_parts = [spec.power * report.loads.per_player[i][t] for i in range(spec.num_players)]
        rows.append([t + 1, spec.base_load[t], *ev_parts, spec.base_load[t] + sum(ev_parts)])
    _write_rows(path, ["t", "non_ev", "individuals", *names, "total"], rows)


def _write_trace(path: str, report: EquilibriumReport) -> None:
    players, slots = report.trace[0].flows.shape
    header = ["iteration", "gap"] + [
        f"x{i}_{t + 1}" for i in range(players) for t in range(slots)
    ]
    rows = ([row.iteration, row.gap, *row.flows.ravel().tolist()] for row in report.trace)
    _write_rows(path, header, rows)


@contextlib.contextmanager
def _ingesting(what: str):
    """Report a malformed input's TypeError, ValueError or KeyError as a
    SpecError, so the CLI exits with EXIT_CONFIG_ERROR and no traceback."""
    try:
        yield
    except _FieldError as exc:
        raise SpecError(f"malformed {what}: {exc}") from exc
    except ChargeGameError:
        raise
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise SpecError(f"malformed {what}: {detail}") from exc


def _read_json(path: str, what: str):
    """The JSON document in the file ``path``; a file that cannot be opened,
    decoded as UTF-8 or parsed raises a SpecError naming the ``what`` input."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    # ValueError: decoding or parsing; RecursionError: nesting too deep to parse.
    except (OSError, ValueError, RecursionError) as exc:
        detail = getattr(exc, "strerror", None) or exc
        raise SpecError(f"unreadable {what} {path}: {detail}") from exc


def _load_config(args) -> tuple[dict, GameSpec] | None:
    """Read, resolve and build the scenario of ``args.config``.

    Returns the resolved config and its game, or None once --print-config
    has printed the resolved config.
    """
    raw = _read_json(args.config, "config")
    config_dir = os.path.dirname(os.path.abspath(args.config))
    with _ingesting("config"):
        resolved = resolve_config(raw, config_dir, normalize_flag=args.normalize)
        spec = build_game(resolved)
    if args.print_config:
        print(json.dumps(_round_floats(resolved), indent=2, sort_keys=True))
        return None
    return resolved, spec


def _cmd_solve(args, trace_every: int = 0) -> int:
    loaded = _load_config(args)
    if loaded is None:
        return EXIT_OK
    resolved, spec = loaded
    options = dict(resolved["solver"])
    # Traces only exist for the iterative solver.
    if trace_every > 0:
        options["method"] = "dynamics"
    report = solve(spec, **options, trace_every=trace_every)
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "report.json"), report_to_dict(report, resolved))
    _write_loads_echo(os.path.join(args.out, "loads.csv"), spec)
    _write_equilibrium_loads(os.path.join(args.out, "equilibrium_loads.csv"), report)
    if trace_every > 0:
        _write_trace(os.path.join(args.out, "trace.csv"), report)
    ok = report.status in (SolverStatus.ANALYTIC, SolverStatus.CONVERGED)
    print(
        f"{report.status.value}: vi_gap={report.vi_gap:.3e} "
        f"iterations={report.iterations} -> {args.out}"
    )
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def _cmd_sweep(args) -> int:
    loaded = _load_config(args)
    if loaded is None:
        return EXIT_OK
    resolved, spec = loaded
    sweep_cfg = resolved["sweep"] or SWEEP_DEFAULTS
    if "grid" in sweep_cfg:
        grid = np.array(sweep_cfg["grid"])
    else:
        grid = default_grid(sweep_cfg["count"], sweep_cfg["start"], sweep_cfg["stop"])
    options = dict(resolved["solver"])
    result = run_sweep(spec, grid, options.pop("method"), **options)
    os.makedirs(args.out, exist_ok=True)
    write_csv(result, os.path.join(args.out, "sweep.csv"))
    _write_json(
        os.path.join(args.out, "sweep_audits.json"),
        _round_floats(
            {
                "solver": result.solver,
                "audits": audits_to_dict(result),
                "load_profile_meta": resolved["load_profile_meta"],
            }
        ),
    )
    failures = [p for p in result.points if p.error is not None]
    print(
        f"sweep: {len(result.points)} points ({len(failures)} failed), "
        f"audits {'pass' if all(v.passed for v in result.audits.values()) else 'FAIL'} "
        f"-> {args.out}"
    )
    return EXIT_OK if not failures else EXIT_NOT_CONVERGED


def _cmd_verify(args) -> int:
    tol_ok = _is_number(args.gap_tol) and args.gap_tol >= 0
    _check("--gap-tol", args.gap_tol, "a finite number >= 0", tol_ok)
    data = _read_json(args.report, "report")
    with _ingesting("report"):
        spec, profile, stored = report_from_dict(data)
        status = SolverStatus(stored["status"])
        iterations = _integer("iterations", stored["iterations"], 0)
        stored_gap = _real("vi_gap", stored["vi_gap"])
    gap = vi_gap(spec, profile)
    report = make_report(spec, profile, status, iterations=iterations, gap=gap)
    wardrop_ok = report.wardrop_slack <= args.gap_tol
    ordering = check_cost_ordering(report, tol=max(args.gap_tol, 1e-9))
    drift = abs(gap - stored_gap)
    ok = gap <= args.gap_tol and wardrop_ok and ordering.passed
    print(f"recomputed vi_gap={gap:.3e} (stored {stored_gap:.3e}, drift {drift:.1e})")
    # The report carries the worst slack; only a failure needs the witness.
    if wardrop_ok:
        print("wardrop: pass")
    else:
        print(f"wardrop: FAIL {check_wardrop(spec, profile, eps=args.gap_tol).witness}")
    print(
        "cost ordering: "
        + ("pass" if ordering.passed else "FAIL " + "; ".join(ordering.violations))
    )
    print("verdict:", "equilibrium certified" if ok else "NOT certified")
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargegame",
        description="Composite-equilibrium solvers for EV charging games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument(
            "--normalize",
            action="store_true",
            help="rescale the load profile so its maximum is 1",
        )
        p.add_argument(
            "--print-config",
            action="store_true",
            help="print the fully resolved config and exit",
        )

    solve = sub.add_parser("solve", help="compute one equilibrium")
    add_common(solve)

    sweep = sub.add_parser("sweep", help="sweep the coalition size")
    add_common(sweep)

    trace = sub.add_parser(
        "dynamics-trace", help="run the learning dynamics with a per-iteration trace"
    )
    add_common(trace)
    trace.add_argument(
        "--trace-every", type=int, default=1, help="record every N-th iteration"
    )

    verify = sub.add_parser("verify", help="re-check a saved report")
    verify.add_argument("--report", required=True, help="report.json path")
    verify.add_argument("--gap-tol", type=float, default=1e-5)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _quiet():
            if args.command == "solve":
                return _cmd_solve(args)
            if args.command == "sweep":
                return _cmd_sweep(args)
            if args.command == "dynamics-trace":
                every = _integer("--trace-every", args.trace_every, 1)
                return _cmd_solve(args, trace_every=every)
            return _cmd_verify(args)
    # An OSError is an input or output path the system refused: a missing
    # load CSV, or an --out that names a file.
    except (ChargeGameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
