"""CLI: config resolution, CSV ingestion, subcommands, determinism."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import chargegame
from chargegame import (
    BracketingError,
    CustomCost,
    SolverStatus,
    SpecError,
    cli,
    instance_from_spec,
    verify,
)
from chargegame.cli import MAX_SWEEP_COUNT, build_game, load_profile_csv, main, resolve_config

NIGHT_LOADS = [0.9, 1.0, 0.95, 0.7, 0.5, 0.45, 0.6]


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


BAND_GAME = {
    "horizon": 3,
    "duration": 2,
    "power": 1.0,
    "cost": {"kind": "linear", "slope": 1.0, "intercept": 0.0},
    "weights": [0.0, 1.0],
}


def band_config(tmp_path, **overrides):
    payload = {"game": BAND_GAME, "load_profile": [1.5, 1.0, 1.0]}
    payload.update(overrides)
    return write_config(tmp_path / "config.json", payload)


# --- load profile csv --------------------------------------------------------


def test_load_profile_csv_reads_rows_in_order(tmp_path):
    path = tmp_path / "night.csv"
    rows = "\n".join(f"{t},{x}" for t, x in enumerate(NIGHT_LOADS, start=1))
    path.write_text("t,load\n" + rows + "\n")
    np.testing.assert_array_equal(load_profile_csv(str(path)), NIGHT_LOADS)


def test_load_profile_csv_single_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("t,load\n1,2.5\n")
    np.testing.assert_array_equal(load_profile_csv(str(path)), [2.5])


def test_load_profile_csv_normalize(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("t,load\n1,2\n2,4\n")
    np.testing.assert_allclose(load_profile_csv(str(path), normalize=True), [0.5, 1.0])


def test_load_profile_csv_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("slot,load\n1,1\n")
    with pytest.raises(SpecError):
        load_profile_csv(str(bad_header))
    missing = tmp_path / "b.csv"
    missing.write_text("t,load\n1,1\n3,1\n")
    with pytest.raises(SpecError):
        load_profile_csv(str(missing))
    unsorted = tmp_path / "c.csv"
    unsorted.write_text("t,load\n2,1\n1,1\n")
    with pytest.raises(SpecError):
        load_profile_csv(str(unsorted))
    text = tmp_path / "d.csv"
    text.write_text("t,load\n1,high\n")
    with pytest.raises(SpecError):
        load_profile_csv(str(text))
    empty = tmp_path / "e.csv"
    empty.write_text("t,load\n")
    with pytest.raises(SpecError):
        load_profile_csv(str(empty))
    headless = tmp_path / "f.csv"
    headless.write_text("")
    with pytest.raises(SpecError, match="empty load-profile CSV"):
        load_profile_csv(str(headless))
    one_column = tmp_path / "g.csv"
    one_column.write_text("t,load\n1,1\n2\n")
    with pytest.raises(SpecError, match=":3: expected two columns"):
        load_profile_csv(str(one_column))
    # A blank or whitespace-only row is skipped, and the lines after it are
    # still counted from the file's start.
    blank = tmp_path / "h.csv"
    blank.write_text("t,load\n1,1\n\n , \n2,2\n3\n")
    with pytest.raises(SpecError, match=":6: expected two columns"):
        load_profile_csv(str(blank))
    blank.write_text("t,load\n1,1\n\n , \n2,2\n")
    np.testing.assert_array_equal(load_profile_csv(str(blank)), [1.0, 2.0])


# --- config resolution -------------------------------------------------------


def test_resolve_config_fills_defaults(tmp_path):
    raw = {
        "game": {"horizon": 3, "duration": 2, "weights": [0.5, 0.5]},
        "load_profile": [1.0, 1.0, 1.0],
    }
    resolved = resolve_config(raw, str(tmp_path))
    assert resolved["game"]["power"] == 1.0
    assert resolved["solver"]["max_iter"] == 100_000
    assert resolved["solver"]["gap_tol"] == 1e-6
    assert resolved["solver"]["method"] == "auto"
    assert resolved["load_profile_meta"]["source"] == "inline"


def test_resolve_config_reads_csv_relative_to_config(tmp_path):
    csv_path = tmp_path / "loads.csv"
    csv_path.write_text("t,load\n1,2\n2,4\n")
    raw = {
        "game": {"horizon": 2, "duration": 1, "weights": [1.0]},
        "load_profile": {"csv": "loads.csv", "normalize": True},
    }
    resolved = resolve_config(raw, str(tmp_path))
    assert resolved["load_profile"] == [0.5, 1.0]
    assert resolved["load_profile_meta"]["normalized"]


def test_resolve_config_errors():
    with pytest.raises(SpecError):
        resolve_config({"game": {}}, ".")
    with pytest.raises(SpecError):
        resolve_config(
            {"game": {"horizon": 3}, "load_profile": [1, 1, 1]}, "."
        )


# --- solve -------------------------------------------------------------------


def test_solve_band_instance_writes_artifacts(tmp_path, capsys):
    config = band_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "analytic"
    assert report["profile"][1][0] == pytest.approx(0.375, abs=1e-9)
    assert report["vi_gap"] <= 1e-8
    # loads echo re-ingests bit-exactly
    echoed = load_profile_csv(str(out / "loads.csv"))
    assert list(echoed) == [1.5, 1.0, 1.0]


def test_loads_echo_round_trips_awkward_floats(tmp_path):
    loads = [0.1 + 0.2, 1.0 / 3.0, 2.0 / 7.0]
    config = band_config(tmp_path, load_profile=loads)
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) in (0, 1)
    echoed = load_profile_csv(str(out / "loads.csv"))
    assert list(echoed) == loads


def test_equilibrium_loads_columns_and_totals(tmp_path):
    config = write_config(
        tmp_path / "night.json",
        {
            "game": {
                "horizon": 7,
                "duration": 3,
                "power": 0.2,
                "cost": {"kind": "linear"},
                "weights": [0.5, 0.5],
            },
            "load_profile": NIGHT_LOADS,
            "solver": {"method": "dynamics", "gap_tol": 1e-6, "step_size": 1.0},
        },
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    with open(out / "equilibrium_loads.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert list(rows[0]) == ["t", "non_ev", "individuals", "coalition", "total"]
    assert len(rows) == 7
    for row in rows:
        parts = float(row["non_ev"]) + float(row["individuals"]) + float(row["coalition"])
        assert float(row["total"]) == pytest.approx(parts, abs=1e-9)


def test_equilibrium_loads_name_each_of_several_coalitions(tmp_path):
    config = write_config(
        tmp_path / "two.json",
        {"game": {"horizon": 3, "duration": 2, "weights": [0.4, 0.3, 0.3]},
         "load_profile": [1.5, 1.0, 1.0]},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    with open(out / "equilibrium_loads.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert list(rows[0]) == ["t", "non_ev", "individuals", "coalition_1", "coalition_2", "total"]
    for row in rows:
        parts = sum(float(row[name]) for name in list(row)[1:-1])
        assert float(row["total"]) == pytest.approx(parts, abs=1e-9)


def test_solve_deterministic_output(tmp_path):
    config = band_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", "--config", config, "--out", str(out1)]) == 0
    assert main(["solve", "--config", config, "--out", str(out2)]) == 0
    for name in ("report.json", "loads.csv", "equilibrium_loads.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_nonconverged_exit_code(tmp_path):
    config = band_config(
        tmp_path,
        solver={"method": "dynamics", "max_iter": 3, "gap_tol": 1e-12},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "max-iter-reached"


def test_config_error_exit_code_and_message(tmp_path, capsys):
    config = band_config(tmp_path, game={
        "horizon": 3, "duration": 5, "weights": [1.0],
    })
    assert main(["solve", "--config", config, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "duration" in err


def test_an_inline_load_profile_of_the_wrong_length_is_a_config_error(tmp_path, capsys):
    config = band_config(tmp_path, load_profile=[1.5, 1.0])
    assert main(["solve", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: base_load must have length 3, got shape (2,)\n"


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_a_horizon_past_the_incidence_bound_is_a_config_error(tmp_path, capsys, command):
    # 100,000 slots would need a dense start-slot x slot incidence of
    # 74.5 GiB; the game is refused before it is built, naming the horizon.
    config = write_config(tmp_path / "config.json", {
        "game": dict(BAND_GAME, horizon=100_000, duration=1, weights=[0.5, 0.5]),
        "load_profile": [1.0] * 100_000,
        "solver": {"method": "dynamics"},
    })
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: horizon 100000 with duration 1 needs")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_print_config_shows_defaults(tmp_path, capsys):
    config = band_config(tmp_path)
    assert main(["solve", "--config", config, "--print-config"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["solver"]["max_iter"] == 100_000
    assert shown["solver"]["method"] == "auto"
    assert shown["load_profile"] == [1.5, 1.0, 1.0]


def test_normalizing_an_all_zero_profile_is_refused(tmp_path, capsys):
    (tmp_path / "loads.csv").write_text("t,load\n1,0.0\n2,0.0\n3,0.0\n")
    from_csv = band_config(tmp_path, load_profile={"csv": "loads.csv", "normalize": True})
    assert main(["solve", "--config", from_csv, "--print-config"]) == 2
    refused = "cannot normalize a load profile with no positive load"
    assert f"loads.csv: {refused}" in capsys.readouterr().err
    inline = band_config(tmp_path, load_profile=[0.0, 0.0, 0.0])
    assert main(["solve", "--config", inline, "--normalize", "--print-config"]) == 2
    assert f"inline load_profile: {refused}" in capsys.readouterr().err
    # A negative profile is not all zero, but it has no positive load either.
    negative = band_config(tmp_path, load_profile=[-1.0, -2.0, -0.5])
    assert main(["solve", "--config", negative, "--normalize", "--print-config"]) == 2
    assert f"inline load_profile: {refused}" in capsys.readouterr().err
    # An empty profile has no maximum; numpy's reduction error must not leak.
    empty = band_config(tmp_path, load_profile=[])
    assert main(["solve", "--config", empty, "--normalize", "--print-config"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: inline load_profile: cannot normalize an empty load profile\n"


@pytest.mark.parametrize("cell", ["nan", "inf", "1e999"])
@pytest.mark.parametrize("flags", [["--print-config"], []], ids=["print-config", "solve"])
def test_a_non_finite_csv_load_is_refused_with_its_line(tmp_path, capsys, cell, flags):
    (tmp_path / "loads.csv").write_text(f"t,load\n1,1.5\n2,{cell}\n3,1\n")
    config = band_config(tmp_path, load_profile={"csv": "loads.csv"})
    assert main(["solve", "--config", config, "--out", str(tmp_path / "out"), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'loads.csv'}:3: non-finite load {cell!r}\n"


def test_normalize_flag_applies_to_inline_profile(tmp_path, capsys):
    config = band_config(tmp_path, load_profile=[3.0, 2.0, 2.0])
    assert main(["solve", "--config", config, "--normalize", "--print-config"]) == 0
    shown = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(shown["load_profile"], [1.0, 2 / 3, 2 / 3], atol=1e-11)
    assert shown["load_profile_meta"]["normalized"]


# --- sweep -------------------------------------------------------------------


def test_sweep_quadratic_normalized_ratio(tmp_path):
    config = write_config(
        tmp_path / "quad_sweep.json",
        {
            "game": {
                "horizon": 3,
                "duration": 2,
                "cost": {"kind": "quadratic"},
                "weights": [0.0, 1.0],
            },
            "load_profile": [1.5, 1.0, 1.0],
            "sweep": {"count": 101},
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 101
    last = rows[-1]
    assert float(last["norm_cost_coalition"]) == pytest.approx(0.97, abs=0.01)
    assert float(last["norm_cost_individuals"]) == pytest.approx(0.88, abs=0.01)
    audits = json.loads((out / "sweep_audits.json").read_text())
    assert all(entry["passed"] for entry in audits["audits"].values())


def test_sweep_explicit_grid(tmp_path):
    config = band_config(tmp_path, sweep={"grid": [0.25, 0.5, 1.0]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [float(r["m"]) for r in rows] == [0.25, 0.5, 1.0]


# --- the closed form's domain ------------------------------------------------

SHIPPED_CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")


@pytest.mark.parametrize(
    "name", ["three_slot_gap_sweep", "three_slot_quadratic_sweep", "three_slot_solve"]
)
def test_shipped_three_slot_configs_stay_on_the_closed_form(tmp_path, name):
    config = os.path.join(SHIPPED_CONFIGS, name + ".json")
    assert main(["solve", "--config", config, "--out", str(tmp_path / "solve")]) == 0
    assert json.loads((tmp_path / "solve" / "report.json").read_text())["status"] == "analytic"
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "sweep")]) == 0
    audits = json.loads((tmp_path / "sweep" / "sweep_audits.json").read_text())
    assert audits["solver"] == "analytic"
    with open(tmp_path / "sweep" / "sweep.csv", newline="") as handle:
        assert {row["status"] for row in csv.DictReader(handle)} == {"analytic"}


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("name", ["three_slot_gap_sweep", "three_slot_quadratic_sweep"])
def test_shipped_sweeps_write_their_golden_artifacts(tmp_path, name):
    # tests/golden holds these configs' sweep artifacts byte for byte.  The
    # linear and quadratic families take only elementwise arithmetic, which
    # IEEE rounding fixes, so the bytes hold on every platform.
    config = os.path.join(SHIPPED_CONFIGS, name + ".json")
    assert main(["sweep", "--config", config, "--out", str(tmp_path)]) == 0
    for artifact in ("sweep.csv", "sweep_audits.json"):
        with open(os.path.join(GOLDEN, name, artifact), "rb") as handle:
            assert (tmp_path / artifact).read_bytes() == handle.read(), artifact


@pytest.mark.parametrize(
    "command, golden, artifacts",
    [
        ("solve", "three_slot_solve", ()),
        ("dynamics-trace", "three_slot_solve_dynamics_trace", ("trace.csv",)),
    ],
    ids=["solve", "dynamics-trace"],
)
def test_shipped_solve_writes_its_golden_artifacts(tmp_path, command, golden, artifacts):
    # The single-point closed form, pinned like the sweeps: its report
    # carries the certificate gap of the split the root-finder returns.
    # The dynamics-trace run (10 iterations) pins a dynamics report and a
    # trace; its softmax takes exp, so its last digits rest on the
    # platform's libm agreeing to 12 significant digits.  The game is
    # linear, so its learning steps also rest on two small BLAS products,
    # B @ rows and (B @ rows) @ K (model._linear_form).
    config = os.path.join(SHIPPED_CONFIGS, "three_slot_solve.json")
    assert main([command, "--config", config, "--out", str(tmp_path)]) == 0
    for artifact in ("report.json", "loads.csv", "equilibrium_loads.csv", *artifacts):
        with open(os.path.join(GOLDEN, golden, artifact), "rb") as handle:
            assert (tmp_path / artifact).read_bytes() == handle.read(), artifact


@pytest.mark.parametrize(
    "name",
    ["night_charging", "three_slot_gap_sweep", "three_slot_quadratic_sweep", "three_slot_solve"],
)
def test_shipped_configs_print_their_golden_config(capsys, name):
    config = os.path.join(SHIPPED_CONFIGS, name + ".json")
    with open(os.path.join(GOLDEN, name, "print_config.json")) as handle:
        golden = handle.read()
    # Every command that reads a config prints it the same way.
    for command in ("solve", "sweep"):
        assert main([command, "--config", config, "--print-config"]) == 0
        assert capsys.readouterr().out == golden


def test_gap_sweep_prints_the_exact_linear_split(tmp_path):
    # The gap sweep's split is the line x1 = (M - 0.3) / 4 of the paper:
    # every printed x1 equals the exact rational root of the float inputs,
    # printed the same way.
    config = os.path.join(SHIPPED_CONFIGS, "three_slot_gap_sweep.json")
    assert main(["sweep", "--config", config, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.csv", newline="") as handle:
        rows = [row for row in csv.DictReader(handle) if row["regime"] == "coalition-split"]
    for row in rows:
        exact = (Fraction(1) + Fraction(1.0) + Fraction(float(row["m"])) - Fraction(2.3)) / 4
        assert row["x1"] == f"{float(exact):.12g}", row["m"]
    assert len(rows) > 50


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_analytic_refuses_a_game_with_two_coalitions(tmp_path, capsys, command):
    config = band_config(
        tmp_path, game=dict(BAND_GAME, weights=[0.4, 0.3, 0.3]), solver={"method": "analytic"}
    )
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exactly one coalition" in err


def test_auto_sweeps_a_four_slot_game_by_the_dynamics(tmp_path):
    config = band_config(
        tmp_path,
        game=dict(BAND_GAME, horizon=4, weights=[0.5, 0.5]),
        load_profile=[1.5, 1.0, 1.0, 0.5],
        solver={"method": "auto"},
        sweep={"grid": [0.25, 0.5, 0.75]},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    assert json.loads((out / "sweep_audits.json").read_text())["solver"] == "dynamics"


def test_an_overflowing_closed_form_is_an_error(tmp_path, capsys):
    config = band_config(
        tmp_path,
        game=dict(BAND_GAME, cost={"kind": "exponential", "rate": 400.0}, weights=[0.5, 0.5]),
        load_profile=[2.3, 1.0, 1.0],
    )
    assert main(["solve", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: non-finite activation threshold")


def test_auto_solves_a_massless_coalition_by_the_dynamics(tmp_path):
    config = band_config(tmp_path, game=dict(BAND_GAME, weights=[1.0, 0.0]))
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["status"] == "converged"


def test_analytic_solve_with_a_non_finite_certificate_is_an_error(tmp_path, capsys):
    # The coalition's gradient divided by a subnormal mass overflows; the
    # CLI reports the error alone, without numpy's warnings (which the
    # suite would turn into failures).
    config = band_config(
        tmp_path, game=dict(BAND_GAME, weights=[1.0, 5e-324]), load_profile=[2.0, 1.0, 1.0]
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: non-finite strategy costs[^\n]*\n", err)
    assert not (out / "report.json").exists()


def test_auto_does_not_fall_back_on_a_solver_error(tmp_path):
    # The game lies in the closed form's domain, so a failing closed form is
    # the answer: auto falls back to the dynamics only when the gate refuses.
    liar = CustomCost(
        value_fn=lambda x: np.asarray(x, dtype=float),
        derivative_fn=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
        domain_bound=30.0,
    )
    resolved = resolve_config({"game": BAND_GAME, "load_profile": [1.2, 1.0, 1.0]}, str(tmp_path))
    spec = dataclasses.replace(build_game(resolved), cost=liar)
    instance_from_spec(spec, 1.0)
    with pytest.raises(BracketingError):
        chargegame.solve(spec)


def first_broken_condition(game, loads):
    """The closed form's domain condition a game breaks first, or None."""
    if len(game["weights"]) != 2:
        return "exactly one coalition"
    if game["power"] != 1.0:
        return "horizon=3, duration=2, power=1"
    if loads[0] < loads[2]:
        return "peak_load must be >= offpeak_load"
    if game["weights"][1] == 0.0:
        return "coalition_size must lie in (0, 1]"
    return None


def test_auto_picks_analytic_exactly_where_the_gate_accepts(tmp_path, capsys, rng):
    broken = []
    for case in range(60):
        masses = rng.uniform(0.1, 1.0, size=rng.integers(1, 4))
        masses[1:] *= rng.uniform() < 0.7  # some games give their coalitions no mass
        loads = rng.uniform(0.0, 3.0, size=3).tolist()
        game = dict(
            BAND_GAME,
            power=[1.0, 1.0, 1.0, 0.8][case % 4],
            cost={"kind": ["linear", "quadratic", "exponential"][case % 3]},
            weights=(masses / masses.sum()).tolist(),
        )
        resolved = resolve_config({"game": game, "load_profile": loads}, str(tmp_path))
        spec = build_game(resolved)
        size = float(spec.weights[-1])
        expected = first_broken_condition(game, loads)
        broken.append(expected)
        if expected is None:
            instance_from_spec(spec, size)
            report = chargegame.solve(spec)
            assert report.status is SolverStatus.ANALYTIC and report.vi_gap <= 1e-8
            continue
        with pytest.raises(SpecError, match=re.escape(expected)):
            instance_from_spec(spec, size)
        # No iteration runs, so the status tells which method answered.
        assert chargegame.solve(spec, max_iter=0).status is not SolverStatus.ANALYTIC
        # Asked for by name, the closed form exits with the gate's reason.
        config = write_config(
            tmp_path / "config.json",
            {"game": game, "load_profile": loads, "solver": {"method": "analytic"}},
        )
        capsys.readouterr()
        assert main(["solve", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert expected in capsys.readouterr().err
    assert set(broken) == {
        None,
        "exactly one coalition",
        "horizon=3, duration=2, power=1",
        "peak_load must be >= offpeak_load",
        "coalition_size must lie in (0, 1]",
    }


# --- dynamics trace ----------------------------------------------------------


def test_dynamics_trace_writes_iterations(tmp_path):
    config = band_config(tmp_path)
    out = tmp_path / "out"
    assert main(
        ["dynamics-trace", "--config", config, "--out", str(out), "--trace-every", "5"]
    ) == 0
    with open(out / "trace.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert list(rows[0])[:2] == ["iteration", "gap"]
    assert int(rows[0]["iteration"]) == 0
    gaps = [float(r["gap"]) for r in rows]
    assert gaps[-1] <= 1e-6
    assert float(rows[-1]["x1_1"]) == pytest.approx(0.375, abs=1e-3)


@pytest.mark.parametrize("every", ["0", "-3"])
def test_dynamics_trace_refuses_a_trace_every_below_one(tmp_path, capsys, every):
    # -3 used to trace every iteration and exit 0.
    out = tmp_path / "out"
    argv = ["dynamics-trace", "--config", band_config(tmp_path), "--out", str(out)]
    assert main([*argv, f"--trace-every={every}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --trace-every must be an integer >= 1, got {every}\n"
    assert not out.exists()


# --- verify ------------------------------------------------------------------


def test_verify_certifies_emitted_report(tmp_path):
    config = band_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    report_path = str(out / "report.json")
    assert main(["verify", "--report", report_path, "--gap-tol", "1e-8"]) == 0


def test_verify_computes_the_gap_once(tmp_path, monkeypatch):
    config = band_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    calls = []
    real = verify._profile_gradients

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "_profile_gradients", counted)
    assert main(["verify", "--report", str(out / "report.json"), "--gap-tol", "1e-8"]) == 0
    assert len(calls) == 1


def test_verify_names_no_wardrop_witness_on_a_pass(tmp_path, monkeypatch):
    # A passing report's Wardrop verdict comes from its worst slack, so the
    # prices are evaluated once, by make_report.
    config = band_config(tmp_path, game=dict(BAND_GAME, weights=[0.5, 0.5]))
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0

    def no_witness(*args, **kwargs):
        raise AssertionError("check_wardrop ran on a passing report")

    monkeypatch.setattr(chargegame.cli, "check_wardrop", no_witness)
    assert main(["verify", "--report", str(out / "report.json"), "--gap-tol", "1e-8"]) == 0


def test_verify_names_the_wardrop_witness_on_a_failure(tmp_path, capsys):
    config = band_config(tmp_path, game=dict(BAND_GAME, weights=[0.5, 0.5]))
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    data = json.loads((out / "report.json").read_text())
    data["profile"][0] = [0.5, 0.0]  # individuals all on the dearer peak start
    (out / "report.json").write_text(json.dumps(data))
    spec, profile, _ = chargegame.cli.report_from_dict(data)
    witness = chargegame.check_wardrop(spec, profile, eps=1e-8).witness
    capsys.readouterr()
    assert main(["verify", "--report", str(out / "report.json"), "--gap-tol", "1e-8"]) == 1
    assert f"wardrop: FAIL {witness}\n" in capsys.readouterr().out


def test_verify_rejects_tampered_report(tmp_path):
    config = band_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    report_path = out / "report.json"
    data = json.loads(report_path.read_text())
    data["profile"][1] = [1.0, 0.0]
    report_path.write_text(json.dumps(data))
    assert main(["verify", "--report", str(report_path), "--gap-tol", "1e-8"]) == 1


@pytest.mark.parametrize("gap_tol", ["-1", "-1e-300", "nan", "inf", "-inf"])
def test_verify_refuses_a_gap_tol_that_is_no_finite_number_at_least_zero(
    tmp_path, capsys, gap_tol
):
    # -1 used to fail with no witness, nan to fail and inf to certify anything.
    out = tmp_path / "out"
    config = os.path.join(SHIPPED_CONFIGS, "three_slot_solve.json")
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--report", str(out / "report.json"), f"--gap-tol={gap_tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --gap-tol must be a finite number >= 0, got ")


def test_verify_accepts_a_zero_gap_tol(tmp_path):
    # The closed form's profile recomputes to a gap of exactly zero.
    out = tmp_path / "out"
    config = os.path.join(SHIPPED_CONFIGS, "three_slot_solve.json")
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    assert main(["verify", "--report", str(out / "report.json"), "--gap-tol", "0"]) == 0


def test_verify_certifies_a_closed_form_report_at_a_large_cost_scale(tmp_path, capsys):
    # Social and coalition costs of ~9e300 one ulp apart: the ordering
    # tolerance is taken at the cost's scale, so rounding does not fail it.
    cost = {"kind": "affine", "base": {"kind": "quadratic"}, "scale": 1e300, "shift": 1e300}
    game = dict(BAND_GAME, cost=cost)
    config = band_config(tmp_path, game=game, solver={"method": "analytic"})
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--report", str(out / "report.json"), "--gap-tol", "1e-6"]) == 0
    assert "cost ordering: pass\n" in capsys.readouterr().out


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2


# Per case: the command line that reads or writes a path, the bytes the
# path holds (None: it is a directory) and the start of the one error
# line, with the path in place of {}.
UNREADABLE_INPUTS = {
    "config-invalid-json": (
        lambda p: ["solve", "--config", p], b"{bad", "error: unreadable config {}: Expecting"
    ),
    "report-invalid-json": (
        lambda p: ["verify", "--report", p], b"{bad", "error: unreadable report {}: Expecting"
    ),
    "config-a-directory": (
        lambda p: ["solve", "--config", p], None, "error: unreadable config {}: Is a directory"
    ),
    "report-a-directory": (
        lambda p: ["verify", "--report", p], None, "error: unreadable report {}: Is a directory"
    ),
    "config-not-utf-8": (
        lambda p: ["sweep", "--config", p],
        b'{"game": "\xff"}',
        "error: unreadable config {}: 'utf-8' codec can't decode",
    ),
    "config-nested-too-deep": (
        lambda p: ["solve", "--config", p],
        b"[" * 100_000 + b"]" * 100_000,
        "error: unreadable config {}: maximum recursion depth exceeded",
    ),
    "config-not-a-json-object": (
        lambda p: ["solve", "--config", p], b"[1, 2]", "error: config must be a JSON object"
    ),
    "out-an-existing-file": (
        lambda p: ["solve", "--config", os.path.join(SHIPPED_CONFIGS, "three_slot_solve.json"),
                   "--out", p],
        b"",
        "error: [Errno 17] File exists: {!r}",
    ),
}


@pytest.mark.parametrize("case", list(UNREADABLE_INPUTS))
def test_an_unreadable_input_or_output_path_is_a_config_error(tmp_path, capsys, case):
    # A directory, a file that is not UTF-8, JSON nested too deep and an
    # --out that names a file used to end in a traceback with exit 1, which
    # reads as "not converged", and a report of invalid JSON was blamed on
    # the config.
    argv, contents, want = UNREADABLE_INPUTS[case]
    path = tmp_path / "input"
    if contents is None:
        path.mkdir()
    else:
        path.write_bytes(contents)
    assert main(argv(str(path))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(want.format(str(path)))
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


MALFORMED_CONFIGS = {
    "solver-not-a-mapping": {"solver": 5},
    "game-not-a-mapping": {"game": 5},
    "horizon-not-a-number": {"game": dict(BAND_GAME, horizon="x")},
    "load-profile-not-numeric": {"load_profile": "abc"},
    "load-profile-entry-a-string": {"load_profile": ["1.5", 1.0, 1.0]},
    "load-profile-entry-a-boolean": {"load_profile": [1.5, True, 1]},
    "slope-not-a-number": {"game": dict(BAND_GAME, cost={"kind": "linear", "slope": "s"})},
    "sweep-not-a-mapping": {"sweep": [1, 2]},
    # Solver and sweep fields are converted and range-checked at ingestion,
    # and a malformed sweep section fails `solve` too.
    "max-iter-not-a-number": {"solver": {"max_iter": "x"}},
    "gap-tol-not-a-number": {"solver": {"gap_tol": "x"}},
    "gap-tol-negative": {"solver": {"gap_tol": -1.0}},
    "step-size-not-a-number": {"solver": {"step_size": "x"}},
    "step-size-negative": {"solver": {"step_size": -1.0}},
    "count-not-a-number": {"sweep": {"count": "x"}},
    "count-zero": {"sweep": {"count": 0}},
    "grid-not-a-list": {"sweep": {"grid": "abc"}},
    "grid-with-count": {"sweep": {"grid": [0.5, 1.0], "count": 2}},
    "unknown-solver-key": {"solver": {"max_iters": 5}},
    # Integral fields are not truncated, and booleans are not numbers.
    "horizon-not-integral": {"game": dict(BAND_GAME, horizon=3.9)},
    "duration-a-boolean": {"game": dict(BAND_GAME, duration=True)},
    "normalize-a-string": {"load_profile": {"csv": "loads.csv", "normalize": "false"}},
    "load-profile-mapping-without-csv": {"load_profile": {"normalize": True}},
    # Game and cost fields are JSON numbers, not strings or booleans that
    # float() would accept, and every game and cost mapping has fixed keys.
    "power-a-string": {"game": dict(BAND_GAME, power="1.0")},
    "power-a-boolean": {"game": dict(BAND_GAME, power=True)},
    "weight-a-string": {"game": dict(BAND_GAME, weights=["0.0", 1.0])},
    "weight-a-boolean": {"game": dict(BAND_GAME, weights=[False, True])},
    "weights-not-a-list": {"game": dict(BAND_GAME, weights=1.0)},
    "slope-a-numeric-string": {"game": dict(BAND_GAME, cost={"kind": "linear", "slope": "2"})},
    "intercept-a-boolean": {"game": dict(BAND_GAME, cost={"kind": "linear", "intercept": True})},
    "rate-a-string": {"game": dict(BAND_GAME, cost={"kind": "exponential", "rate": "1"})},
    "scale-a-string": {
        "game": dict(BAND_GAME, cost={"kind": "affine", "base": {"kind": "quadratic"}, "scale": "2"})
    },
    "shift-a-boolean": {
        "game": dict(BAND_GAME, cost={"kind": "affine", "base": {"kind": "quadratic"}, "shift": False})
    },
    "affine-base-slope-a-string": {
        "game": dict(BAND_GAME, cost={"kind": "affine", "base": {"kind": "linear", "slope": "1"}})
    },
    "domain-bound-a-string": {"game": dict(BAND_GAME, cost={"kind": "quadratic", "domain_bound": "30"})},
    # Only domain_bound may be null; a null parameter is not read as absent.
    "slope-null": {"game": dict(BAND_GAME, cost={"kind": "linear", "slope": None})},
    "intercept-null": {"game": dict(BAND_GAME, cost={"kind": "linear", "intercept": None})},
    "rate-null": {"game": dict(BAND_GAME, cost={"kind": "exponential", "rate": None})},
    "scale-null": {
        "game": dict(BAND_GAME, cost={"kind": "affine", "base": {"kind": "quadratic"}, "scale": None})
    },
    "shift-null": {
        "game": dict(BAND_GAME, cost={"kind": "affine", "base": {"kind": "quadratic"}, "shift": None})
    },
    "unknown-game-key": {"game": dict(BAND_GAME, horizn=9)},
    "unknown-cost-key": {"game": dict(BAND_GAME, cost={"kind": "linear", "slop": 2.0})},
    "affine-domain-bound": {
        "game": dict(BAND_GAME, cost={"kind": "affine", "base": {"kind": "linear"}, "domain_bound": 30.0})
    },
    "unknown-cost-kind": {"game": dict(BAND_GAME, cost={"kind": "cubic"})},
}

# The field each rejection above names after "error: malformed config: ".
MALFORMED_FIELDS = {
    "load-profile-entry-a-string": "load_profile[0]",
    "load-profile-entry-a-boolean": "load_profile[1]",
    "power-a-string": "game.power",
    "power-a-boolean": "game.power",
    "weight-a-string": "game.weights[0]",
    "weight-a-boolean": "game.weights[0]",
    "weights-not-a-list": "game.weights",
    "slope-a-numeric-string": "game.cost.slope",
    "intercept-a-boolean": "game.cost.intercept",
    "rate-a-string": "game.cost.rate",
    "scale-a-string": "game.cost.scale",
    "shift-a-boolean": "game.cost.shift",
    "affine-base-slope-a-string": "game.cost.base.slope",
    "domain-bound-a-string": "game.cost.domain_bound",
    "slope-null": "game.cost.slope must be a finite number, got None",
    "intercept-null": "game.cost.intercept must be a finite number, got None",
    "rate-null": "game.cost.rate must be a finite number, got None",
    "scale-null": "game.cost.scale must be a finite number, got None",
    "shift-null": "game.cost.shift must be a finite number, got None",
    "unknown-game-key": "game has unknown keys ['horizn']",
    "unknown-cost-key": "game.cost has unknown keys ['slop']",
    "affine-domain-bound": "game.cost has unknown keys ['domain_bound']",
    "unknown-cost-kind": "game.cost.kind",
    "horizon-not-integral": "game.horizon",
    "load-profile-mapping-without-csv": "load_profile.csv must be a path, got None",
    "max-iter-not-a-number": "solver.max_iter",
    "gap-tol-negative": "solver.gap_tol must be a finite number >= 0",
}


def tampered_report(tmp_path, edit):
    """The verify command line of a solved band report changed by ``edit``."""
    out = tmp_path / "out"
    assert main(["solve", "--config", band_config(tmp_path), "--out", str(out)]) == 0
    data = json.loads((out / "report.json").read_text())
    edit(data)
    (out / "report.json").write_text(json.dumps(data))
    return ["verify", "--report", str(out / "report.json")]


def set_field(*path, value):
    """An edit replacing the entry at ``path`` with ``value`` of it."""

    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value(data[path[-1]])

    return edit


# Each report case, and the field its error names (None: no field named).
MALFORMED_REPORTS = {
    "report-without-status": (lambda data: data.pop("status"), None),
    "report-game-a-list": (set_field("game", value=lambda _: []), "game must be a mapping, got []"),
    "report-horizon-not-integral": (
        set_field("game", "horizon", value=lambda _: 3.5), "game.horizon must be an integer"
    ),
    "report-base-load-entry-a-string": (
        set_field("game", "base_load", 0, value=str), "game.base_load[0] must be a finite number"
    ),
    "report-base-load-entry-a-boolean": (
        set_field("game", "base_load", 1, value=lambda _: True), "game.base_load[1]"
    ),
    "report-profile-entry-a-string": (set_field("profile", 1, 0, value=str), "profile[1][0]"),
    "report-profile-entry-nan": (
        set_field("profile", 0, 0, value=lambda _: math.nan), "profile[0][0] must be a finite"
    ),
    "report-vi-gap-a-string": (set_field("vi_gap", value=lambda _: "0"), "vi_gap"),
    "report-iterations-a-string": (set_field("iterations", value=lambda _: "many"), "iterations"),
}


@pytest.mark.parametrize("case", [*MALFORMED_CONFIGS, *MALFORMED_REPORTS])
def test_malformed_input_is_a_config_error(tmp_path, capsys, case):
    # Wrong types and values in a config or a report are input errors
    # (exit 2), not a raw traceback that reads as "not converged".
    if case in MALFORMED_CONFIGS:
        (tmp_path / "loads.csv").write_text("t,load\n1,1.5\n2,1\n3,1\n")
        config = band_config(tmp_path, **MALFORMED_CONFIGS[case])
        argv = ["solve", "--config", config, "--out", str(tmp_path / "out")]
    else:
        argv = tampered_report(tmp_path, MALFORMED_REPORTS[case][0])
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed") and "Traceback" not in err
    if case in MALFORMED_FIELDS:
        assert err.startswith(f"error: malformed config: {MALFORMED_FIELDS[case]}")
    if case in MALFORMED_REPORTS and MALFORMED_REPORTS[case][1] is not None:
        assert err.startswith(f"error: malformed report: {MALFORMED_REPORTS[case][1]}")


@pytest.mark.parametrize("document", ["[1, 2]", '"x"'], ids=["list", "string"])
def test_a_report_that_is_not_a_mapping_is_named(tmp_path, capsys, document):
    # The error names the report, not Python's list or string indexing.
    (tmp_path / "report.json").write_text(document)
    assert main(["verify", "--report", str(tmp_path / "report.json")]) == 2
    want = f"error: malformed report: report must be a mapping, got {json.loads(document)!r}\n"
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("count", [1e300, MAX_SWEEP_COUNT + 1], ids=["1e300", "bound-plus-one"])
def test_a_sweep_count_past_its_bound_is_refused_before_any_grid(
    tmp_path, capsys, monkeypatch, count
):
    # A whole float count used to reach np.linspace, whose ValueError
    # escaped as a traceback with exit 1; the bound is checked before any
    # grid exists.
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli, "default_grid", no_grid)
    config = band_config(tmp_path, sweep={"count": count})
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    want = f"sweep.count must be an integer in [1, {MAX_SWEEP_COUNT}]"
    assert err.startswith(f"error: malformed config: {want}")


# --- import cost -------------------------------------------------------------


def test_cli_import_starts_no_process_pool_machinery():
    # Sweeps batch their grid in one process; importing the CLI must not
    # pull in multiprocessing or concurrent.futures.
    src = os.path.dirname(os.path.dirname(os.path.abspath(chargegame.__file__)))
    code = (
        "import sys, chargegame.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"
