"""CLI: config resolution, CSV ingestion, subcommands, determinism."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import chargegame
from chargegame import SpecError, verify
from chargegame.cli import load_profile_csv, main, resolve_config

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


def test_print_config_shows_defaults(tmp_path, capsys):
    config = band_config(tmp_path)
    assert main(["solve", "--config", config, "--print-config"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["solver"]["max_iter"] == 100_000
    assert shown["solver"]["method"] == "auto"
    assert shown["load_profile"] == [1.5, 1.0, 1.0]


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
    real = verify.player_gradients

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "player_gradients", counted)
    assert main(["verify", "--report", str(out / "report.json"), "--gap-tol", "1e-8"]) == 0
    assert len(calls) == 1


def test_verify_rejects_tampered_report(tmp_path):
    config = band_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    report_path = out / "report.json"
    data = json.loads(report_path.read_text())
    data["profile"][1] = [1.0, 0.0]
    report_path.write_text(json.dumps(data))
    assert main(["verify", "--report", str(report_path), "--gap-tol", "1e-8"]) == 1


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2


MALFORMED_CONFIGS = {
    "solver-not-a-mapping": {"solver": 5},
    "game-not-a-mapping": {"game": 5},
    "horizon-not-a-number": {"game": dict(BAND_GAME, horizon="x")},
    "load-profile-not-numeric": {"load_profile": "abc"},
    "slope-not-a-number": {"game": dict(BAND_GAME, cost={"kind": "linear", "slope": "s"})},
    "sweep-not-a-mapping": {"sweep": [1, 2]},
}


def report_without_status(tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--config", band_config(tmp_path), "--out", str(out)]) == 0
    data = json.loads((out / "report.json").read_text())
    del data["status"]
    (out / "report.json").write_text(json.dumps(data))
    return ["verify", "--report", str(out / "report.json")]


@pytest.mark.parametrize("case", [*MALFORMED_CONFIGS, "report-without-status"])
def test_malformed_input_is_a_config_error(tmp_path, capsys, case):
    # Wrong types and values in a config or a report are input errors
    # (exit 2), not a raw traceback that reads as "not converged".
    if case in MALFORMED_CONFIGS:
        config = band_config(tmp_path, **MALFORMED_CONFIGS[case])
        argv = ["solve", "--config", config, "--out", str(tmp_path / "out")]
    else:
        argv = report_without_status(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed") and "Traceback" not in err


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
