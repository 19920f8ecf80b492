"""Config fuzzer: the shipped configs, mutated field by field, through the
CLI in-process.

Whatever a mutation does, the CLI must answer with exit 0, 1 or 2; exit 2
with a single ``error:`` line and nothing else; no Python warning; an
exit-0 ``solve`` whose report ``verify`` certifies at the config's own
``gap_tol`` (the gap alone for a dynamics report, see check_certified); and the same bytes when the same config runs twice.  The
horizon, the sweep's grid count and ``max_iter`` are kept small, so one
example takes milliseconds.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from chargegame import vi_gap
from chargegame.cli import SOLVER_DEFAULTS, main, report_from_dict

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SHIPPED = sorted(name for name in os.listdir(CONFIGS) if name.endswith(".json"))

MAX_HORIZON = 8
MAX_COUNT = 41
MAX_ITER = 3000

# Values of the wrong type or out of range, tried in any field.
ODD = st.sampled_from([None, True, "x", "1.0", [], {}, -1, 0, float("nan"), float("inf")])
REALS = st.one_of(st.floats(-1.0, 4.0), st.sampled_from([0.0, 1e-300, 1e300]), ODD)
LOADS = st.lists(st.floats(0.0, 3.0), min_size=0, max_size=MAX_HORIZON)
COSTS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("linear"), "slope": REALS, "intercept": REALS}),
    st.just({"kind": "quadratic"}),
    st.fixed_dictionaries({"kind": st.just("exponential"), "rate": REALS}),
    st.fixed_dictionaries(
        {"kind": st.just("affine"), "base": st.just({"kind": "quadratic"}), "scale": REALS,
         "shift": REALS}
    ),
    st.just({"kind": "cubic"}),
    ODD,
)

# (section, key) -> values; None as the key replaces the whole section.
FIELDS = {
    ("game", "horizon"): st.one_of(st.integers(-1, MAX_HORIZON), ODD),
    ("game", "duration"): st.one_of(st.integers(-1, MAX_HORIZON), ODD),
    ("game", "power"): REALS,
    ("game", "weights"): st.one_of(st.lists(REALS, max_size=3), ODD),
    ("game", "cost"): COSTS,
    ("game", "horizn"): st.integers(1, MAX_HORIZON),
    ("load_profile", None): st.one_of(
        LOADS, st.fixed_dictionaries({"csv": st.just("night_load.csv"), "normalize": REALS}), ODD
    ),
    ("solver", "method"): st.one_of(st.sampled_from(["auto", "analytic", "dynamics"]), ODD),
    ("solver", "max_iter"): st.one_of(st.integers(-1, MAX_ITER), st.just(2.5), ODD),
    ("solver", "gap_tol"): st.one_of(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]), ODD),
    ("solver", "step_size"): st.one_of(st.just("default"), REALS),
    ("sweep", "start"): REALS,
    ("sweep", "stop"): REALS,
    ("sweep", "count"): st.one_of(st.integers(-1, MAX_COUNT), ODD),
    ("sweep", "grid"): st.one_of(st.lists(REALS, max_size=MAX_COUNT), ODD),
    # Not None or {}: either would sweep the default grid of 101 points.
    ("sweep", None): st.sampled_from([5, "x", [1, 2], True]),
}


@st.composite
def configs(draw):
    """A shipped config with a small max_iter and grid count, then up to
    three fields replaced by drawn values."""
    with open(os.path.join(CONFIGS, draw(st.sampled_from(SHIPPED)))) as handle:
        config = json.load(handle)
    config.setdefault("solver", {})["max_iter"] = draw(st.integers(0, MAX_ITER))
    config.setdefault("sweep", {})["count"] = draw(st.integers(1, MAX_COUNT))
    for section, key in draw(st.lists(st.sampled_from(sorted(FIELDS, key=str)), max_size=3)):
        value = draw(FIELDS[section, key])
        if key is None:
            config[section] = value
        elif isinstance(config.get(section), dict):
            # Grid and count exclude each other: a grid drops the count.
            if key == "grid":
                config[section] = {}
            config[section][key] = value
    return config


def run(argv):
    """Exit code, stdout and stderr of ``main(argv)``, with every Python
    warning recorded."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


def artifacts(directory):
    """The bytes of every file in ``directory``, by name."""
    files = {}
    for name in sorted(os.listdir(directory)) if os.path.isdir(directory) else ():
        with open(os.path.join(directory, name), "rb") as handle:
            files[name] = handle.read()
    return files


def check_certified(report, tol):
    """``verify --gap-tol tol`` of an exit-0 solve's report: its recomputed
    gap is within ``tol``, and a closed-form report is certified.

    A converged dynamics report can fail the verdict's Wardrop test, which
    bounds the slack of every strategy with weight above the support
    threshold by the same ``tol``: the gap weighs each slack by its weight,
    so a slowly decaying strategy keeps a slack above ``tol`` (the shipped
    night config's own report has slack 1e-5 at gap_tol 1e-9).
    """
    code, stdout, stderr = run(["verify", "--report", report, "--gap-tol", repr(tol)])
    assert code in (0, 1) and stderr == ""
    with open(report) as handle:
        data = json.load(handle)
    spec, profile, _ = report_from_dict(data)
    assert vi_gap(spec, profile) <= tol
    if data["status"] == "analytic":
        assert code == 0, stdout


@settings(max_examples=100, deadline=None)
@given(
    config=configs(),
    command=st.sampled_from(["solve", "sweep", "dynamics-trace"]),
    flags=st.lists(st.sampled_from(["--normalize", "--print-config"]), max_size=2, unique=True),
)
def test_a_mutated_shipped_config_gets_an_exit_code_and_no_traceback(config, command, flags):
    with tempfile.TemporaryDirectory() as work:
        check_cli(config, command, flags, work)


def check_cli(config, command, flags, work):
    shutil.copy(os.path.join(CONFIGS, "night_load.csv"), work)
    path, out = os.path.join(work, "config.json"), os.path.join(work, "out")
    with open(path, "w") as handle:
        json.dump(config, handle)
    argv = [command, "--config", path, "--out", out, *flags]

    first = run(argv)
    files = artifacts(out)
    code, stdout, stderr = first
    assert code in (0, 1, 2)
    if code == 2:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1 and stdout == ""
    else:
        assert stderr == ""
    if code == 0 and command == "solve" and "--print-config" not in flags:
        tol = config["solver"].get("gap_tol", SOLVER_DEFAULTS["gap_tol"])
        check_certified(os.path.join(out, "report.json"), tol)

    shutil.rmtree(out, ignore_errors=True)
    assert run(argv) == first
    assert artifacts(out) == files
