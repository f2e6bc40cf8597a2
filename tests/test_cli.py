import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spherefrac
from spherefrac import Cap, cap_area, perimeter_cap, perimeter_minus_n, sample_uniform, sphere_surface
from spherefrac.cli import (
    DEFAULT_SEED,
    SetSyntaxError,
    dot2_kernel,
    main,
    parse_function,
    parse_set,
    render_set,
    resolve_seed,
)
from spherefrac.estimation import QuadratureError

CSV_HEADER = "param,value,error,target,deviation"


# ---------------------------------------------------------------------------
# descriptions


def test_parse_set_cap_and_membership():
    E = parse_set("cap:0,0,1:0.8")
    assert isinstance(E, Cap)
    assert E.radius == 0.8
    assert E.contains(np.array([[0.0, 0.0, 1.0]]))[0]


def test_parse_render_round_trip_preserves_membership():
    texts = [
        "union:cap:0,0,1:0.5+refl:cap:0,0,1:0.3",
        "compl:poly:-1,0,0;0,-1,0;0,0,-1",
        "arcs:0,1;2,0.5",
    ]
    gen = np.random.default_rng(41)
    for text in texts:
        E = parse_set(text)
        F = parse_set(render_set(E))
        pts = sample_uniform(E.dimension, 10_000, gen)
        assert np.array_equal(E.contains(pts), F.contains(pts))


def test_parse_set_error_positions():
    with pytest.raises(SetSyntaxError) as exc:
        parse_set("cap:0,0,1")  # missing radius
    assert exc.value.position == 4
    with pytest.raises(SetSyntaxError) as exc:
        parse_set("blob:1")
    assert exc.value.position == 0
    with pytest.raises(SetSyntaxError) as exc:
        parse_set("union:cap:0,0,1:0.5+cap:x,0,1:0.3")
    # the position points at the bad token inside the nested description
    assert exc.value.position == 24


def test_parse_set_overlapping_union_downgrades(capsys):
    E = parse_set("union:cap:0,0,1:1.0+cap:0,0.19612,0.98058:1.0")
    assert not E.assume_disjoint
    assert E.exact_measure() is None
    assert "overlap" in capsys.readouterr().err


def test_parse_function_kinds():
    pts = np.array([[0.6, 0.0, -0.8], [0.0, 1.0, 0.0]])
    f, lip = parse_function("coord:2", 2)
    assert lip == 1.0
    assert np.allclose(f(pts), [-0.8, 0.0])
    f, lip = parse_function("abs-coord:2", 2)
    assert lip == 1.0
    assert np.allclose(f(pts), [0.8, 0.0])
    f, lip = parse_function("const:2.5", 2)
    assert lip == 0.0
    assert np.allclose(f(pts), [2.5, 2.5])
    for bad in ("coord:9", "coord:x", "const:x", "sine:1", "plain"):
        with pytest.raises(SetSyntaxError):
            parse_function(bad, 2)


def test_resolve_seed_sources(monkeypatch):
    monkeypatch.delenv("SPHEREFRAC_SEED", raising=False)
    assert resolve_seed(None) == DEFAULT_SEED
    assert resolve_seed("123") == 123
    assert resolve_seed("0x7b") == 123
    monkeypatch.setenv("SPHEREFRAC_SEED", "99")
    assert resolve_seed(None) == 99
    assert resolve_seed("7") == 7  # flag wins over the environment
    with pytest.raises(ValueError):
        resolve_seed("zzz")


# ---------------------------------------------------------------------------
# output files and exit codes


def test_csv_output_schema_and_reruns_are_byte_identical(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["beta-check", "--n", "2", "--out", str(first)]) == 0
    assert main(["beta-check", "--n", "2", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5  # three grid rows plus the extrapolated line
    # rows carry 17 significant digits: t = 20 gives exactly 20/19
    assert lines[1].split(",")[1] == format(20.0 / 19.0, ".17g")
    # the limit line sits at the sweep's limit point, t = infinity
    assert lines[4].startswith("inf,")
    assert lines[4].split(",")[2] == "nan"  # no error estimate for the fit


def test_json_record_schema(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    out = tmp_path / "r.json"
    assert main(["beta-check", "--n", "2", "--format", "json", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert set(rec) == {
        "experiment", "timestamp", "config_hash", "config",
        "rows", "limit", "verdicts", "detail", "seed",
    }
    assert rec["experiment"] == "beta-check"
    assert rec["seed"] == DEFAULT_SEED
    assert re.fullmatch(r"[0-9a-f]{64}", rec["config_hash"])
    assert rec["timestamp"] == "2023-11-14T22:13:20+00:00"
    assert rec["verdicts"] == {"within_threshold": True}
    assert rec["limit"]["deviation"] < 1e-3
    assert rec["rows"][-1]["param"] is None  # inf is null in JSON


def test_json_reruns_are_byte_identical_with_pinned_epoch(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    args = ["crofton", "--n", "2", "--set", "cap:0,0,1:0.8", "--planes", "2000",
            "--format", "json"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_crofton_traces_complements_reflections_and_arcs(tmp_path):
    # these sets used to end in a TypeError traceback
    def run(n, desc):
        out = tmp_path / f"{len(list(tmp_path.iterdir()))}.json"
        rc = main(["crofton", "--n", n, "--set", desc, "--planes", "20000",
                   "--format", "json", "--out", str(out)])
        assert rc in (0, 2)
        return json.loads(out.read_text())["rows"][0]

    inner = run("2", "cap:0,0,1:0.5")
    compl = run("2", "compl:cap:0,0,1:0.5")
    assert (compl["value"], compl["error"]) == (inner["value"], inner["error"])
    run("2", "refl:poly:-1,0,0;0,-1,0;0,0,-1")
    run("2", "union:cap:0,0,1:0.5+refl:cap:0,0,1:0.3")
    arcs = run("1", "arcs:0,1;2,0.5")
    assert (arcs["value"], arcs["error"], arcs["target"]) == (4.0, 0.0, 4.0)


def test_dot2_kernel_matches_the_summed_product_form():
    gen = np.random.default_rng(12)
    pts = sample_uniform(2, 256, gen)
    pairs = (sample_uniform(2, 100_000, gen), sample_uniform(2, 100_000, gen))
    for x, y in ((pts[:, None, :], pts[None, :, :]), pairs):
        assert np.array_equal(dot2_kernel(x, y), (1.0 + np.sum(x * y, axis=-1)) ** 2)


def test_bp_check_and_crofton_records_are_pinned(tmp_path):
    # bp: the plane side pinned from oracles.bp_plane_side_serial(2,
    # dot2_kernel, 20, RandomStream(5), 32, 64), the chunk loop with masked
    # frames; the product rule is exact on dot2, so every plane gives
    # 64 pi^2 / 3 up to roundoff and the error is roundoff too.
    # crofton: pinned from oracles.crofton_lattice_serial(octant, 20000,
    # RandomStream(5), 1 << 15), 32 rotations of a 625-pole lattice
    out = tmp_path / "bp.json"
    assert main(["bp-check", "--kernel", "dot2", "--pairs", "20000", "--planes", "20",
                 "--seed", "5", "--format", "json", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    row = record["rows"][0]
    assert (row["value"], row["error"], row["target"]) == (
        211.27782722466316, 1.3399654731985138, 210.55156055657272)
    assert record["detail"]["plane_side"] == {"value": 210.55156055657272,
                                              "std_error": 4.263256414560601e-15}
    out = tmp_path / "crofton.csv"
    assert main(["crofton", "--n", "2", "--set", "poly:-1,0,0;0,-1,0;0,0,-1", "--planes", "20000",
                 "--seed", "5", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == (
        "20000,1.4990000000000003,0.0015603969718239754,1.5,0.00066666666666644525")


def test_seed_precedence_changes_and_reproduces_output(tmp_path, monkeypatch):
    monkeypatch.delenv("SPHEREFRAC_SEED", raising=False)
    args = ["crofton", "--n", "2", "--set", "cap:0,0,1:0.8", "--planes", "2000"]

    def run(extra, env_seed=None):
        out = tmp_path / f"{len(list(tmp_path.iterdir()))}.csv"
        if env_seed is None:
            monkeypatch.delenv("SPHEREFRAC_SEED", raising=False)
        else:
            monkeypatch.setenv("SPHEREFRAC_SEED", env_seed)
        assert main(args + extra + ["--out", str(out)]) == 0
        return out.read_bytes()

    by_flag = run(["--seed", "123"])
    by_env = run([], env_seed="123")
    by_hex_env = run([], env_seed="0x7b")
    flag_beats_env = run(["--seed", "123"], env_seed="999")
    default = run([])
    assert by_flag == by_env == by_hex_env == flag_beats_env
    assert default != by_flag


def test_exit_1_on_config_errors(tmp_path, capsys):
    assert main(["perimeter", "--n", "2", "--set", "gibberish", "--s", "-1"]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["perimeter", "--n", "3", "--set", "cap:0,0,1:1.0", "--s", "-1"]) == 1
    assert "S^2" in capsys.readouterr().err
    assert main(["beta-check", "--n", "2", "--seed", "zzz"]) == 1
    assert "bad seed" in capsys.readouterr().err
    # invalid s (the closed endpoint) is a config error too
    assert main(["perimeter", "--n", "2", "--set", "cap:0,0,1:1.0", "--s", "1.0"]) == 1
    capsys.readouterr()
    # no planes is a config error, not an exact-looking zero
    assert main(["crofton", "--n", "2", "--set", "cap:0,0,1:1.0", "--planes", "0"]) == 1
    captured = capsys.readouterr()
    assert "at least two planes" in captured.err and captured.out == ""
    assert main(["bp-check", "--pairs", "100", "--planes", "0"]) == 1
    captured = capsys.readouterr()
    assert "at least two planes" in captured.err and captured.out == ""


@pytest.mark.parametrize("n", ("0", "-1"))
def test_bp_check_without_great_circles_exits_1(n):
    # in a child with a timeout: on S^0 the plane sampler's redraw loop used
    # to spin forever
    proc = subprocess.run(
        [sys.executable, "-m", "spherefrac", "bp-check", "--n", n, "--pairs", "100",
         "--planes", "3"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 1
    assert "config error" in proc.stderr and "dimension n >= 1" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("n", ("261", "343", "400"))
def test_bp_check_beyond_the_largest_sphere_exits_1(n):
    # from n = 261 omega_(n+1)^2 is subnormal, and from n = 343 math.gamma
    # overflowed in sphere_surface with a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "spherefrac", "bp-check", "--n", n, "--pairs", "100",
         "--planes", "3"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 1
    assert "config error" in proc.stderr and "n <= 260" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_bp_check_at_the_largest_sphere_runs(capsys):
    # n = 260 is the last sphere whose omega_(n+1)^2 is a normal float, and
    # n = 171 reported a direct-side error of 0 before the Estimate moments
    # were scaled; both now carry a positive error and agree
    assert sphere_surface(260) ** 2 >= sys.float_info.min > sphere_surface(261) ** 2
    for n in ("171", "260"):
        assert main(["bp-check", "--n", n, "--pairs", "20000", "--planes", "20",
                     "--seed", "5", "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["detail"]["direct"]["std_error"] > 0.0
        assert record["detail"]["sigmas"] < 3.0


@pytest.mark.parametrize("trials", ("0", "-1"))
def test_isoperimetric_without_trials_exits_1(capsys, trials):
    # 0 trials passed with no rows and a vacuous all_trials_directional
    # verdict; -1 died in SeedSequence.spawn with an OverflowError
    assert main(["isoperimetric", "--s", "0.3", "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err and "at least one trial" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, what", [
    (["crofton", "--n", "2", "--set", "cap:0,0,1:1.0", "--planes", "1"], "planes"),
    (["bp-check", "--pairs", "1", "--planes", "20"], "pairs"),
    (["bp-check", "--pairs", "100", "--planes", "1"], "planes"),
])
def test_exit_1_on_one_sample_with_an_infinite_error_bar(capsys, argv, what):
    # one sample has std_error inf, under which a 3-sigma verdict passes on
    # any value (crofton --planes 1 used to report within_3_sigma at 0.0
    # against the target 1.43)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"at least two {what}" in captured.err and captured.out == ""


OCTANT_DESC = "poly:-1,0,0;0,-1,0;0,0,-1"


@pytest.mark.parametrize("argv", [
    ["perimeter", "--n", "2", "--set", "cap:0,0,1:1", "--s", "0.3", "--method", "mc"],
    ["isoperimetric", "--s", "0.3", "--trials", "2"],
    ["sweep-s1", "--n", "2", "--set", "cap:0,0,1:1", "--method", "mc"],
    ["sweep-sinf", "--n", "2", "--set", OCTANT_DESC],
    ["seminorm-sweep", "--n", "2", "--function", "coord:0"],
    ["s0-check", "--n", "2"],
], ids=lambda argv: argv[0])
def test_exit_1_on_one_monte_carlo_sample(capsys, argv):
    # rows of one sample have std_error inf: the sweeps extrapolated from
    # them and exited 2, perimeter and s0-check exited 0 with `0, inf` rows,
    # and isoperimetric ran its trials on one sample
    assert main(argv + ["--samples", "1"]) == 1
    captured = capsys.readouterr()
    assert "at least two samples" in captured.err and captured.out == ""


def test_one_sample_is_fine_where_samples_are_not_drawn(capsys):
    # the cap oracle draws nothing, so --samples does not apply to it
    assert main(["perimeter", "--n", "2", "--set", "cap:0,0,1:1", "--s", "0.3",
                 "--samples", "1"]) == 0
    assert main(["sweep-s1", "--n", "2", "--set", "cap:0,0,1:1", "--samples", "1"]) == 0


def test_exit_1_on_bad_usage():
    with pytest.raises(SystemExit) as exc:
        main(["perimeter", "--bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_exit_2_on_verdict_failure_still_writes_output(tmp_path, capsys):
    out = tmp_path / "fail.csv"
    rc = main(["beta-check", "--n", "2", "--threshold", "1e-9", "--out", str(out)])
    assert rc == 2
    assert "verdict failure" in capsys.readouterr().err
    assert out.read_text().splitlines()[0] == CSV_HEADER


def test_exit_3_on_numerical_failure(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise QuadratureError("interval budget exhausted")

    monkeypatch.setattr("spherefrac.cli.perimeter_cap", explode)
    rc = main(["perimeter", "--n", "2", "--set", "cap:0,0,1:1.0", "--s", "-1"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_unnormalized_center_warning(capsys):
    rc = main(["perimeter", "--n", "2", "--set", "cap:0,0,2:1.0", "--s", "-1"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "normalizing" in captured.err
    scaled = float(captured.out.splitlines()[1].split(",")[1])

    rc = main(["perimeter", "--n", "2", "--set", "cap:0,0,1:1.0", "--s", "-1"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "normalizing" not in captured.err
    unit = float(captured.out.splitlines()[1].split(",")[1])
    assert scaled == unit  # same cap after normalization, same oracle value


def test_description_warnings_are_spherefrac_lines(capsys):
    rc = main(["perimeter", "--n", "2", "--set", "poly:0,0,-2;0,-1,0", "--s", "-1",
               "--method", "mc", "--samples", "1000"])
    assert rc == 0
    assert capsys.readouterr().err.splitlines() == [
        "spherefrac: warning: polytope normal had |v| = 2, normalizing"
    ]
    rc = main(["perimeter", "--n", "2", "--set", "union:cap:0,0,1:1+cap:0,0.2,1:1", "--s", "-1",
               "--method", "mc", "--samples", "1000"])
    assert rc == 0
    assert capsys.readouterr().err.splitlines() == [
        "spherefrac: warning: cap center had |v| = 1.0198039, normalizing",
        "spherefrac: warning: union parts overlap in sampling; "
        "exact measure and targets are disabled",
    ]


@pytest.mark.parametrize("desc, message", [
    ("poly:0,0,0", "normals must be finite and nonzero"),
    ("poly:inf,0,0", "normals must be finite and nonzero"),
    ("cap:0,0,0:1", "cannot normalize the zero vector"),
])
def test_zero_or_infinite_vector_is_rejected_without_normalizing_warning(capsys, desc, message):
    rc = main(["perimeter", "--n", "2", "--set", desc, "--s", "-1"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"spherefrac: config error in description: at position 0: {message}"
    ]


# ---------------------------------------------------------------------------
# subcommand behavior


def test_perimeter_pivot_attaches_exact_target(tmp_path):
    out = tmp_path / "pivot.json"
    rc = main([
        "perimeter", "--n", "2", "--set", "cap:0,0,1:1.0", "--s", "-2",
        "--threshold", "1e-6", "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    rec = json.loads(out.read_text())
    row = rec["rows"][0]
    assert row["target"] == pytest.approx(perimeter_minus_n(2, cap_area(2, 1.0)), rel=1e-12)
    assert row["deviation"] <= 1e-6
    assert rec["verdicts"] == {"within_threshold": True}
    assert rec["detail"]["method"] == "cap_oracle"


def test_perimeter_pivot_attaches_exact_target_to_polytopes(capsys):
    # Polytope.exact_measure (Gauss-Bonnet) gives the octant's pi/2, so its
    # s = -2 Monte Carlo row, and its complement's, carry the exact target
    for desc in ("poly:-1,0,0;0,-1,0;0,0,-1", "compl:poly:-1,0,0;0,-1,0;0,0,-1"):
        assert main(["perimeter", "--n", "2", "--set", desc, "--s", "-2", "--method", "mc",
                     "--samples", "20000", "--seed", "3", "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        target = perimeter_minus_n(2, 0.5 * math.pi)
        assert row["target"] == pytest.approx(target, rel=1e-14)
        assert abs(row["value"] - target) < 4.0 * row["error"]


def test_perimeter_mc_runs_at_s_zero(tmp_path):
    out = tmp_path / "s0.csv"
    rc = main([
        "perimeter", "--n", "2", "--set", "cap:0,0,1:1", "--s", "0", "--method", "mc",
        "--samples", "200000", "--out", str(out),
    ])
    assert rc == 0
    _, value, error = out.read_text().splitlines()[1].split(",")[:3]
    assert abs(float(value) - perimeter_cap(2, 0.0, 1.0)) < 4.0 * float(error)


def test_library_warning_is_one_spherefrac_line(capsys):
    argv = [
        "perimeter", "--n", "2", "--set", "cap:0,0,1:1", "--s", "0.6", "--method", "mc",
        "--samples", "20000",
    ]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == [
        "spherefrac: warning: perimeter_mc at s = 0.6 >= 1/2 has infinite variance; "
        "its standard error is not a valid error bar"
    ]
    # stdout is the same as when the warning is ignored
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) == 0
    assert capsys.readouterr() == (out, "")


def test_circle_exact_runs_at_s_zero(capsys):
    rc = main(["perimeter", "--n", "1", "--set", "arcs:0,1", "--s", "0"])
    assert rc == 0
    # one arc of length 1: 2 int_0^pi min(delta, 1) / delta d delta
    value = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
    assert value == pytest.approx(2.0 * (1.0 + math.log(math.pi)), rel=1e-12)


def test_sweep_s1_appends_limit_row_at_param_1(tmp_path):
    out = tmp_path / "s1.csv"
    rc = main(["sweep-s1", "--n", "2", "--set", "cap:0,0,1:0.7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[-1].startswith("1,")
    target = 4.0 * math.pi * math.sin(0.7)
    extrapolated = float(lines[-1].split(",")[1])
    assert extrapolated == pytest.approx(target, rel=0.02)


def test_s0_check_runs_clean(tmp_path):
    out = tmp_path / "s0.json"
    rc = main([
        "s0-check", "--n", "2", "--function", "coord:0", "--samples", "50000",
        "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    rec = json.loads(out.read_text())
    assert rec["verdicts"]["monotone_within_3se"]
    assert rec["verdicts"]["final_below_bound"]


def test_profile_reports_vanishing_tail(tmp_path):
    out = tmp_path / "prof.json"
    rc = main([
        "profile", "--n", "2", "--s", "-3", "--alpha-grid", "0.5,2,6,12",
        "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    rec = json.loads(out.read_text())
    assert rec["verdicts"]["gamma_vanishes_at_full_measure"]


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_console_script(name):
    """The "module:function" target of [project.scripts] name in pyproject.toml.

    A plain line match keeps this working without tomllib (Python 3.10); where
    tomllib exists, the full parse must agree with it.
    """
    text = PYPROJECT.read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    match = re.search(rf'^{re.escape(name)}\s*=\s*"([^"]+)"', section, re.M)
    assert match, f"no {name!r} entry in [project.scripts]"
    target = match.group(1)
    try:
        import tomllib
    except ModuleNotFoundError:
        return target
    assert tomllib.loads(text)["project"]["scripts"][name] == target
    return target


def _child_env():
    # the child imports the same spherefrac package as this test, installed or not
    package_root = str(Path(spherefrac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def _run_entry_point(cmd):
    proc = subprocess.run(
        cmd + ["beta-check", "--n", "2"], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == CSV_HEADER


def test_console_script_and_module_entry_points():
    module, func = _declared_console_script("spherefrac").split(":")
    # what the console-script launcher of an install runs
    launcher = f"import sys; from {module} import {func}; sys.exit({func}())"
    _run_entry_point([sys.executable, "-c", launcher])
    _run_entry_point([sys.executable, "-m", "spherefrac"])


@pytest.mark.skipif(
    shutil.which("spherefrac") is None, reason="spherefrac is not installed on PATH"
)
def test_installed_console_script():
    _run_entry_point(["spherefrac"])
