import contextlib
import io
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
from hypothesis import example, given, settings, strategies as st

import spherefrac
from spherefrac import (
    Cap,
    cap_area,
    perimeter_by_method,
    perimeter_cap,
    perimeter_minus_n,
    sample_uniform,
    sphere_surface,
)
from spherefrac.cli import (
    _HANDLERS,
    DEFAULT_SEED,
    SetSyntaxError,
    build_parser,
    dot2_kernel,
    main,
    parse_function,
    parse_set,
    render_set,
    resolve_seed,
)
from spherefrac.estimation import NonFiniteSampleError

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
    # the union decides it has no targets from its caps alone: no sampled
    # check, and no warning
    E = parse_set("union:cap:0,0,1:1.0+cap:0,0.19612,0.98058:1.0")
    assert not E.disjoint
    assert E.exact_measure() is None
    assert E.boundary_measure() is None
    assert capsys.readouterr().err == ""


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
    assert main(["crofton", "--n", "2", "--set", "cap:0,0,1:1.0", "--seed", "zzz"]) == 1
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


@pytest.mark.parametrize("argv, grid", [
    (["sweep-s1", "--n", "2", "--set", "cap:0,0,1:1", "--s-grid=0.9,0.9"], "s_grid"),
    (["s0-check", "--n", "2", "--s-grid=-0.1,-0.1"], "s_grid"),
    (["profile", "--n", "2", "--s", "-1", "--alpha-grid", "1,1"], "alpha_grid"),
], ids=("sweep-s1", "s0-check", "profile"))
def test_a_repeated_grid_value_is_a_config_error(capsys, argv, grid):
    # sweep-s1 fitted its limit through two rows at one abscissa (error nan,
    # exit 2), and s0-check and profile printed the row twice
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"spherefrac: config error: {grid} must be strictly increasing")
    assert captured.out == ""


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
], ids=lambda argv: argv[0])
def test_exit_1_on_one_monte_carlo_sample(capsys, argv):
    # rows of one sample have std_error inf: the sweeps extrapolated from
    # them and exited 2, perimeter exited 0 with `0, inf` rows, and
    # isoperimetric ran its trials on one sample
    assert main(argv + ["--samples", "1"]) == 1
    captured = capsys.readouterr()
    assert "at least two samples" in captured.err and captured.out == ""


def test_one_sample_is_fine_where_samples_are_not_drawn(capsys):
    # the cap oracle draws nothing, so --samples does not apply to it, and
    # neither do seminorm rows, which integrate their pair law
    assert main(["perimeter", "--n", "2", "--set", "cap:0,0,1:1", "--s", "0.3",
                 "--samples", "1"]) == 0
    assert main(["sweep-s1", "--n", "2", "--set", "cap:0,0,1:1", "--samples", "1"]) == 0
    assert main(["seminorm-sweep", "--n", "2", "--function", "coord:0", "--samples", "1"]) == 0


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
        raise NonFiniteSampleError("non-finite integrand value nan at sample 0")

    monkeypatch.setattr("spherefrac.perimeter._cap_oracle", explode)
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


OVERFLOW = "spherefrac: config error: the kernel's scale pi^(1-n-s) overflows a float at s = -700, n = 2"


def test_library_warning_is_one_spherefrac_line(monkeypatch, capsys):
    # a warning from inside the library, here from a wrapped perimeter_by_method
    def warn_first(*args):
        np.float64(1e300) * np.float64(1e300)
        return perimeter_by_method(*args)

    monkeypatch.setattr("spherefrac.cli.perimeter_by_method", warn_first)
    argv = ["perimeter", "--n", "2", "--set", "cap:0,0,1:1", "--s", "-1"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == ["spherefrac: warning: overflow encountered in scalar multiply"]
    assert out.splitlines()[0] == CSV_HEADER
    # the same exit and output when the warning is ignored
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) == 0
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("s", ("-700", "-1000"))
def test_cap_oracle_whose_kernel_overflows_exits_1_with_no_warning(capsys, s):
    # the covariogram oracle's theta^-(n+s) overflowed first, and numpy's
    # overflow warning came before the config error; the kernel's scale is
    # refused before anything is evaluated
    assert main(["perimeter", "--n", "2", "--set", "cap:0,0,1:1", "--s", s]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [OVERFLOW.replace("-700", s)]
    assert captured.out == ""


def test_mc_perimeter_that_no_point_pair_reaches_exits_1(capsys):
    # the cap takes about 1e-26 of S^342, so every sampled point pair gave
    # 0, and this printed value 0, error 0 and exited 0; the sliced
    # estimator refuses it before any circle, as c_342 pi^2 underflows
    center = ",".join(["0"] * 342 + ["1"])
    argv = ["perimeter", "--n", "342", "--set", f"cap:{center}:1", "--s", "-1",
            "--method", "mc", "--samples", "1000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line == ("spherefrac: config error: c_n times the kernel's scale underflows a float "
                    "at n = 342, s = -1")


def test_cap_oracle_whose_value_underflows_exits_1(capsys):
    # printed -1,0,0 and exited 0
    center = ",".join(["0"] * 280 + ["1"])
    assert main(["perimeter", "--n", "280", "--set", f"cap:{center}:1.5", "--s", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("spherefrac: config error: the cap oracle's value underflows a float "
                            "at n = 280, s = -1, r = 1.5\n")


def test_mc_perimeter_whose_kernel_overflows_exits_1(capsys):
    # died in an OverflowError from math.exp in RadialProposal; the cap
    # oracle at the same s exits 1 too (test above)
    argv = ["perimeter", "--n", "2", "--set", "cap:0,0,1:1", "--s", "-700",
            "--method", "mc", "--samples", "1000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [OVERFLOW]
    assert captured.out == ""
    proc = subprocess.run(
        [sys.executable, "-m", "spherefrac", *argv], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("n", ("0", "343", "400"))
@pytest.mark.parametrize("argv", [
    ["perimeter", "--set", "cap:0,0,1:1", "--s", "0.3"],
    ["isoperimetric", "--s", "0.3"],
    ["sweep-s1", "--set", "cap:0,0,1:1"],
    ["sweep-sinf", "--set", "cap:0,0,1:1"],
    ["seminorm-sweep", "--function", "coord:0"],
    ["crofton", "--set", "cap:0,0,1:1"],
    ["beta-check"],
    ["s0-check"],
    ["profile", "--s", "-3"],
], ids=lambda argv: argv[0])
def test_every_subcommand_bounds_n(capsys, argv, n):
    # from n = 343 math.gamma overflowed in sphere_surface with a traceback
    # (profile --n 400 --s -3); bp-check has its own, lower bound
    assert main(argv + ["--n", n]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"spherefrac: config error: --n must lie in [1, 342], got {n}"]
    assert captured.out == ""


@pytest.mark.parametrize("command", ("seminorm-sweep", "beta-check"))
@pytest.mark.parametrize("p", ("0", "nan", "inf", "-1"))
def test_p_outside_its_range_is_a_config_error(capsys, command, p):
    # p = 0 died in a ZeroDivisionError from n / p, nan slipped past p < 1
    # into the sampler (exit 3), and beta-check took inf to rows of 0 that
    # passed its verdict
    argv = [command, "--n", "2", f"--p={p}", "--samples", "200"]
    if command == "seminorm-sweep":
        argv += ["--function", "coord:0"]
    else:
        argv.remove("--samples")
        argv.remove("200")
    assert main(argv) == 1
    captured = capsys.readouterr()
    least = ">= 1" if command == "seminorm-sweep" else "> 0"
    assert captured.err == f"spherefrac: config error: p must be a finite number {least}, got {float(p)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("p", ("1e300", "1e307"))
def test_p_whose_kernel_overflows_is_a_config_error(capsys, p):
    # --p=1e300 printed numpy's overflow warning from |f(x) - f(y)|^p and
    # exited 3: the kernel's mass pi B(a, n), a = -s p, underflows a float.
    # At 1e307 the exponent -(n + s p) is infinite and every weight was nan
    argv = ["seminorm-sweep", "--n", "2", "--function", "coord:0", f"--p={p}", "--samples", "200"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("spherefrac: config error: the kernel exponent ")
    assert captured.out == ""


@pytest.mark.parametrize("argv, rc", [
    (["beta-check", "--n", "200", "--t-grid", "300,400,500"], 1),
    (["beta-check", "--n", "2", "--t-grid", "1e300"], 0),
    (["sweep-sinf", "--n", "2", "--set", "cap:0,0,1:1", "--t-grid", "1e300"], 1),
    (["seminorm-sweep", "--n", "2", "--function", "coord:0", "--t-grid", "1e300"], 1),
], ids=("beta-n200", "beta-t1e300", "sweep-sinf-t1e300", "seminorm-t1e300"))
def test_t_grids_whose_t_to_the_n_overflows_end_in_an_exit_code(capsys, argv, rc):
    # each died in an OverflowError from t**n.  beta-check takes its rows in
    # log space: at n = 2 and t = 1e300 t^n B(n, t - 1) is 1 to roundoff,
    # while 300^200 B(200, 101) is about 10^411 and overflows; the sweeps
    # reject a t whose prefactor t^n overflows before they sample
    assert main(argv) == rc
    captured = capsys.readouterr()
    if rc == 0:
        row = captured.out.splitlines()[1].split(",")
        assert float(row[0]) == 1e300 and float(row[1]) == pytest.approx(1.0, rel=1e-12)
    else:
        assert captured.err.startswith("spherefrac: config error:")
        assert "overflows a float" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("argv, method", [
    (["sweep-sinf", "--n", "2", "--set", "cap:0,0,1:1.5707963267948966"], "cap_oracle"),
    (["sweep-sinf", "--n", "1", "--set", "arcs:0,1"], "circle_exact"),
    (["sweep-sinf", "--n", "2", "--set", OCTANT_DESC, "--samples", "4096"], "mc"),
    (["seminorm-sweep", "--n", "2", "--function", "coord:0"], "exact"),
    (["seminorm-sweep", "--n", "3", "--function", "const:2", "--p", "1.5"], "exact"),
    (["seminorm-sweep", "--n", "2", "--function", "abs-coord:1", "--samples", "4096"], "exact"),
], ids=("cap", "arcs", "octant", "coord", "const", "abs-coord"))
def test_t_sweep_records_name_their_method_and_rerun_byte_identical(monkeypatch, capsys,
                                                                     argv, method):
    # the method goes into detail, not into a CSV column; cap, circle and
    # seminorm rows take no samples, so they are the same at every seed
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    outputs = []
    for seed in ("1", "1", "2"):
        assert main(argv + ["--seed", seed, "--format", "json"]) in (0, 2)
        outputs.append(capsys.readouterr().out)
    record = json.loads(outputs[0])
    assert record["detail"]["method"] == method
    assert outputs[0] == outputs[1]
    rows = [json.loads(out)["rows"] for out in outputs]
    assert (rows[0] == rows[2]) == (method != "mc")
    assert main(argv + ["--seed", "1"]) in (0, 2)
    assert capsys.readouterr().out.splitlines()[0] == "param,value,error,target,deviation"


@pytest.mark.parametrize("function", ("coord:0", "abs-coord:1", "const:2"))
def test_seminorm_csvs_are_the_same_under_every_seed(monkeypatch, capsys, function):
    # seminorm-sweep and s0-check rows integrate their pair law and draw
    # nothing: their CSV reads no seed, not even SPHEREFRAC_SEED
    for argv in (["seminorm-sweep", "--n", "2", "--function", function],
                 ["s0-check", "--n", "2", "--function", function]):
        outputs = []
        for seed in ("1", "0x2a"):
            monkeypatch.setenv("SPHEREFRAC_SEED", seed)
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def test_sweep_s1_on_the_octant_reaches_its_surface_area_limit(capsys):
    # the point-pair rows fell from 9.6 to 1.0 and extrapolated to 0.52;
    # the sliced rows extrapolate within 2% of 3 pi, the default threshold
    assert main(["sweep-s1", "--n", "2", "--set", "poly:-1,0,0;0,-1,0;0,0,-1",
                 "--seed", "5", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["limit"]["target"] == pytest.approx(3.0 * math.pi, rel=1e-12)
    assert record["limit"]["deviation"] < 0.02
    assert record["verdicts"] == {"within_threshold": True}


def test_crofton_on_an_overlapping_union_counts_its_boundary(capsys):
    # 3.366 before, the two caps' counts added; the union's boundary is
    # about 6.013 long, so the count is about 2 L / 2 pi = 1.914
    assert main(["crofton", "--n", "2", "--set", "union:cap:0,0,1:1+cap:0,0.6,0.8:1",
                 "--planes", "100000", "--seed", "3"]) == 0
    _, value, error = capsys.readouterr().out.splitlines()[1].split(",")[:3]
    assert abs(float(value) - 1.9141) < 4.0 * float(error) + 1e-4


@pytest.mark.parametrize("desc", (
    "poly:1,0,0,0;-1,0,0,0",
    "poly:" + ";".join(",".join(str(sign * (i == j)) for j in range(4))
                       for i in range(4) for sign in (1, -1)),
), ids=("slab", "all-eight-faces"))
def test_an_empty_polytope_reads_zero(capsys, desc):
    # every circle's trace was flagged degenerate, and both runs exited 3
    # after 100 redraw rounds; two opposite faces leave no interior
    assert main(["perimeter", "--n", "3", "--set", desc, "--s", "-0.5", "--method", "mc",
                 "--samples", "1000"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "-0.5,0,0,nan,nan"
    assert main(["crofton", "--n", "3", "--set", desc, "--planes", "1000"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "1000,0,0,0,0"


def test_circle_exact_takes_any_set_on_the_circle(capsys):
    # the complement of an arc is a set on S^1 but not an arcs set
    argv = ["perimeter", "--n", "1", "--s", "0.3", "--method", "circle_exact"]
    assert main(argv + ["--set", "compl:arcs:0,1"]) == 0
    _, value, error, _, _ = capsys.readouterr().out.splitlines()[1].split(",")
    # the cap oracle's floor, 1e-11 relative at s = 0.3
    assert float(error) == pytest.approx(1e-11 * float(value), rel=1e-12)
    assert main(argv + ["--set", "arcs:0,1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[1:3] == [value, error]


def test_sweep_s1_takes_the_circle_formula_on_any_set_on_the_circle(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("perimeter_mc called")

    monkeypatch.setattr("spherefrac.perimeter.perimeter_mc", refuse)
    assert main(["sweep-s1", "--n", "1", "--set", "compl:arcs:0,1", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["detail"]["method"] == "circle_exact"
    assert all(row["error"] == pytest.approx(1e-11 * row["value"], rel=1e-12)
               for row in record["rows"][:-1])


def test_an_arc_on_the_circle_reads_as_the_cap_it_is(capsys):
    # both take the circle formula: the arc printed error 0 and the cap the
    # cap oracle's floor 1e-11 |value|, for the same value
    outputs = []
    for desc in ("arcs:-0.5,1", "cap:1,0:0.5"):
        assert main(["sweep-sinf", "--n", "1", "--set", desc, "--seed", "1"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert all(float(line.split(",")[2]) > 0.0 for line in outputs[0].splitlines()[1:-1])


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
        "s0-check", "--n", "2", "--function", "coord:0", "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    rec = json.loads(out.read_text())
    assert rec["verdicts"]["monotone_within_3se"]
    assert rec["verdicts"]["final_below_bound"]


def test_s0_check_rows_do_not_underflow_on_large_spheres(capsys):
    # omega_(n+1) omega_n is 0 from n = 271, and every row read 0 +- 0
    rc = main(["s0-check", "--n", "280", "--function", "coord:0", "--format", "json"])
    assert rc in (0, 2)
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 4
    for row in rows:
        assert row["value"] > 0.0 and 0.0 < row["error"] < math.inf


@pytest.mark.parametrize("n", (4, 280))
def test_s0_check_bound_holds_and_stays_normal_on_larger_spheres(capsys, n):
    # the crude bound 0.05 L omega_(n+1)^2 pi failed on this correct estimate
    # from n = 4, and its scale and bound read 0 from n = 261
    rc = main(["s0-check", "--n", str(n), "--function", "coord:0", "--format", "json"])
    rec = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert rec["verdicts"]["final_below_bound"]
    assert 0.0 < rec["rows"][-1]["value"] <= rec["detail"]["bound"]
    assert rec["detail"]["bound"] == pytest.approx(0.01 * rec["detail"]["scale"], rel=1e-15)


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


# every subcommand at a tiny size; the cap oracle runs at n = 3 and 4,
# sweep-sinf reaches cap_area through symmetric_overlap_measure, and
# isoperimetric and profile reach it through volume_radius
_EVERY_SUBCOMMAND = [
    ["perimeter", "--n", "4", "--set", "cap:0,0,0,1,0:1", "--s", "0.3", "--method", "cap_oracle"],
    ["isoperimetric", "--s", "-1", "--trials", "2", "--samples", "2000", "--seed", "1"],
    ["sweep-s1", "--n", "3", "--set", "cap:0,0,0,1:1", "--method", "cap_oracle"],
    ["sweep-sinf", "--n", "2", "--set", "cap:0,0,1:1", "--samples", "2000", "--seed", "1"],
    ["seminorm-sweep", "--n", "2", "--function", "coord:0", "--samples", "2000", "--seed", "1"],
    ["crofton", "--n", "2", "--set", "cap:0,0,1:1", "--planes", "100", "--seed", "1"],
    ["bp-check", "--pairs", "1000", "--planes", "10", "--seed", "1"],
    ["beta-check", "--n", "2"],
    ["s0-check", "--n", "2"],
    ["profile", "--n", "2", "--s", "-1", "--alpha-grid", "1,6"],
]


def test_no_subcommand_imports_scipy():
    # importing scipy.special was most of every CLI run's start-up (about
    # 0.3 s of 0.5 s on a 2-CPU machine); the library needs numpy only, so a fresh interpreter that runs every subcommand
    # must not have loaded any scipy module
    assert {argv[0] for argv in _EVERY_SUBCOMMAND} == set(_HANDLERS)
    script = (
        "import contextlib, io, sys\n"
        "from spherefrac.cli import main\n"
        f"for argv in {_EVERY_SUBCOMMAND!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = main(argv)\n"
        "    assert rc in (0, 2), (argv, rc)\n"
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


def _main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_shared_parser_carries_nothing_from_one_main_call_to_the_next(monkeypatch):
    # every main call of a process parses with one parser; a custom grid, an
    # error or an output format must not show in a later call's output
    env = dict(_child_env(), SOURCE_DATE_EPOCH="0", COLUMNS="80")
    for name in ("SOURCE_DATE_EPOCH", "COLUMNS"):
        monkeypatch.setenv(name, env[name])
    monkeypatch.delenv("SPHEREFRAC_SEED", raising=False)
    env.pop("SPHEREFRAC_SEED", None)
    cap = ["--n", "2", "--set", "cap:0,0,1:1"]
    sinf = ["sweep-sinf", *cap, "--samples", "2000", "--seed", "1"]
    calls = [
        ["sweep-s1", "--n", "2"],
        ["sweep-s1", *cap, "--s-grid=0.9,0.9"],
        ["sweep-s1", *cap, "--s-grid=0.5,0.7,0.8"],
        ["sweep-s1", *cap],
        ["sweep-s1", *cap, "--format", "json"],
        sinf,
        sinf + ["--format", "json"],
    ]
    in_process = [_main_in_process(argv) for argv in calls]
    assert [rc for rc, _, _ in in_process] == [1, 1, 2, 0, 0, 0, 0]
    for argv, (rc, out, err) in zip(calls, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "spherefrac", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, err), argv
    assert build_parser() is build_parser()


def test_importing_the_cli_builds_no_parser():
    # the parser is built on the first main call, so start-up does not pay for it
    script = (
        "from spherefrac.cli import build_parser\n"
        "print(build_parser.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


# the run flags each subcommand does not read, and so rejects
_UNREAD_FLAGS = {
    "crofton": ("--samples", "--tol", "--threshold"),
    "bp-check": ("--samples", "--tol", "--threshold"),
    "beta-check": ("--seed", "--samples", "--tol"),
    "profile": ("--seed", "--samples", "--threshold", "--tol"),
    # its rows are exact: --seed and --samples left with its point pairs
    "s0-check": ("--seed", "--samples", "--tol", "--threshold"),
    "sweep-sinf": ("--tol",),
    "seminorm-sweep": ("--tol",),
    "isoperimetric": ("--threshold", "--tol"),
    # the cap oracle is a fixed rule: no subcommand takes --tol
    "perimeter": ("--tol",),
    "sweep-s1": ("--tol",),
}


@pytest.mark.parametrize("command", sorted(_UNREAD_FLAGS))
def test_each_subcommand_rejects_the_flags_it_does_not_read(capsys, command):
    # all ten subcommands took --seed/--samples/--tol/--threshold, and
    # these were silently ignored; --tol left with the adaptive cap oracle
    [argv] = [a for a in _EVERY_SUBCOMMAND if a[0] == command]
    for flag in _UNREAD_FLAGS[command]:
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "3"])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_record_config_lists_only_the_flags_read(capsys):
    argv = ["crofton", "--n", "2", "--set", "cap:0,0,1:1", "--planes", "64"]
    assert main(argv + ["--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config == {"n": 2, "set_desc": "cap:0,0,1:1", "planes": 64, "seed": DEFAULT_SEED}
    assert main(["beta-check", "--n", "2", "--format", "json"]) == 0
    assert "seed" not in json.loads(capsys.readouterr().out)["config"]


# ---------------------------------------------------------------------------
# fuzzing main at tiny sizes

# ordinary values weigh four times as much as the edge values, and a
# vector has the length of the sphere's points five times out of seven
_EDGE = ["1e300", "-1e300", "1e-300", "inf", "-inf", "nan"]
_NUMBER = st.sampled_from(["0", "1", "-1", "0.5", "2", "1e+2"] * 4 + _EDGE)
_RADIUS = st.sampled_from(["0", "0.5", "1", "2", "3.1415926535897931"] * 4 + _EDGE + ["-1", "4"])
_S = st.sampled_from(["-3", "-2", "-0.5", "0", "0.3"] * 3 + [
    "-1e5", "-700", "-619", "0.999999", "1", "1.5", "nan", "inf", "-inf", "-1e300"])
_T_GRID = st.sampled_from(["20,40,80", "2,3", "1", "0", "-1", "80,40,20", "1e5", "1e300",
                           "nan", "inf"])
# sweeps end in the limit row
_SWEEPS = ("sweep-s1", "sweep-sinf", "seminorm-sweep")


def _set_descriptions(n):
    size = st.sampled_from([n + 1] * 5 + [n, n + 2])
    vector = size.flatmap(lambda k: st.lists(_NUMBER, min_size=k, max_size=k)).map(",".join)
    leaves = [
        st.tuples(vector, _RADIUS).map(lambda t: f"cap:{t[0]}:{t[1]}"),
        st.lists(vector, min_size=1, max_size=3).map(lambda rows: "poly:" + ";".join(rows)),
    ]
    if n == 1:
        arc = st.tuples(_NUMBER, _RADIUS).map(",".join)
        leaves.append(st.lists(arc, min_size=1, max_size=2).map(lambda a: "arcs:" + ";".join(a)))
    return st.recursive(st.one_of(leaves), lambda inner: st.one_of(
        inner.map("compl:".__add__),
        inner.map("refl:".__add__),
        st.lists(inner, min_size=2, max_size=3).map(lambda parts: "union:" + "+".join(parts)),
    ), max_leaves=4)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["perimeter", "crofton", "sweep-s1", "sweep-sinf",
                                    "seminorm-sweep"]))
    n = draw(st.sampled_from([1, 2]))
    argv = [command, "--n", str(n), "--seed", "1"]
    if command == "seminorm-sweep":
        argv += ["--function", draw(st.sampled_from(["coord:0", "abs-coord:1", "const:2"]))]
    else:
        argv += ["--set", draw(_set_descriptions(n))]
    if command == "perimeter":
        argv += [f"--s={draw(_S)}"]
    if command in ("perimeter", "sweep-s1"):
        argv += ["--method", draw(st.sampled_from(["auto"] * 3 + ["mc", "cap_oracle",
                                                                   "circle_exact"]))]
    if command in ("sweep-sinf", "seminorm-sweep"):
        argv += [f"--t-grid={draw(_T_GRID)}"]
    return argv + (["--planes", "2"] if command == "crofton" else ["--samples", "2"])


@settings(max_examples=150)
@given(argv=_argv())
@example(argv=["perimeter", "--n", "2", "--set", "cap:0,0,1:1", "--s=-700", "--method",
               "cap_oracle"])
@example(argv=["perimeter", "--n", "1", "--set", "arcs:0,1", "--s=-619"])
def test_fuzzed_cli_inputs_end_in_an_exit_code(argv):
    # no traceback: main returns an exit code or argparse exits with 1, and
    # a run that exits 0 prints finite values and errors in every row but
    # a sweep's limit row.  The two examples printed `inf,inf` and `inf,0`
    # and exited 0.  Values are joined to their flags (--s=-1e5), as
    # argparse reads a separate -1e5 as a flag
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2, 3), (argv, rc, err.getvalue())
    if rc == 0:
        rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
        if argv[0] in _SWEEPS:
            rows = rows[:-1]
        for row in rows:
            assert all(math.isfinite(float(x)) for x in row[1:3]), (argv, row)


# the count and grid flags at edge values; an ordinary value weighs four
# times as much as each edge value, and a grid may be empty or repeat a value
_EDGE_VALUES = ["0", "1", "2", "-1", "nan", "inf", "1e300"]


def _edge(ordinary):
    return st.sampled_from([ordinary] * 4 + _EDGE_VALUES)


def _edge_grid(ordinary, repeated):
    return st.sampled_from([ordinary] * 4 + _EDGE_VALUES + ["", repeated])


_EDGE_FLAGS = {
    "seminorm-sweep": {"--p": _edge("1"), "--t-grid": _edge_grid("20,40", "20,20")},
    "beta-check": {"--p": _edge("1"), "--t-grid": _edge_grid("20,40", "20,20")},
    "sweep-s1": {"--s-grid": _edge_grid("0.9,0.95", "0.9,0.9")},
    "s0-check": {"--s-grid": _edge_grid("-0.3,-0.1", "-0.1,-0.1")},
    "profile": {"--alpha-grid": _edge_grid("1,6", "1,1"), "--s": _edge("0.3")},
    "isoperimetric": {"--trials": _edge("2"), "--s": _edge("0.3")},
    "crofton": {"--planes": _edge("64")},
    "bp-check": {"--pairs": _edge("64"), "--planes": _edge("2")},
}
_EDGE_BASE = {
    "seminorm-sweep": ["--n", "2", "--function", "coord:0", "--samples", "2"],
    "beta-check": ["--n", "2"],
    "sweep-s1": ["--n", "2", "--set", "cap:0,0,1:1"],
    "s0-check": ["--n", "2"],
    "profile": ["--n", "2"],
    "isoperimetric": ["--n", "2", "--samples", "2"],
    "crofton": ["--n", "2", "--set", "poly:-1,0,0;0,-1,0;0,0,-1"],
    "bp-check": [],
}


@st.composite
def _edge_argv(draw):
    command = draw(st.sampled_from(sorted(_EDGE_FLAGS)))
    argv = [command, *_EDGE_BASE[command]]
    if command in ("seminorm-sweep", "isoperimetric", "crofton", "bp-check"):
        argv += ["--seed", "1"]
    for flag, values in _EDGE_FLAGS[command].items():
        argv.append(f"{flag}={draw(values)}")
    return argv


@settings(max_examples=100)
@given(argv=_edge_argv())
@example(argv=["seminorm-sweep", "--n", "2", "--function", "coord:0", "--samples", "2",
               "--seed", "1", "--p=0", "--t-grid=20,40"])
@example(argv=["beta-check", "--n", "2", "--p=inf", "--t-grid=20,40"])
def test_fuzzed_count_and_grid_flags_end_in_an_exit_code(argv):
    # as the fuzz above: an exit code and no traceback, and finite values
    # and errors in every row but a sweep's limit row of a run that exits 0.
    # The examples died in a ZeroDivisionError and printed rows of 0 that
    # passed, and every run takes a few hundred samples or fewer
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2, 3), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
        if argv[0] in _SWEEPS + ("beta-check",):
            rows = rows[:-1]
        for row in rows:
            assert all(math.isfinite(float(x)) for x in row[1:3]), (argv, row)


# the function grammar: well-formed and malformed indices and constants,
# unknown kinds, and --n, --p and the grids at ordinary and edge values,
# the ordinary ones weighted so that about half of the runs get past the
# checks.  --n stays at 13 or below, or out of range; n = 300 runs as an
# example
_INDEX = st.sampled_from(["0", "1", "2"] * 6 + ["-1", "343", "x", "", "1.5", "1e3", "nan"])
_CONSTANT = st.sampled_from(["0", "2", "-1.5"] * 6 + ["1e300", "-1e300", "inf", "nan", "x", ""])
_FUNCTION = st.sampled_from(["coord", "abs-coord", "const"] * 6 + ["cos", ""]).flatmap(
    lambda kind: (_CONSTANT if kind == "const" else _INDEX).map(lambda v: f"{kind}:{v}"))
_FUNCTION_FLAGS = {
    "--n": st.sampled_from(["1", "2", "3", "13"] * 6 + ["0", "343", "x"]),
    "--p": st.sampled_from(["1", "1.5", "2"] * 6 + ["0.5", "1e300", "1100", "nan", "inf"]),
    "--t-grid": st.sampled_from(["20,40,80"] * 18 + ["2,3", "1e5", "1e300", "0", "80,40",
                                                     "nan", "", "20,20"]),
    "--s-grid": st.sampled_from(["-0.3,-0.1"] * 18 + ["-0.5", "0", "-1", "nan", "-0.1,-0.3", ""]),
}


@st.composite
def _function_argv(draw):
    command = draw(st.sampled_from(["seminorm-sweep", "s0-check"]))
    argv = [command, f"--n={draw(_FUNCTION_FLAGS['--n'])}", f"--function={draw(_FUNCTION)}"]
    if command == "seminorm-sweep":
        argv += ["--seed", "1", "--samples", "64"]
    flags = ("--p", "--t-grid") if command == "seminorm-sweep" else ("--s-grid",)
    return argv + [f"{flag}={draw(_FUNCTION_FLAGS[flag])}" for flag in flags]


@settings(max_examples=100)
@given(argv=_function_argv())
@example(argv=["seminorm-sweep", "--n=300", "--function=coord:3", "--seed", "1", "--samples",
               "64", "--p=100", "--t-grid=4,5,6"])
@example(argv=["seminorm-sweep", "--n=2", "--function=const:nan", "--seed", "1", "--samples",
               "64", "--p=1", "--t-grid=20,40,80"])
def test_fuzzed_function_descriptions_end_in_an_exit_code(argv):
    # as the fuzzes above.  The first example died in an OverflowError from
    # c_(n,p)'s (n-1)! as a float; the second exited 3 on the nan
    # differences of a constant nan, which is now a config error
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2, 3), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
        if argv[0] == "seminorm-sweep":
            rows = rows[:-1]
        for row in rows:
            assert all(math.isfinite(float(x)) for x in row[1:3]), (argv, row)


@pytest.mark.skipif(
    shutil.which("spherefrac") is None, reason="spherefrac is not installed on PATH"
)
def test_installed_console_script():
    _run_entry_point(["spherefrac"])
