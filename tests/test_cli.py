import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import emdut
import emdut.cli as cli
from emdut.cli import main
from emdut.core import parse_point_set
from emdut.hardness import OVInstance, ov_reduction


@pytest.fixture
def files(tmp_path):
    blue = tmp_path / "b.txt"
    red = tmp_path / "r.txt"
    blue.write_text("1\n0\n1\n")
    red.write_text("1\n0\n2\n3\n")
    return blue, red, tmp_path


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_sweep_json_schema(capsys, files):
    blue, red, _ = files
    code, out, err = run(
        capsys, ["solve", "emdut1d", "--blue", str(blue), "--red", str(red)]
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["value"] == "0"
    assert payload["translation"] == ["2"]
    assert payload["algorithm"] == "sweep"
    assert sorted(payload["matching"]) == [[0, 1], [1, 2]]
    assert payload["stats"]["events"] >= 1
    assert F(payload["value"]) == 0  # exact rational round trip


def test_solve_oracle_agrees_with_sweep(capsys, files):
    blue, red, _ = files
    _, out_sweep, _ = run(
        capsys,
        ["solve", "emdut1d", "--blue", str(blue), "--red", str(red), "--algorithm", "sweep"],
    )
    _, out_oracle, _ = run(
        capsys,
        ["solve", "emdut1d", "--blue", str(blue), "--red", str(red), "--algorithm", "oracle"],
    )
    assert json.loads(out_sweep)["value"] == json.loads(out_oracle)["value"]


def test_solve_emd_and_hd(capsys, tmp_path):
    blue = tmp_path / "b2.txt"
    red = tmp_path / "r2.txt"
    blue.write_text("2\n0 0\n1 0\n")
    red.write_text("2\n0 0\n3 0\n")
    code, out, _ = run(
        capsys,
        ["solve", "emdut-hd", "--blue", str(blue), "--red", str(red), "--metric", "linf"],
    )
    assert code == 0
    payload = json.loads(out)
    assert 1 <= payload["stats"]["evaluated"] <= payload["stats"]["candidates"]
    assert len(payload["translation"]) == 2
    code, out, _ = run(
        capsys, ["solve", "emd", "--blue", str(blue), "--red", str(red)]
    )
    assert code == 0
    assert "translation" not in json.loads(out)


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch, request,
                                                   tmp_path):
    # main builds its argparse tree once, and no call leaves state in it
    # that changes the next one's answer
    built = []
    real = cli.build_parser

    def spy():
        built.append(1)
        return real()

    cli._parser.cache_clear()
    request.addfinalizer(cli._parser.cache_clear)
    monkeypatch.setattr(cli, "build_parser", spy)
    blue = tmp_path / "b.txt"
    red = tmp_path / "r.txt"
    blue.write_text("2\n0 0\n1 4\n")
    red.write_text("2\n0 1\n3 5\n2 2\n")
    solve = ["solve", "emdut-hd", "--blue", str(blue), "--red", str(red)]

    def answer():
        code, out, err = run(capsys, solve)
        payload = json.loads(out)
        del payload["stats"]["millis"]
        return code, payload, err

    first = answer()
    graph = tmp_path / "G.txt"
    graph.write_text("3\n1 2\n1 3\n2 3\n")
    gen = ["gen", "clique", "--variant", "l1-asym", "--k", "3",
           "--graph", str(graph), "--out-prefix", str(tmp_path / "cl")]
    assert run(capsys, gen) == run(capsys, gen)
    with pytest.raises(SystemExit) as exc:
        main(solve + ["--budget", "many"])
    assert exc.value.code == 2 and "--budget" in capsys.readouterr().err
    assert first[0] == 0 and first[1]["value"] == "1"
    assert answer() == first
    assert len(built) == 1


def test_exit_codes(capsys, files, tmp_path):
    blue, red, _ = files
    code, _, err = run(
        capsys, ["solve", "emdut1d", "--blue", "nope.txt", "--red", str(red)]
    )
    assert code == 2 and err.strip().startswith("error:") and "\n" not in err.strip()
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 2\n3\n")
    code, _, err = run(
        capsys, ["solve", "emdut1d", "--blue", str(bad), "--red", str(red)]
    )
    assert code == 2 and "line 3" in err
    # symmetric algorithm on mismatched sizes is an input error
    code, _, _ = run(
        capsys,
        ["solve", "emdut1d", "--blue", str(blue), "--red", str(red), "--algorithm", "symmetric"],
    )
    assert code == 2
    # 1D routines given planar sets exit 2 with the library's wording
    pb = tmp_path / "pb.txt"
    pr = tmp_path / "pr.txt"
    pb.write_text("2\n0 0\n")
    pr.write_text("2\n0 1\n1 3\n")
    for argv in (["emdut1d"], ["emdut1d", "--algorithm", "symmetric"],
                 ["emdut1d", "--algorithm", "oracle"], ["emd", "--algorithm", "monotone"]):
        code, out, err = run(
            capsys, ["solve", *argv, "--blue", str(pb), "--red", str(pr)]
        )
        assert (code, out) == (2, "")
        assert err == "error: 1-dimensional point sets required, got 2\n"
    # tiny budget exhausts on Linf candidate enumeration
    b2 = tmp_path / "bb.txt"
    r2 = tmp_path / "rr.txt"
    b2.write_text("2\n0 0\n1 5\n")
    r2.write_text("2\n0 1\n1 3\n2 5\n3 7\n")
    code, _, err = run(
        capsys,
        ["solve", "emdut-hd", "--blue", str(b2), "--red", str(r2),
         "--metric", "linf", "--budget", "3"],
    )
    assert code == 1 and "budget" in err


def test_huge_exponent_exits_2_naming_the_line(tmp_path):
    # A child process, so that a parse which expands the exponent fails
    # on the timeout instead of hanging the suite.
    blue = tmp_path / "b.txt"
    red = tmp_path / "r.txt"
    blue.write_text("1\n1e999999999\n")
    red.write_text("1\n0\n")
    env = dict(os.environ, PYTHONPATH=str(Path(emdut.__file__).parents[1]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "emdut.cli", "solve", "emdut1d",
         "--blue", str(blue), "--red", str(red)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2 and "line 2" in proc.stderr
    assert time.perf_counter() - t0 < 10


def test_gen_clique_past_the_size_guard_exits_2_at_once(tmp_path):
    # Child processes with a timeout, so that a generator that builds the
    # whole instance (minutes and gigabytes) fails on the timeout instead.
    graph = tmp_path / "g.txt"
    graph.write_text("3\n1 2\n2 3\n")
    env = dict(os.environ, PYTHONPATH=str(Path(emdut.__file__).parents[1]))
    # 3-node path, k = 120: points * d for each variant
    for variant, coords in (("l1-asym", 5_140_800), ("l1-sym", 13_708_800),
                            ("linf-sym", 41_297_760)):
        proc = subprocess.run(
            [sys.executable, "-m", "emdut.cli", "gen", "clique", "--variant", variant,
             "--k", "120", "--graph", str(graph), "--out-prefix", str(tmp_path / "c")],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert f"has {coords} coordinates" in proc.stderr
        assert "generator guard of 4000000" in proc.stderr
    assert not list(tmp_path.glob("c_*"))


def test_grid_walk_runs_in_1500_dimensions(capsys, tmp_path):
    # one candidate translation, on a walk one axis deep per dimension
    d = 1500
    blue = tmp_path / "b.txt"
    red = tmp_path / "r.txt"
    blue.write_text(f"{d}\n" + " ".join(str(k) for k in range(d)) + "\n")
    red.write_text(f"{d}\n" + " ".join(str(3 * k + 1) for k in range(d)) + "\n")
    code, out, err = run(
        capsys, ["solve", "emdut-hd", "--blue", str(blue), "--red", str(red)]
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["value"] == "0"
    assert payload["translation"] == [str(2 * k + 1) for k in range(d)]


def test_linf_budget_is_checked_before_any_plane_is_built(tmp_path):
    # d = 400: at least d*d planes of d Fractions each, and C(160000, 400)
    # vertex candidates.  A child process, so that building the planes
    # fails on the timeout instead of hanging the suite.
    d = 400
    blue = tmp_path / "b.txt"
    red = tmp_path / "r.txt"
    blue.write_text(f"{d}\n" + " ".join(str(k) for k in range(d)) + "\n")
    red.write_text(f"{d}\n" + " ".join(str(3 * k + 1) for k in range(d)) + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(emdut.__file__).parents[1]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "emdut.cli", "solve", "emdut-hd", "--metric", "linf",
         "--blue", str(blue), "--red", str(red)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1 and "budget" in proc.stderr
    assert time.perf_counter() - t0 < 20


def test_linf_budget_refuses_on_the_plane_lower_bound_at_once(tmp_path):
    # d = 1500: counting the 2.25 million plane families would take many
    # seconds, but C(d*d, d) alone already exceeds the budget
    d = 1500
    blue = tmp_path / "b.txt"
    red = tmp_path / "r.txt"
    blue.write_text(f"{d}\n" + " ".join(str(k) for k in range(d)) + "\n")
    red.write_text(f"{d}\n" + " ".join(str(3 * k + 1) for k in range(d)) + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(emdut.__file__).parents[1]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "emdut.cli", "solve", "emdut-hd", "--metric", "linf",
         "--blue", str(blue), "--red", str(red)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1 and "needs at least" in proc.stderr
    assert time.perf_counter() - t0 < 2


def test_huge_dimension_line_exits_2_naming_line_1(capsys, tmp_path):
    empty = tmp_path / "e.txt"
    empty.write_text("1000000000000\n")
    code, _, err = run(
        capsys, ["solve", "emdut-hd", "--blue", str(empty), "--red", str(empty)]
    )
    assert code == 2 and "line 1" in err and "dimension" in err


def test_output_past_the_int_str_digit_limit(capsys, tmp_path):
    blue = tmp_path / "b.txt"
    red = tmp_path / "r.txt"
    blue.write_text("1\n1e-5000\n1e-5000\n")
    red.write_text("1\n1e5000\n3e5000\n")
    code, out, err = run(
        capsys, ["solve", "emdut1d", "--blue", str(blue), "--red", str(red)]
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    # |tau + eps - 10^5000| + |tau + eps - 3*10^5000| is smallest from
    # tau = 10^5000 - 10^-5000 on
    assert payload["value"] == "2" + "0" * 5000
    assert payload["translation"] == ["9" * 10000 + "/1" + "0" * 5000]


def test_gen_ov_files_and_sidecar(capsys, tmp_path):
    xf = tmp_path / "X.txt"
    yf = tmp_path / "Y.txt"
    xf.write_text("1 0\n1 1\n0 1\n")
    yf.write_text("0 1\n1 1\n1 0\n")
    prefix = str(tmp_path / "inst")
    code, out, _ = run(
        capsys, ["gen", "ov", "--vectors", str(xf), str(yf), "--out-prefix", prefix]
    )
    assert code == 0
    listing = json.loads(out)
    blue = parse_point_set((tmp_path / "inst_blue.txt").read_text())
    red = parse_point_set((tmp_path / "inst_red.txt").read_text())
    sidecar = json.loads((tmp_path / "inst_meta.json").read_text())
    gi = ov_reduction(
        OVInstance(((1, 0), (1, 1), (0, 1)), ((0, 1), (1, 1), (1, 0)))
    )
    assert blue == gi.blue and red == gi.red
    assert F(sidecar["lambda"]) == gi.lam
    assert sidecar["metric"] == "l1"
    assert sidecar["params"]["n"] == 4
    assert listing["points"] == [len(blue), len(red)]


def test_gen_into_a_missing_or_unwritable_path_exits_2_naming_it(capsys, tmp_path):
    xf = tmp_path / "X.txt"
    xf.write_text("1 0\n0 1\n")
    (tmp_path / "d_red.txt").mkdir()  # the red file's path is taken
    for prefix, bad in ((tmp_path / "missing" / "ov", "_blue.txt"),
                        (tmp_path / "d", "_red.txt")):
        code, out, err = run(
            capsys, ["gen", "ov", "--vectors", str(xf), str(xf),
                     "--out-prefix", str(prefix)]
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {prefix}{bad}: ") and err.count("\n") == 1


def test_gen_clique_files(capsys, tmp_path):
    gf = tmp_path / "G.txt"
    gf.write_text("3\n1 2\n1 3\n2 3\n")
    prefix = str(tmp_path / "cl")
    code, out, _ = run(
        capsys,
        ["gen", "clique", "--variant", "l1-asym", "--k", "3",
         "--graph", str(gf), "--out-prefix", prefix],
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "cl_meta.json").read_text())
    assert F(sidecar["lambda"]) == 9
    blue = parse_point_set((tmp_path / "cl_blue.txt").read_text())
    assert blue.dim == 3
    # malformed graph file
    gf.write_text("3\n1 2 3\n")
    code, _, err = run(
        capsys,
        ["gen", "clique", "--variant", "l1-asym", "--k", "3",
         "--graph", str(gf), "--out-prefix", prefix],
    )
    assert code == 2 and "edge" in err


def test_gen_then_solve_round_trip(capsys, tmp_path):
    # an instance with an orthogonal pair must solve to exactly the
    # threshold recorded in the sidecar
    xf = tmp_path / "X.txt"
    yf = tmp_path / "Y.txt"
    xf.write_text("1 0\n1 1\n1 1\n")
    yf.write_text("0 1\n1 1\n1 1\n")
    prefix = str(tmp_path / "rt")
    code, _, _ = run(
        capsys, ["gen", "ov", "--vectors", str(xf), str(yf), "--out-prefix", prefix]
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        ["solve", "emdut1d", "--blue", f"{prefix}_blue.txt",
         "--red", f"{prefix}_red.txt"],
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "rt_meta.json").read_text())
    assert json.loads(out)["value"] == sidecar["lambda"]


def test_bench_csv_shape_and_determinism(capsys):
    code, out1, _ = run(capsys, ["bench", "sweep", "--sizes", "30,60", "--seed", "5"])
    assert code == 0
    lines = out1.strip().split("\n")
    assert lines[0] == "n,m,events,millis"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["30", "60"]
    for r in rows:
        n, m, events = int(r[0]), int(r[1]), int(r[2])
        assert n == m and events <= 4 * n * m + 4
        float(r[3])
    code, out2, _ = run(capsys, ["bench", "sweep", "--sizes", "30,60", "--seed", "5"])
    strip = lambda text: [ln.rsplit(",", 1)[0] for ln in text.strip().split("\n")]
    assert strip(out1) == strip(out2)  # identical apart from wall-clock millis


def test_bench_instances_depend_on_seed():
    from emdut.cli import bench_instance

    b5, r5 = bench_instance(40, 5)
    b6, r6 = bench_instance(40, 6)
    assert (b5, r5) != (b6, r6)
    assert (b5, r5) == bench_instance(40, 5)
