import hashlib
import json
import os
import subprocess
import sys
import time
import types
from fractions import Fraction as F
from pathlib import Path

import pytest

import emdut
import emdut.cli as cli
import emdut.hardness as hardness
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


def test_solve_prints_exactly_these_bytes(capsys, monkeypatch, tmp_path):
    # The JSON layout is part of the interface: a change to it must change
    # this test too.  The clock is fixed so that "millis" reads 12.5.
    blue = tmp_path / "b.txt"
    red = tmp_path / "r.txt"
    blue.write_text("2\n0 0\n1/2 3\n")
    red.write_text("2\n0 0\n3 0\n-1 2\n")
    clock = iter([1.0, 1.0125])
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=clock.__next__))
    code, out, err = run(capsys, ["solve", "emdut-hd", "--blue", str(blue),
                                  "--red", str(red), "--metric", "linf"])
    assert (code, err) == (0, "")
    assert out.encode() == (
        b'{\n'
        b'  "value": "3/2",\n'
        b'  "algorithm": "arrangement-linf",\n'
        b'  "stats": {\n'
        b'    "events": null,\n'
        b'    "candidates": 36,\n'
        b'    "evaluated": 6,\n'
        b'    "millis": 12.5\n'
        b'  },\n'
        b'  "translation": [\n'
        b'    "-3/2",\n'
        b'    "-1"\n'
        b'  ],\n'
        b'  "matching": [\n'
        b'    [\n'
        b'      0,\n'
        b'      0\n'
        b'    ],\n'
        b'    [\n'
        b'      1,\n'
        b'      2\n'
        b'    ]\n'
        b'  ]\n'
        b'}\n'
    )


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


def test_gen_that_cannot_write_a_file_leaves_none_of_the_three(capsys, tmp_path):
    # a taken red or meta path comes after the blue (and red) file is
    # written; those are removed, and the taken path is left as it was
    xf = tmp_path / "X.txt"
    xf.write_text("1 0\n0 1\n")
    for prefix, bad in (("d", "_red.txt"), ("e", "_meta.json")):
        (tmp_path / f"{prefix}{bad}").mkdir()
        code, out, err = run(
            capsys, ["gen", "ov", "--vectors", str(xf), str(xf),
                     "--out-prefix", str(tmp_path / prefix)]
        )
        assert code == 2 and out == ""
        assert err == f"error: {tmp_path / prefix}{bad}: Is a directory\n"
        left = sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(prefix))
        assert left == [f"{prefix}{bad}"] and (tmp_path / f"{prefix}{bad}").is_dir()


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


def test_gen_clique_refusals_exit_2_with_one_message(capsys, monkeypatch, tmp_path):
    # the guard is lowered so that k = 3 trips it without building anything big
    monkeypatch.setattr(hardness, "CLIQUE_COORD_GUARD", 50)
    edgeless = tmp_path / "e.txt"
    edgeless.write_text("3\n")
    path = tmp_path / "p.txt"
    path.write_text("3\n1 2\n2 3\n")
    prefix = str(tmp_path / "c")
    # 3-node path, k = 3: points * d for each variant
    for variant, coords in (("l1-asym", 54), ("l1-sym", 144), ("linf-sym", 504)):
        for graph, k, message in (
            (edgeless, 3, "graph has no edges; every decision is trivially no"),
            (path, 1, "k must be >= 2"),
            (path, 3, f"has {coords} coordinates, exceeding the generator guard of 50"),
        ):
            code, out, err = run(capsys, ["gen", "clique", "--variant", variant,
                                          "--k", str(k), "--graph", str(graph),
                                          "--out-prefix", prefix])
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.endswith(f"{message}\n")
            assert err.count("\n") == 1
    assert not list(tmp_path.glob("c_*"))


def test_unreadable_or_malformed_inputs_exit_2_naming_the_file(capsys, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("1 0\n0 1\n")
    bad_rows = tmp_path / "rows.txt"
    bad_rows.write_text("1 0\n\n1 x\n")
    blank = tmp_path / "blank.txt"
    blank.write_text("\n  \n")
    missing = tmp_path / "missing.txt"
    out_prefix = ["--out-prefix", str(tmp_path / "o")]
    cases = [
        (["solve", "emdut1d", "--blue", str(missing), "--red", str(good)],
         f"{missing}: No such file or directory"),
        (["solve", "emdut1d", "--blue", str(tmp_path), "--red", str(good)],
         f"{tmp_path}: Is a directory"),
        (["gen", "ov", "--vectors", str(good), str(missing), *out_prefix],
         f"{missing}: No such file or directory"),
        (["gen", "ov", "--vectors", str(bad_rows), str(good), *out_prefix],
         f"{bad_rows}: line 3: expected 0/1 entries"),
        (["gen", "ov", "--vectors", str(good), str(blank), *out_prefix],
         f"{blank}: no vectors"),
        (["gen", "clique", "--variant", "l1-asym", "--k", "2", "--graph", str(missing),
          *out_prefix], f"{missing}: No such file or directory"),
        (["gen", "clique", "--variant", "l1-asym", "--k", "2", "--graph", str(blank),
          *out_prefix], f"{blank}: empty graph file"),
    ]
    for argv, message in cases:
        assert run(capsys, argv) == (2, "", f"error: {message}\n")


# (argv with the bad file as {bad}, the bad file's bytes or None for no
# file, or "dir" for a directory); the good files are named below
_READER_FAILURES = {
    "missing points": (["solve", "emdut1d", "--blue", "{bad}", "--red", "{points}"], None),
    "directory": (["solve", "emdut1d", "--blue", "{points}", "--red", "{bad}"], "dir"),
    "bad dimension line": (["solve", "emd", "--blue", "{bad}", "--red", "{points}"],
                           b"1 2\n0 0\n"),
    "bad coordinate": (["solve", "emdut-hd", "--blue", "{points}", "--red", "{bad}"],
                       b"1\n0\n\n1/0x\n"),
    "non-0/1 vector": (["gen", "ov", "--vectors", "{vectors}", "{bad}"], b"1 0\n0 b\n"),
    "non-binary integer": (["gen", "ov", "--vectors", "{bad}", "{vectors}"], b"1 0\n-1 1\n"),
    "empty vector file": (["gen", "ov", "--vectors", "{bad}", "{vectors}"], b"\r\n \n"),
    "ragged vector file": (["gen", "ov", "--vectors", "{bad}", "{vectors}"], b"1 0\n1\n"),
    "vector dimensions differ": (["gen", "ov", "--vectors", "{vectors}", "{bad}"],
                                 b"1 0 1\n0 1 1\n"),
    "empty graph": (["gen", "clique", "--graph", "{bad}"], b"\n\t\n"),
    "malformed graph": (["gen", "clique", "--graph", "{bad}"], b"3\n1 2 3\n"),
    "self-loop": (["gen", "clique", "--graph", "{bad}"], b"3\n1 2\n2 2\n"),
    "out-of-range edge": (["gen", "clique", "--graph", "{bad}"], b"3\n1 2\n3 4\n"),
    "non-UTF-8 points": (["solve", "emdut1d", "--blue", "{points}", "--red", "{bad}"],
                         b"1\n\xff\n"),
    "non-UTF-8 vectors": (["gen", "ov", "--vectors", "{bad}", "{vectors}"], b"1 0\n\xff 1\n"),
    "non-UTF-8 graph": (["gen", "clique", "--graph", "{bad}"], b"3\n1 2\xc3\n"),
}


@pytest.mark.parametrize("case", _READER_FAILURES)
def test_every_input_file_failure_exits_2_naming_the_file(capsys, tmp_path, case):
    argv, data = _READER_FAILURES[case]
    bad = tmp_path / "bad.txt"
    if data == "dir":
        bad.mkdir()
    elif data is not None:
        bad.write_bytes(data)
    names = {"bad": bad, "points": tmp_path / "points.txt", "vectors": tmp_path / "v.txt"}
    names["points"].write_text("1\n0\n3\n")
    names["vectors"].write_text("1 0\n0 1\n")
    argv = [arg.format_map(names) for arg in argv]
    if argv[0] == "gen":
        if argv[1] == "clique":
            argv += ["--variant", "l1-asym", "--k", "2"]
        argv += ["--out-prefix", str(tmp_path / "o")]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err
    assert not list(tmp_path.glob("o_*"))


def test_vector_and_graph_files_read_any_line_ends_and_blank_lines(capsys, tmp_path):
    # CRLF line ends, tabs and blank lines anywhere give the files the plain
    # spelling gives; line numbers count the blank lines
    def odd(text):
        rows = text.replace(" ", "\t ").splitlines()
        return ("\r\n \r\n" + "\r\n\t\r\n".join(rows) + "\r\n\r\n\n").encode()

    plain = {"x": "1 0 1\n0 1 1\n1 1 0\n", "y": "0 1 0\n1 1 1\n0 0 1\n",
             "g": "4\n1 2\n2 3\n1 3\n3 4\n"}
    outputs = {}
    for spelling in ("plain", "odd"):
        paths = {}
        for name, text in plain.items():
            paths[name] = tmp_path / f"{spelling}_{name}.txt"
            paths[name].write_bytes(odd(text) if spelling == "odd" else text.encode())
        for argv in (["gen", "ov", "--vectors", str(paths["x"]), str(paths["y"])],
                     ["gen", "clique", "--variant", "l1-sym", "--k", "3",
                      "--graph", str(paths["g"])]):
            prefix = tmp_path / f"{spelling}_{argv[1]}"
            assert run(capsys, [*argv, "--out-prefix", str(prefix)])[0] == 0
            for suffix in ("_blue.txt", "_red.txt", "_meta.json"):
                outputs[spelling, argv[1], suffix] = Path(f"{prefix}{suffix}").read_bytes()
    assert len(outputs) == 12
    for (spelling, family, suffix), data in outputs.items():
        assert data == outputs["plain", family, suffix], (spelling, family, suffix)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\r\n\t\r\n1\t0\r\n\r\n1 x\r\n\r\n")
    code, out, err = run(capsys, ["gen", "ov", "--vectors", str(bad), str(bad),
                                  "--out-prefix", str(tmp_path / "bad")])
    assert (code, out, err) == (2, "", f"error: {bad}: line 5: expected 0/1 entries\n")


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


def test_every_solve_gen_and_error_output_is_pinned(capsys, monkeypatch, tmp_path):
    # the sha256 of (argv, exit code, stdout, stderr, files written) for every
    # solve pair, every gen family and every error path, with tmp_path spelled
    # "<tmp>" and the clock fixed so that "millis" reads 0.0
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 1.0))
    texts = {
        "eq_b": "1\n0\n4\n7\n", "eq_r": "1\n1\n2\n9\n",
        "lt_b": "1\n1/2\n3\n", "lt_r": "1\n0\n-5/3\n2\n4.25\n",
        "pl_b": "2\n0 0\n1/2 3\n", "pl_r": "2\n0 0\n3 0\n-1 2\n",
        "X": "1 0\n1 1\n0 1\n", "Y": "0 1\n1 1\n1 1\n", "X2": "2 0\n1 1\n0 1\n",
        "Y2": "0 1\n1\n1 1\n",
        "G": "4\n1 2\n1 3\n2 3\n3 4\n", "loop": "3\n1 2\n1 1\n",
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    p = {name: str(tmp_path / name) for name in texts}
    solves = [("emd", "--algorithm", alg) for alg in ("hungarian", "monotone", "bruteforce")]
    solves += [("emdut1d", "--algorithm", alg) for alg in ("sweep", "symmetric", "oracle")]
    argvs = []
    for pair in ("eq", "lt", "pl"):
        for metric in ("l1", "linf"):
            for solver, *rest in solves:
                if solver == "emd":
                    rest = [*rest, "--metric", metric]
                elif metric == "linf":
                    continue
                argvs.append(["solve", solver, *rest,
                              "--blue", p[f"{pair}_b"], "--red", p[f"{pair}_r"]])
            argvs.append(["solve", "emdut-hd", "--metric", metric,
                          "--blue", p[f"{pair}_b"], "--red", p[f"{pair}_r"]])
    out = str(tmp_path / "o")
    argvs += [
        ["gen", "ov", "--vectors", p["X"], p["Y"], "--out-prefix", out],
        *(["gen", "clique", "--variant", v, "--k", "3", "--graph", p["G"],
           "--out-prefix", out] for v in ("l1-asym", "l1-sym", "linf-sym")),
        # error paths
        ["solve", "emd", "--metric", "l3", "--blue", p["eq_b"], "--red", p["eq_r"]],
        ["solve", "emd", "--metric", "l3", "--algorithm", "monotone",
         "--blue", p["eq_b"], "--red", p["eq_r"]],
        ["solve", "emdut-hd", "--metric", "l3", "--blue", p["eq_b"], "--red", p["eq_r"]],
        ["solve", "emdut-hd", "--metric", "linf", "--budget", "3",
         "--blue", p["pl_b"], "--red", p["pl_r"]],
        ["solve", "emdut1d", "--blue", out + "_missing", "--red", p["eq_r"]],
        ["solve", "emdut1d", "--blue", p["X"], "--red", p["eq_r"]],
        ["gen", "ov", "--vectors", p["X2"], p["Y"], "--out-prefix", out],
        ["gen", "ov", "--vectors", p["X"], p["Y2"], "--out-prefix", out],
        ["gen", "ov", "--vectors", p["X"], p["G"], "--out-prefix", out],
        ["gen", "ov", "--vectors", p["X"], p["Y"], "--out-prefix", out + "/x/o"],
        ["gen", "clique", "--variant", "l1-asym", "--k", "3", "--graph", p["loop"],
         "--out-prefix", out],
        ["gen", "clique", "--variant", "l1-sym", "--k", "1", "--graph", p["G"],
         "--out-prefix", out],
        ["bench", "sweep", "--sizes", "3,x"],
        ["bench", "sweep", "--sizes", "0"],
    ]
    transcript = []
    for argv in argvs:
        for f in tmp_path.glob("o_*"):
            f.unlink()
        code = main(argv)
        got = capsys.readouterr()
        files = {f.name: f.read_text() for f in sorted(tmp_path.glob("o_*"))}
        record = (argv, code, got.out, got.err, files)
        transcript.append(json.loads(json.dumps(record).replace(str(tmp_path), "<tmp>")))
    codes = [code for _, code, *_ in transcript]
    assert (codes.count(0), codes.count(1), codes.count(2)) == (31, 1, 19)
    digest = hashlib.sha256(json.dumps(transcript).encode()).hexdigest()
    assert digest == "ebc636a6d6db7e31850cef6af5968ef5dea243e203a7914dcde95770de203eb7"


def test_every_emd_and_1d_algorithm_answers_a_small_pair(capsys, tmp_path):
    # B = {0, 5}, R = {1, 7}: EMD 1 + 2 = 3 in place, and 1 after the shift by 1
    blue = tmp_path / "b.txt"
    red = tmp_path / "r.txt"
    blue.write_text("1\n0\n5\n")
    red.write_text("1\n1\n7\n")
    files = ["--blue", str(blue), "--red", str(red)]
    for solver, algorithm, value, translation in (
        ("emd", "hungarian", "3", None), ("emd", "monotone", "3", None),
        ("emd", "bruteforce", "3", None), ("emdut1d", "sweep", "1", ["1"]),
        ("emdut1d", "symmetric", "1", ["1"]), ("emdut1d", "oracle", "1", None),
    ):
        code, out, err = run(capsys, ["solve", solver, "--algorithm", algorithm, *files])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["value"], payload["algorithm"]) == (value, algorithm)
        assert payload.get("translation") == translation
        if algorithm not in ("bruteforce", "oracle"):
            assert sorted(payload["matching"]) == [[0, 0], [1, 1]]


def test_library_refusals_exit_2_with_the_library_message(capsys, tmp_path):
    xf = tmp_path / "X.txt"
    yf = tmp_path / "Y.txt"
    xf.write_text("1 0\n0 1\n")
    yf.write_text("0 1\n")
    graph = tmp_path / "g.txt"
    graph.write_text("3\n1 2\n1 1\n")
    points = tmp_path / "p.txt"
    points.write_text("1\n0\n5\n")
    prefix = str(tmp_path / "o")
    metric_l3 = ["solve", "emd", "--metric", "l3", "--blue", str(points), "--red", str(points)]
    for argv, message in (
        (["gen", "ov", "--vectors", str(xf), str(yf), "--out-prefix", prefix],
         "need equally many vectors on both sides, at least one"),
        (["gen", "clique", "--variant", "l1-asym", "--k", "2", "--graph", str(graph),
          "--out-prefix", prefix], f"{graph}: self-loop at node 1"),
        (metric_l3, "unknown metric 'l3' (expected 'l1' or 'linf')"),
        (metric_l3 + ["--algorithm", "monotone"],
         "unknown metric 'l3' (expected 'l1' or 'linf')"),
    ):
        assert run(capsys, argv) == (2, "", f"error: {message}\n")
    assert not list(tmp_path.glob("o_*"))
