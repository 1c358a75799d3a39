import csv
import hashlib
import json

import numpy as np
import pytest

from curveclust import Curve, CurveSet
from curveclust.cli import (
    EXIT_DECLINED,
    EXIT_GUARD,
    EXIT_INVALID,
    EXIT_OK,
    curvefile_payload,
    main,
    read_coresetfile,
    read_curvefile,
    sample_family,
)


def run(argv):
    return main([str(a) for a in argv])


def write_family(path, cs):
    path.write_text(json.dumps(curvefile_payload(cs), indent=2) + "\n")


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "--seed", 5, "--clusters", 2, "--per-cluster", 4, "--output"]
    assert run(argv + [a]) == EXIT_OK
    assert run(argv + [b]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert not list(tmp_path.glob("*.tmp.*"))


def test_gen_round_trips_exactly(tmp_path):
    out = tmp_path / "fam.json"
    assert run(["gen", "--seed", 11, "--complexity", 4, "--output", out]) == EXIT_OK
    cs = read_curvefile(str(out))
    ref = sample_family(11, 3, 10, 4, 2)
    assert len(cs) == len(ref) == 30
    for got, want in zip(cs, ref):
        assert got.label == want.label
        assert np.array_equal(got.vertices, want.vertices)


def test_dist_reports_both_distances(tmp_path):
    fam = tmp_path / "fam.json"
    cs = CurveSet(
        [
            Curve([[0.0, 0.0], [1.0, 0.0]], label="base"),
            Curve([[0.0, 1.0], [1.0, 1.0]], label="lifted"),
        ]
    )
    write_family(fam, cs)
    out = tmp_path / "d.json"
    assert run(["dist", "--input", fam, "base", "lifted", "--output", out]) == EXIT_OK
    got = json.loads(out.read_text())
    assert got["continuous"]["value"] == pytest.approx(1.0, abs=1e-7)
    assert got["continuous"]["lower"] <= got["continuous"]["value"] <= got["continuous"]["upper"]
    assert got["discrete"] == pytest.approx(1.0)

    by_index = tmp_path / "d2.json"
    assert run(["dist", "--input", fam, "0", "1", "--output", by_index]) == EXIT_OK
    assert json.loads(by_index.read_text())["continuous"]["value"] == got["continuous"]["value"]


def test_dist_unknown_label_fails(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    write_family(fam, CurveSet([Curve([[0.0], [1.0]], label="only")]))
    assert run(["dist", "--input", fam, "only", "missing"]) == EXIT_INVALID
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize("rel_tol", ["nan", "inf", "0"])
def test_dist_rejects_a_tolerance_that_is_not_positive_and_finite(tmp_path, capsys, rel_tol):
    fam = tmp_path / "fam.json"
    write_family(fam, CurveSet([Curve([[0.0], [1.0]]), Curve([[0.0], [2.0], [1.0]])]))
    assert run(["dist", "--input", fam, "0", "1", "--rel-tol", rel_tol]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rel_tol" in captured.err


def test_dist_missing_file_fails(tmp_path):
    assert run(["dist", "--input", tmp_path / "nope.json", "0", "1"]) == EXIT_INVALID


def test_bad_json_fails(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["dist", "--input", bad, "0", "1"]) == EXIT_INVALID
    empty = tmp_path / "empty.json"
    empty.write_text('{"dimension": 2, "curves": []}')
    assert run(["dist", "--input", empty, "0", "1"]) == EXIT_INVALID


def test_cluster_center_reports(tmp_path):
    fam = tmp_path / "fam.json"
    assert run(["gen", "--seed", 3, "--clusters", 2, "--per-cluster", 6,
                "--complexity", 3, "--output", fam]) == EXIT_OK
    out = tmp_path / "clust.json"
    assert run(["cluster", "--input", fam, "--objective", "center",
                "--k", 2, "--l", 3, "--output", out]) == EXIT_OK
    got = json.loads(out.read_text())
    assert got["k"] == 2 and got["l"] == 3
    assert got["cost"] > 0.0
    assert len(got["assignment"]) == 12
    assert all(len(c["vertices"]) <= 3 for c in got["centers"])
    assert set(got["assignment"]) == {0, 1}


def test_cluster_median_reports_swaps(tmp_path):
    fam = tmp_path / "fam.json"
    assert run(["gen", "--seed", 4, "--clusters", 2, "--per-cluster", 5,
                "--output", fam]) == EXIT_OK
    out = tmp_path / "clust.json"
    assert run(["cluster", "--input", fam, "--objective", "median",
                "--k", 2, "--output", out]) == EXIT_OK
    got = json.loads(out.read_text())
    assert "swap_count" in got and got["swap_count"] >= 0
    assert "center_indices" in got and len(got["center_indices"]) == 2


def test_cluster_rejects_oversized_k(tmp_path):
    fam = tmp_path / "fam.json"
    assert run(["gen", "--seed", 6, "--clusters", 1, "--per-cluster", 3,
                "--output", fam]) == EXIT_OK
    assert run(["cluster", "--input", fam, "--objective", "center-discrete",
                "--k", 9]) == EXIT_INVALID


def test_coreset_segments_and_verify_exhaustive(tmp_path):
    fam = tmp_path / "fam.json"
    assert run(["gen", "--seed", 7, "--clusters", 2, "--per-cluster", 6,
                "--output", fam]) == EXIT_OK
    core = tmp_path / "core.json"
    assert run(["coreset", "--input", fam, "--variant", "center-segments",
                "--epsilon", 0.5, "--k", 2, "--output", core]) == EXIT_OK
    loaded = read_coresetfile(str(core))
    assert (loaded.weights == 1.0).all()
    assert loaded.meta["variant"] == "center-segments"
    report = tmp_path / "verify.json"
    assert run(["verify", "--input", fam, "--coreset", core,
                "--candidates", "exhaustive", "--output", report]) == EXIT_OK
    got = json.loads(report.read_text())
    assert got["passed"] is True
    assert got["candidates"] == 66  # all 2-subsets of 12 curves
    assert got["kind"] == "center"


def test_coreset_median_and_verify_random(tmp_path):
    fam = tmp_path / "fam.json"
    assert run(["gen", "--seed", 8, "--clusters", 2, "--per-cluster", 6,
                "--output", fam]) == EXIT_OK
    core = tmp_path / "core.json"
    assert run(["coreset", "--input", fam, "--variant", "median",
                "--epsilon", 0.9, "--k", 2, "--seed", 0,
                "--output", core]) == EXIT_OK
    loaded = read_coresetfile(str(core))
    assert loaded.meta["variant"] == "median"
    assert loaded.meta["sample_size"] == len(loaded)
    report = tmp_path / "verify.json"
    assert run(["verify", "--input", fam, "--coreset", core,
                "--candidates", "random:10", "--seed", 1,
                "--output", report]) == EXIT_OK
    got = json.loads(report.read_text())
    assert got["kind"] == "median"
    assert got["candidates"] == 10


def test_coreset_median_requires_seed(tmp_path):
    fam = tmp_path / "fam.json"
    assert run(["gen", "--seed", 9, "--output", fam]) == EXIT_OK
    assert run(["coreset", "--input", fam, "--variant", "median",
                "--epsilon", 0.5, "--k", 2]) == EXIT_INVALID


def test_coreset_curves_declines_long_edges(tmp_path, capsys):
    rng = np.random.default_rng(10)
    base = np.array([[0.0, 0.0], [150.0, 0.0], [300.0, 0.0]])
    cs = CurveSet(
        [Curve(base + rng.normal(0.0, 0.01, (3, 2)), label=f"t{i}") for i in range(6)]
    )
    fam = tmp_path / "fam.json"
    write_family(fam, cs)
    assert run(["coreset", "--input", fam, "--variant", "center-curves",
                "--epsilon", 0.5, "--k", 1, "--l", 3]) == EXIT_DECLINED
    got = json.loads(capsys.readouterr().out)
    assert got["declined"] is True
    assert got["longest_edge"] > got["approx_cost"]
    assert got["limit"] == pytest.approx(6.0**0.5)


def test_coreset_curves_rejects_segment_family(tmp_path):
    fam = tmp_path / "fam.json"
    assert run(["gen", "--seed", 12, "--output", fam]) == EXIT_OK
    assert run(["coreset", "--input", fam, "--variant", "center-curves",
                "--epsilon", 0.5, "--k", 2, "--l", 3]) == EXIT_INVALID


def test_verify_guard_refuses_huge_enumeration(tmp_path):
    fam = tmp_path / "fam.json"
    assert run(["gen", "--seed", 13, "--clusters", 3, "--per-cluster", 10,
                "--output", fam]) == EXIT_OK
    core = tmp_path / "core.json"
    assert run(["coreset", "--input", fam, "--variant", "center-segments",
                "--epsilon", 0.5, "--k", 3, "--output", core]) == EXIT_OK
    assert run(["verify", "--input", fam, "--coreset", core,
                "--candidates", "exhaustive", "--guard-n", 100]) == EXIT_GUARD


def test_verify_random_requires_seed(tmp_path):
    fam = tmp_path / "fam.json"
    assert run(["gen", "--seed", 14, "--output", fam]) == EXIT_OK
    core = tmp_path / "core.json"
    assert run(["coreset", "--input", fam, "--variant", "center-segments",
                "--epsilon", 0.5, "--k", 2, "--output", core]) == EXIT_OK
    assert run(["verify", "--input", fam, "--coreset", core,
                "--candidates", "random:5"]) == EXIT_INVALID
    assert run(["verify", "--input", fam, "--coreset", core,
                "--candidates", "sideways"]) == EXIT_INVALID


@pytest.mark.parametrize(
    "key, value",
    [("member_indices", 5), ("member_indices", "nested"), ("k", [2])],
)
def test_verify_rejects_malformed_coreset_meta(tmp_path, capsys, key, value):
    fam = tmp_path / "fam.json"
    assert run(["gen", "--seed", 15, "--clusters", 2, "--per-cluster", 4,
                "--output", fam]) == EXIT_OK
    core = tmp_path / "core.json"
    assert run(["coreset", "--input", fam, "--variant", "center-segments",
                "--epsilon", 0.5, "--k", 2, "--output", core]) == EXIT_OK
    raw = json.loads(core.read_text())
    if value == "nested":
        value = [[i] for i in raw["meta"]["member_indices"]]
    raw["meta"][key] = value
    core.write_text(json.dumps(raw))
    assert run(["verify", "--input", fam, "--coreset", core,
                "--candidates", "exhaustive"]) == EXIT_INVALID
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("case", ["file-epsilon", "epsilon", "k"])
def test_verify_rejects_out_of_range_epsilon_and_k(tmp_path, capsys, case):
    # each of these used to pass silently or end in a numpy error
    fam = tmp_path / "fam.json"
    assert run(["gen", "--seed", 16, "--clusters", 2, "--per-cluster", 4,
                "--output", fam]) == EXIT_OK
    core = tmp_path / "core.json"
    assert run(["coreset", "--input", fam, "--variant", "center-segments",
                "--epsilon", 0.5, "--k", 2, "--output", core]) == EXIT_OK
    argv = ["verify", "--input", fam, "--coreset", core, "--candidates", "exhaustive"]
    message = "eps must be in (0, 1)"
    if case == "file-epsilon":
        raw = json.loads(core.read_text())
        raw["epsilon"] = 100
        core.write_text(json.dumps(raw))
    elif case == "epsilon":
        argv += ["--epsilon", 1.5]
    else:
        argv += ["--k", 0]
        message = "needs at least one center"
    capsys.readouterr()
    assert run(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_verify_random_rejects_k_above_the_input_size(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    assert run(["gen", "--seed", 16, "--clusters", 2, "--per-cluster", 3,
                "--output", fam]) == EXIT_OK
    core = tmp_path / "core.json"
    assert run(["coreset", "--input", fam, "--variant", "center-segments",
                "--epsilon", 0.5, "--k", 2, "--output", core]) == EXIT_OK
    capsys.readouterr()
    assert run(["verify", "--input", fam, "--coreset", core, "--k", 99,
                "--candidates", "random:3", "--seed", 1]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--k" in err and "99" in err


def test_bench_emits_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--variant", "center-segments", "--sizes", "20,40",
                "--epsilons", "0.5", "--seed", 21, "--candidates", 10,
                "--output", out]) == EXIT_OK
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][:4] == ["variant", "n", "m", "k"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[0] == "center-segments"
        assert int(row[6]) >= 1
        assert float(row[8]) >= 1.0 - 0.5 - 1e-9
        assert float(row[9]) <= 1.0 + 0.5 + 1e-9


# sha256 of each output on small fixed-seed families; any change to an
# output byte, such as one ulp in a reported cost, shows up here
GOLDEN_DIGESTS = {
    "cluster-center": "56d04f47265e36f468ef73587583a215e5d039940fb660f26bccba0daea230fe",
    "cluster-center-discrete": "deec566fbb23a04f010c67411a6d0e43b20dc751d3f2fbc76e226197dd26d2b7",
    "cluster-median": "05497a5a7ac10b97d3a47f4dfc9335d71bb5fa21c88156a2b5b28424922b8af4",
    "coreset-segments": "1650bb1063b5acacd4d3b0d1e54658af48f90b2f0aff1f00f682267a6c255376",
    "coreset-curves": "4bfcab8e6f54e7238792d0b8e5001272ec540b02680aa7daa9c8f0b4de3c7737",
    "coreset-median": "ee152b1d4c2c2f4419957923ab709d5d0fac4b4e6fb53a8eac3cf18849266604",
    "verify-segments": "714e8a5d9ebfe21255387d6a47225eb9c23aecdbaf4c065caafd610eff9ce5d5",
    "verify-curves": "6c6eb06e23328da9eddd40e8bd7defa80b67e22cefb8d71ebee042475a9118da",
    "verify-median": "9af45271f53b5883610ee3d4e01155f476ca921ea6a5c5b37f0dd30c2acda215",
}


def test_outputs_keep_their_recorded_bytes(tmp_path):
    segs, curves = tmp_path / "segs.json", tmp_path / "curves.json"
    assert run(["gen", "--seed", 31, "--clusters", 2, "--per-cluster", 15,
                "--output", segs]) == EXIT_OK
    assert run(["gen", "--seed", 32, "--clusters", 2, "--per-cluster", 6,
                "--complexity", 5, "--step", 0.2, "--output", curves]) == EXIT_OK
    steps = {
        "cluster-center": ["cluster", "--input", curves, "--objective", "center",
                           "--k", 2, "--l", 3],
        "cluster-center-discrete": ["cluster", "--input", curves,
                                    "--objective", "center-discrete", "--k", 2],
        "cluster-median": ["cluster", "--input", curves, "--objective", "median",
                           "--k", 2],
        "coreset-segments": ["coreset", "--input", segs, "--variant", "center-segments",
                             "--epsilon", 0.5, "--k", 2],
        "coreset-curves": ["coreset", "--input", curves, "--variant", "center-curves",
                           "--epsilon", 0.5, "--k", 2, "--l", 3],
        "coreset-median": ["coreset", "--input", curves, "--variant", "median",
                           "--epsilon", 0.9, "--k", 1, "--rho", 0.9, "--seed", 0],
        "verify-segments": ["verify", "--input", segs,
                            "--coreset", tmp_path / "coreset-segments",
                            "--candidates", "exhaustive"],
        "verify-curves": ["verify", "--input", curves,
                          "--coreset", tmp_path / "coreset-curves",
                          "--candidates", "random:5", "--seed", 1],
        "verify-median": ["verify", "--input", curves,
                          "--coreset", tmp_path / "coreset-median",
                          "--candidates", "random:5", "--seed", 1],
    }
    got = {}
    for name, argv in steps.items():
        out = tmp_path / name
        assert run(argv + ["--output", out]) == EXIT_OK
        got[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == GOLDEN_DIGESTS


def test_unknown_command_exits_2():
    assert run(["frobnicate"]) == 2
    assert run([]) == 2
