import itertools
import json

from trisurf.cli import main
from trisurf.hypergraph import Hypergraph3, serialize_hypergraph


def complete_file(tmp_path, n, name="h.txt"):
    h = Hypergraph3(n, frozenset(itertools.combinations(range(n), 3)))
    path = tmp_path / name
    path.write_text(serialize_hypergraph(h))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_fixture_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "hemi.txt"
    code, _, _ = run(capsys, ["gen", "hemi_icosahedron_rp2", "--out", str(out_file)])
    assert code == 0
    code, out, _ = run(capsys, ["classify", str(out_file)])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "RP2"
    assert report["chi"] == 1


def test_classify_pinch_point_exit_zero(tmp_path, capsys):
    path = tmp_path / "pinch.txt"
    run(capsys, ["gen", "pinch_point", "--out", str(path)])
    code, out, _ = run(capsys, ["classify", str(path)])
    assert code == 0
    assert json.loads(out)["verdict"] == "NotASurface"


def test_classify_malformed_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n=3\n0 0 1\n")
    code, _, err = run(capsys, ["classify", str(bad)])
    assert code == 2
    assert "line 2" in err


def test_find_rp2_complete_and_verify(tmp_path, capsys):
    path = complete_file(tmp_path, 13)
    code, out, err = run(capsys, ["find-rp2", path, "--seed", "3"])
    assert code == 0
    cert = json.loads(out)
    assert cert["report"]["verdict"] == "RP2"
    assert set(cert["roles"]) == {"u", "u1", "v0", "v1", "v2", "v3"}
    assert set(cert["partition"]) == {"U1", "U2", "U3", "U4"}


def test_find_rp2_not_found_exit_one(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("n=8\n")
    code, out, _ = run(capsys, ["find-rp2", str(path), "--seed", "1"])
    assert code == 1
    assert json.loads(out)["found"] is False


def test_find_rp2_seed_reproducible_bytes(tmp_path, capsys):
    path = complete_file(tmp_path, 13)
    _, out_a, _ = run(capsys, ["find-rp2", path, "--seed", "9"])
    _, out_b, _ = run(capsys, ["find-rp2", path, "--seed", "9"])
    _, out_c, _ = run(capsys, ["find-rp2", path, "--seed", "9", "--threads", "4"])
    assert out_a == out_b == out_c


def test_find_rp2_config_file_with_flag_override(tmp_path, capsys):
    path = complete_file(tmp_path, 13)
    cfg = tmp_path / "search.cfg"
    cfg.write_text("retry_budget=5\nseed=1\n")
    code, out, _ = run(capsys, ["find-rp2", path, "--config", str(cfg), "--retry-budget", "400"])
    payload = json.loads(out)
    if code == 0:
        assert payload["config"]["retry_budget"] == 400
        assert payload["config"]["seed"] == 1
    else:
        assert payload["attempts"] == 400


def test_find_sphere_cli(tmp_path, capsys):
    path = complete_file(tmp_path, 6)
    code, out, _ = run(capsys, ["find-sphere", path])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["facets"]) == 2 * len(payload["cycle"])


def test_find_sphere_not_found(tmp_path, capsys):
    path = tmp_path / "thin.txt"
    path.write_text("n=5\n0 1 2\n")
    code, out, _ = run(capsys, ["find-sphere", str(path)])
    assert code == 1


def test_admissibility_graph_file(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("n=4\n0 1\n0 2\n0 3\n1 2\n1 3\n")
    code, out, _ = run(capsys, [
        "admissibility", str(gpath), "--edge", "0", "1", "--p", "0.5", "--k", "1",
    ])
    assert code == 0
    est = json.loads(out)
    assert est["mode"] == "exact"
    assert abs(est["p_hat"] - 0.75) < 1e-12


def test_admissibility_exact_limit_capped(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("n=4\n0 1\n0 2\n0 3\n1 2\n1 3\n")
    argv = ["admissibility", str(gpath), "--edge", "0", "1", "--p", "0.5", "--exact-limit"]
    code, out, err = run(capsys, argv + ["21"])
    assert code == 2
    assert out == ""
    assert "exact_limit" in err
    code, out, _ = run(capsys, argv + ["20"])
    assert code == 0
    assert json.loads(out)["mode"] == "exact"


def test_admissibility_from_pair_link(tmp_path, capsys):
    path = complete_file(tmp_path, 8)
    code, out, _ = run(capsys, [
        "admissibility", path, "--pair", "0", "1", "--edge", "2", "3", "--p", "1.0", "--k", "3",
    ])
    assert code == 0
    assert json.loads(out)["p_hat"] == 1.0


def test_gen_random_too_dense_exit_two(tmp_path, capsys):
    code, _, err = run(capsys, ["gen", "random", "--n", "10", "--m", "999"])
    assert code == 2
    assert "error" in err


def test_gen_random_deterministic(capsys):
    code, out_a, _ = run(capsys, ["gen", "random", "--n", "9", "--m", "20", "--seed", "4"])
    code_b, out_b, _ = run(capsys, ["gen", "random", "--n", "9", "--m", "20", "--seed", "4"])
    assert code == code_b == 0
    assert out_a == out_b
    assert len(out_a.strip().splitlines()) == 21  # header + 20 edges


def test_experiment_csv_shape(tmp_path, capsys):
    out_csv = tmp_path / "runs.csv"
    code, _, _ = run(capsys, [
        "experiment", "--n-range", "8,9", "--coeff", "0.5", "--trials", "2",
        "--retry-budget", "5", "--seed", "1", "--out", str(out_csv),
    ])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "n,m,trials,successes,mean_time_ms,seed"
    assert len(lines) == 3
    for line in lines[1:]:
        n, m, trials, successes, _, _ = line.split(",")
        assert int(trials) == 2
        assert 0 <= int(successes) <= 2


def test_experiment_zero_trials_header_only(tmp_path, capsys):
    out_csv = tmp_path / "runs.csv"
    code, _, _ = run(capsys, [
        "experiment", "--n-range", "8", "--trials", "0", "--out", str(out_csv),
    ])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines == ["n,m,trials,successes,mean_time_ms,seed"]


def test_experiment_reproducible(tmp_path, capsys):
    argv = [
        "experiment", "--n-range", "9", "--coeff", "0.8", "--trials", "2",
        "--retry-budget", "10", "--seed", "77",
    ]
    code, out_a, _ = run(capsys, argv)
    code_b, out_b, _ = run(capsys, argv)
    assert code == code_b == 0
    # success counts identical per master seed (times may differ)
    rows_a = [line.split(",")[:4] for line in out_a.strip().splitlines()]
    rows_b = [line.split(",")[:4] for line in out_b.strip().splitlines()]
    assert rows_a == rows_b
