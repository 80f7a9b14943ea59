import csv
import sys
from dataclasses import MISSING, fields

import numpy as np
import pytest

from socialdmf import NumericalError, SmootherConfig, _parallel, load_dataset, load_factors
from socialdmf import cli
from socialdmf.cli import build_parser, main


def out_lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def kv(lines):
    pairs = {}
    for line in lines:
        if "=" in line and " " not in line.split("=")[0]:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def run_synth(data):
    return main([
        "synth", "--m", "15", "--n", "10", "--k", "2", "--bins", "3",
        "--samples-per-bin", "40", "--trust-edges", "12",
        "--noise-std", "0.3", "--seed", "7", "--out", str(data),
    ])


@pytest.fixture()
def synth_dataset(tmp_path):
    data = tmp_path / "data"
    assert run_synth(data) == 0
    return data


def test_synth_writes_a_loadable_dataset(tmp_path, capsys):
    data = tmp_path / "data"
    assert run_synth(data) == 0
    values = kv(out_lines(capsys))
    assert values["m"] == "15" and values["n"] == "10" and values["N"] == "3"
    assert int(values["ratings"]) == 3 * 40
    ratings, trust, user_map, item_map = load_dataset(data)
    assert ratings.total() == 120
    assert trust.edge_count(2) == int(values["edges"])
    assert len(user_map) == 15 and len(item_map) == 10
    assert np.load(data / "truth_V.npy").shape == (10, 2)
    assert np.load(data / "truth_U.npy").shape == (3, 15, 2)


def test_synth_is_reproducible_byte_for_byte(tmp_path):
    argv = [
        "synth", "--m", "8", "--n", "6", "--k", "2", "--bins", "2",
        "--samples-per-bin", "12", "--trust-edges", "4", "--seed", "3",
    ]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_factorize_smooth_evaluate_pipeline(synth_dataset, tmp_path, capsys):
    static_dir = tmp_path / "static"
    rc = main([
        "factorize", "--data", str(synth_dataset), "--k", "2",
        "--gamma", "0.5", "--seed", "0", "--out", str(static_dir),
    ])
    assert rc == 0
    static_out = kv(out_lines(capsys))
    assert "rmse_weighted" in static_out
    factors = load_factors(static_dir)
    assert factors.N == 3 and factors.k == 2

    smooth_dir = tmp_path / "smooth"
    smooth_argv = [
        "smooth", "--data", str(synth_dataset), "--factors", str(static_dir),
        "--k", "2", "--gamma", "0.5", "--lambda", "0.01", "--seed", "0",
        "--out", str(smooth_dir),
    ]
    # A solve cut off by the iteration cap is flagged, not reported as ok.
    # One preconditioned step does not reach the default grad_tol at lambda > 0.
    assert main(smooth_argv + ["--max-iter", "1"]) == 1
    cut_off = kv(out_lines(capsys))
    assert cut_off["status"] == "max_iter"
    assert float(cut_off["rel_grad"]) > 1e-6  # the default grad_tol
    rc = main(smooth_argv + ["--max-iter", "300"])
    assert rc == 0
    smooth_out = kv(out_lines(capsys))
    assert smooth_out["model"] == "dynamic_social"
    assert smooth_out["status"] == "ok"
    assert float(smooth_out["rel_grad"]) <= 1e-6
    assert int(smooth_out["iterations"]) > 0
    assert (smooth_dir / "trace.csv").exists()
    with open(smooth_dir / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "f", "grad_norm", "step"]
    assert len(rows) >= 3

    rc = main([
        "evaluate", "--data", str(synth_dataset), "--factors", str(smooth_dir),
        "--seed", "0",
    ])
    assert rc == 0
    eval_out = kv(out_lines(capsys))
    # Same split (seed and fraction defaults), same factors: identical score.
    assert eval_out["rmse_weighted"] == smooth_out["rmse_weighted"]


def test_smooth_rejects_non_finite_lambda(synth_dataset, tmp_path, capsys):
    rc = main([
        "smooth", "--data", str(synth_dataset), "--k", "2", "--lambda", "nan",
        "--out", str(tmp_path / "s"),
    ])
    assert rc == 2
    assert "lam must be finite" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_smooth_exits_1_on_a_numerical_failure(synth_dataset, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise NumericalError("objective or gradient is non-finite")

    monkeypatch.setattr(cli, "run_dynamic", fail)
    rc = main(["smooth", "--data", str(synth_dataset), "--k", "2", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "numerical failure: objective or gradient is non-finite" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_smooth_exits_1_when_the_preconditioner_loses_definiteness(synth_dataset, tmp_path, capsys):
    rc = main([
        "smooth", "--data", str(synth_dataset), "--k", "2", "--sigma", "1e-10",
        "--out", str(tmp_path / "s"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("numerical failure")


def test_smooth_rejects_rank_mismatched_checkpoint(synth_dataset, tmp_path, capsys):
    static_dir = tmp_path / "static"
    assert main([
        "factorize", "--data", str(synth_dataset), "--k", "2", "--out", str(static_dir),
    ]) == 0
    capsys.readouterr()
    rc = main([
        "smooth", "--data", str(synth_dataset), "--factors", str(static_dir),
        "--k", "3", "--out", str(tmp_path / "s"),
    ])
    assert rc == 2
    assert "rank" in capsys.readouterr().err


def test_factorize_rejects_zero_iters(synth_dataset, tmp_path, capsys):
    rc = main([
        "factorize", "--data", str(synth_dataset), "--k", "2", "--iters", "0",
        "--out", str(tmp_path / "f"),
    ])
    assert rc == 2
    assert "iters must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize(
    "U_shape,V_shape",
    [
        pytest.param((3, 15, 2), (2, 10, 2), id="N-differs"),
        pytest.param((3, 15, 2), (3, 10, 3), id="k-differs"),
        pytest.param((15, 2), (10, 2), id="not-3d"),
    ],
)
def test_evaluate_rejects_mismatched_checkpoint_stacks(synth_dataset, tmp_path, capsys, U_shape, V_shape):
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    np.save(ckpt / "U.npy", np.zeros(U_shape))
    np.save(ckpt / "V.npy", np.zeros(V_shape))
    rc = main(["evaluate", "--data", str(synth_dataset), "--factors", str(ckpt)])
    assert rc == 2
    assert "stacks" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["U.npy", "V.npy"])
def test_evaluate_on_an_npz_checkpoint_stack_exits_2(synth_dataset, tmp_path, capsys, name):
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    np.save(ckpt / "U.npy", np.zeros((3, 15, 2)))
    np.save(ckpt / "V.npy", np.zeros((3, 10, 2)))
    with open(ckpt / name, "wb") as fh:
        np.savez(fh, stack=np.zeros((3, 15, 2)))
    rc = main(["evaluate", "--data", str(synth_dataset), "--factors", str(ckpt)])
    assert rc == 2
    assert str(ckpt / name) in capsys.readouterr().err


def test_sweep_writes_csv_and_reports_best(synth_dataset, tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--data", str(synth_dataset), "--ks", "2", "--lambdas", "0.01,0.1",
        "--gamma", "0.5", "--max-iter", "300", "--seed", "0", "--out", str(csv_path),
    ])
    assert rc == 0  # every solve converges within 300 iterations (the slowest needs 172)
    stdout = capsys.readouterr().out
    assert "best:" in stdout
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 4  # header + static + dynamic + two social runs
    assert {r[0] for r in rows[1:]} == {"static", "dynamic", "dynamic_social"}
    assert rows[0][-2:] == ["status", "rel_grad"]
    for row in rows[1:]:
        rel_grad = float(row[-1])
        assert np.isnan(rel_grad) if row[0] == "static" else rel_grad <= 1e-6


def sweep_cell(model, k_field, lam_field=""):
    """(model, k, lambda) of a sweep output line, lambda as float or None."""
    lam = lam_field.partition("=")[2]
    return model, k_field, float(lam) if lam else None


def test_sweep_exits_1_when_solves_stop_at_max_iter(synth_dataset, tmp_path, capsys):
    rc = main([
        "sweep", "--data", str(synth_dataset), "--ks", "2", "--lambdas", "0.01,0.1",
        "--gamma", "0.5", "--max-iter", "1", "--seed", "0", "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 1
    lines = out_lines(capsys)
    status = {
        sweep_cell(*line.partition(": ")[0].split()): line.rsplit("[", 1)[1].rstrip("]")
        for line in lines if line.endswith("]")
    }
    # At lambda = 0 the preconditioner is the exact Hessian, so one step converges.
    assert sorted(status.values()) == ["max_iter", "max_iter", "ok", "ok"]
    best = [line for line in lines if line.startswith("best:")]
    assert best, "the converged static row is still reported"
    assert status[sweep_cell(*best[0].split()[1:4])] == "ok"


@pytest.mark.parametrize(
    "grid",
    [
        pytest.param(["--lambdas", "nan"], id="lambdas=nan"),
        pytest.param(["--lambdas", "-1"], id="lambdas=-1"),
        pytest.param(["--ks", "2,0"], id="ks=2,0"),
    ],
)
def test_sweep_rejects_out_of_range_grid(synth_dataset, tmp_path, capsys, grid):
    csv_path = tmp_path / "s.csv"
    argv = ["sweep", "--data", str(synth_dataset), "--ks", "2", "--lambdas", "0.01"]
    rc = main(argv + grid + ["--max-iter", "20", "--out", str(csv_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not csv_path.exists()


def test_checkgrad_passes_by_default(capsys):
    rc = main(["checkgrad", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max_relative_error" in out


def test_checkgrad_fails_with_unreachable_tolerance():
    rc = main(["checkgrad", "--tol", "1e-18"])
    assert rc == 1


@pytest.mark.parametrize("flag,value", [("sigma", "1e200"), ("sigma", "1e-200")])
def test_checkgrad_rejects_a_scale_whose_square_or_noise_leaves_float64(flag, value, capsys):
    assert main(["checkgrad", f"--{flag}", value]) == 2
    assert f"error: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value",
    [
        ("tol", "-1"),
        ("tol", "nan"),
        ("tol", "inf"),  # would pass whatever the error
        ("step", "inf"),
        ("trust-edges", "-1"),
        ("p-per-bin", "-1"),
    ],
)
def test_checkgrad_rejects_an_out_of_range_parameter(flag, value, capsys):
    assert main(["checkgrad", f"--{flag}", value]) == 2
    assert f"error: {flag.replace('-', '_')}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Ingest


def write_raw_corpus(tmp_path):
    ratings = tmp_path / "ratings.tsv"
    trust = tmp_path / "trust.tsv"
    lines = []
    # Three active users rating five items across two eras.
    for day, user, item, value in [
        ("2002-01-05", "ann", "dvd1", 5.0),
        ("2002-02-10", "ann", "dvd2", 3.0),
        ("2002-03-15", "bob", "dvd1", 4.0),
        ("2002-04-02", "bob", "dvd3", 2.0),
        ("2002-05-20", "cal", "dvd2", 1.0),
        ("2003-02-01", "ann", "dvd3", 4.5),
        ("2003-03-11", "bob", "dvd2", 3.5),
        ("2003-04-19", "cal", "dvd4", 2.5),
        ("2003-05-23", "cal", "dvd5", 4.0),
        ("2003-06-07", "cal", "dvd1", 3.0),
    ]:
        lines.append(f"{user}\t{item}\t{value}\t{day}")
    ratings.write_text("\n".join(lines) + "\n")
    trust.write_text(
        "ann\tbob\t2002-02-01\n"
        "bob\tcal\t2003-03-01\n"
        "ann\tzoe\t2002-06-01\n"  # zoe never rates; edge must be dropped
    )
    return ratings, trust


def test_ingest_end_to_end(tmp_path, capsys):
    ratings, trust = write_raw_corpus(tmp_path)
    out = tmp_path / "dataset"
    rc = main([
        "ingest", "--ratings", str(ratings), "--trust", str(trust),
        "--cutoffs", "2003-01-01", "--min-ratings", "0", "--out", str(out),
    ])
    assert rc == 0
    values = kv(out_lines(capsys))
    assert values["m"] == "3"
    assert values["n"] == "5"
    assert values["N"] == "2"
    assert values["ratings"] == "10"
    assert values["edges"] == "2"
    loaded, graph, user_map, _ = load_dataset(out)
    assert user_map == {"ann": 0, "bob": 1, "cal": 2}
    assert loaded.p(0) == 5 and loaded.p(1) == 5
    assert graph.edge_count(0) == 1  # only ann-bob exists before 2003


def test_ingest_cutoffs_from_file(tmp_path, capsys):
    ratings, trust = write_raw_corpus(tmp_path)
    cutoff_file = tmp_path / "cutoffs.txt"
    cutoff_file.write_text("2003-01-01\n")
    rc = main([
        "ingest", "--ratings", str(ratings), "--trust", str(trust),
        "--cutoffs", str(cutoff_file), "--min-ratings", "0",
        "--out", str(tmp_path / "d"),
    ])
    assert rc == 0
    assert kv(out_lines(capsys))["N"] == "2"


def test_ingest_min_ratings_filters_users(tmp_path, capsys):
    ratings, trust = write_raw_corpus(tmp_path)
    rc = main([
        "ingest", "--ratings", str(ratings), "--trust", str(trust),
        "--cutoffs", "2003-01-01", "--min-ratings", "2",
        "--out", str(tmp_path / "d"),
    ])
    assert rc == 0
    values = kv(out_lines(capsys))
    # ann has 3 ratings, bob 3, cal 4: everyone is strictly above 2.
    assert values["m"] == "3"
    rc = main([
        "ingest", "--ratings", str(ratings), "--trust", str(trust),
        "--cutoffs", "2003-01-01", "--min-ratings", "3",
        "--out", str(tmp_path / "d2"),
    ])
    assert rc == 0
    assert kv(out_lines(capsys))["m"] == "1"  # only cal survives


def test_ingest_missing_file_exits_2(tmp_path, capsys):
    rc = main([
        "ingest", "--ratings", str(tmp_path / "absent.tsv"),
        "--trust", str(tmp_path / "absent2.tsv"),
        "--cutoffs", "2003-01-01", "--out", str(tmp_path / "d"),
    ])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_ingest_mostly_malformed_exits_2(tmp_path, capsys):
    ratings = tmp_path / "bad.tsv"
    ratings.write_text("a;b;c\nd;e;f\nu\ti\t3.0\t2002-01-01\n")
    trust = tmp_path / "trust.tsv"
    trust.write_text("")
    rc = main([
        "ingest", "--ratings", str(ratings), "--trust", str(trust),
        "--cutoffs", "2003-01-01", "--out", str(tmp_path / "d"),
    ])
    assert rc == 2


def test_ingest_empty_ratings_exits_2(tmp_path, capsys):
    _, trust = write_raw_corpus(tmp_path)
    ratings = tmp_path / "empty.tsv"
    ratings.write_text("")
    rc = main([
        "ingest", "--ratings", str(ratings), "--trust", str(trust),
        "--cutoffs", "2003-01-01", "--out", str(tmp_path / "d"),
    ])
    assert rc == 2
    assert "no ratings" in capsys.readouterr().err


def test_evaluate_missing_dataset_exits_2(tmp_path):
    rc = main([
        "evaluate", "--data", str(tmp_path / "nope"), "--factors", str(tmp_path / "f"),
    ])
    assert rc == 2


@pytest.mark.parametrize("counts", ["40,40", "40,40,40,40"])
def test_evaluate_on_a_wrong_length_count_list_exits_2(synth_dataset, tmp_path, capsys, counts):
    meta = synth_dataset / "meta.txt"
    meta.write_text(meta.read_text().replace("p=40,40,40\n", f"p={counts}\n"))
    rc = main(["evaluate", "--data", str(synth_dataset), "--factors", str(tmp_path / "f")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "meta.txt" in err and "Traceback" not in err


def test_evaluate_names_a_trust_file_with_an_out_of_range_user(synth_dataset, tmp_path, capsys):
    path = synth_dataset / "trust.npy"
    edges = np.load(path)
    np.save(path, np.concatenate([edges, [[0], [15], [1]]], axis=1))  # the dataset has users 0..14
    rc = main(["evaluate", "--data", str(synth_dataset), "--factors", str(tmp_path / "f")])
    assert rc == 2
    assert f"{path}: edge endpoint out of range [0, 15)" in capsys.readouterr().err


def test_evaluate_names_a_ratings_file_with_two_columns(synth_dataset, tmp_path, capsys):
    # Ratings stored one per row, (user, item) pairs, instead of as two index rows.
    path = synth_dataset / "ratings_index.npy"
    np.save(path, np.load(path).T.copy())
    rc = main(["evaluate", "--data", str(synth_dataset), "--factors", str(tmp_path / "f")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{path}: holds int64 of shape (120, 2), expected int64 of shape (2, 120)" in err
    assert "Traceback" not in err


def test_ingest_writes_a_repeated_edge_once(tmp_path, capsys):
    ratings, trust = write_raw_corpus(tmp_path)
    trust.write_text(trust.read_text() + "bob\tann\t2002-01-20\nann\tbob\t2003-05-01\n")
    out = tmp_path / "dataset"
    rc = main([
        "ingest", "--ratings", str(ratings), "--trust", str(trust),
        "--cutoffs", "2003-01-01", "--min-ratings", "0", "--out", str(out),
    ])
    assert rc == 0
    assert kv(out_lines(capsys))["edges"] == "2"
    # Rows a, b, created: edge 0-1 in bin 0 and edge 1-2 in bin 1, each once.
    np.testing.assert_array_equal(np.load(out / "trust.npy"), [[0, 1], [1, 2], [0, 1]])


# ---------------------------------------------------------------------------
# Config file precedence


def test_config_file_supplies_defaults(synth_dataset, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# experiment defaults\nk=3\ngamma=0.5\n")
    out = tmp_path / "ckpt"
    rc = main([
        "factorize", "--data", str(synth_dataset), "--config", str(config),
        "--out", str(out),
    ])
    assert rc == 0
    assert load_factors(out).k == 3


def test_cli_flag_overrides_config_file(synth_dataset, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("k=3\n")
    out = tmp_path / "ckpt"
    rc = main([
        "factorize", "--data", str(synth_dataset), "--config", str(config),
        "--k", "2", "--out", str(out),
    ])
    assert rc == 0
    assert load_factors(out).k == 2


def test_malformed_config_file_exits_2(synth_dataset, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("k: 3\n")
    rc = main([
        "factorize", "--data", str(synth_dataset), "--config", str(config),
        "--out", str(tmp_path / "c"),
    ])
    assert rc == 2
    assert "key=value" in capsys.readouterr().err


def test_threads_do_not_change_results(synth_dataset, tmp_path, monkeypatch):
    a = tmp_path / "a"
    b = tmp_path / "b"
    base = ["factorize", "--data", str(synth_dataset), "--k", "2", "--seed", "0"]
    assert main(base + ["--out", str(a)]) == 0
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 1)
    assert main(base + ["--out", str(b)]) == 0
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_config_file_matches_the_same_flags(synth_dataset, tmp_path):
    config = tmp_path / "run.cfg"
    # align_factors names no option (alignment is unconditional), so it is ignored.
    config.write_text("k=2\nlambda=0.01\nsigma=0.5\nalign_factors=false\n")
    base = ["smooth", "--data", str(synth_dataset), "--gamma", "0.5"]
    from_flags = main(base + ["--k", "2", "--lambda", "0.01", "--sigma", "0.5", "--out", str(tmp_path / "a")])
    from_file = main(base + ["--config", str(config), "--out", str(tmp_path / "b")])
    assert from_flags == from_file == 0
    same_files(tmp_path / "a", tmp_path / "b")  # U.npy, V.npy and trace.csv


def test_config_file_reaches_synth_options(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("eta=0.2\n")
    base = [
        "synth", "--m", "8", "--n", "6", "--k", "2", "--bins", "3",
        "--samples-per-bin", "12", "--trust-edges", "4", "--seed", "3",
    ]
    assert main(base + ["--eta", "0.2", "--out", str(tmp_path / "flag")]) == 0
    assert main(base + ["--config", str(config), "--out", str(tmp_path / "file")]) == 0
    assert main(base + ["--out", str(tmp_path / "default")]) == 0
    same_files(tmp_path / "flag", tmp_path / "file")
    truth = np.load(tmp_path / "file" / "truth_U.npy")
    assert not np.array_equal(truth, np.load(tmp_path / "default" / "truth_U.npy"))


def test_config_value_of_the_wrong_type_exits_2(synth_dataset, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("k=abc\n")
    with pytest.raises(SystemExit) as exc:  # the exit status the console script gives
        sys.exit(main([
            "factorize", "--data", str(synth_dataset), "--config", str(config),
            "--out", str(tmp_path / "c"),
        ]))
    assert exc.value.code == 2
    assert "--k" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_console_entry_point_reads_config_from_sys_argv(tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text("k=3\n")
    out = tmp_path / "data"
    monkeypatch.setattr(sys, "argv", [
        "socialdmf", "synth", "--m", "8", "--n", "6", "--bins", "2",
        "--samples-per-bin", "12", "--trust-edges", "4", "--config", str(config),
        "--out", str(out),
    ])
    assert main() == 0
    assert np.load(out / "truth_V.npy").shape == (6, 3)


@pytest.mark.parametrize(
    "command", ["ingest", "synth", "factorize", "smooth", "evaluate", "sweep", "checkgrad"]
)
def test_every_subcommand_help_renders(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "usage: socialdmf " + command in capsys.readouterr().out


# Required options of each command, with placeholder values that parse.
REQUIRED = {
    "ingest": ["--ratings", "r", "--trust", "t", "--cutoffs", "c", "--out", "o"],
    "synth": ["--m", "1", "--n", "1", "--bins", "1", "--samples-per-bin", "1", "--trust-edges", "1", "--out", "o"],
    "factorize": ["--data", "d", "--out", "o"],
    "smooth": ["--data", "d", "--out", "o"],
    "evaluate": ["--data", "d", "--factors", "f"],
    "sweep": ["--data", "d", "--out", "o"],
    "checkgrad": [],
}

MODEL_OPTIONS = {f.name for f in fields(SmootherConfig)}

# The options each command's handler reads: 69 registrations over the seven commands.
OPTIONS = {
    "ingest": {"ratings", "trust", "cutoffs", "min_ratings", "delimiter", "date_format", "out", "config"},
    "synth": {"m", "n", "k", "bins", "samples_per_bin", "trust_edges", "eta", "noise_std", "out", "seed",
              "config"},
    "factorize": {"data", "split_fraction", "iters", "out", "k", "gamma", "seed", "config"},
    "smooth": {"data", "split_fraction", "factors", "out", "trace_out", *MODEL_OPTIONS, "config"},
    "evaluate": {"data", "split_fraction", "factors", "seed", "config"},
    "sweep": {"data", "split_fraction", "ks", "lambdas", "out", "sigma", "gamma", "max_iter", "grad_tol",
              "seed", "threads", "config"},
    "checkgrad": {"m", "n", "bins", "p_per_bin", "trust_edges", "step", "tol", "k", "lam", "sigma", "seed",
                  "config"},
}


def parsed(command):
    """The namespace of ``command`` given only its required options, without the dispatch entries."""
    args = vars(build_parser().parse_args([command, *REQUIRED[command]]))
    return {dest: value for dest, value in args.items() if dest not in ("func", "command", "commands")}


@pytest.mark.parametrize("command", OPTIONS)
def test_each_command_registers_only_the_options_it_reads(command):
    assert parsed(command).keys() == OPTIONS[command]


@pytest.mark.parametrize(
    "command,flag",
    [
        ("checkgrad", "--gamma 1"),
        ("sweep", "--lambda 0.1"),  # not an abbreviation of --lambdas
        ("sweep", "--k 7"),
        ("factorize", "--max-iter 5"),
        ("ingest", "--seed 1"),
        ("evaluate", "--threads 2"),
        ("factorize", "--threads 2"),
        ("factorize", "--no-align"),
        ("smooth", "--dt"),  # bins are one time unit apart
        ("checkgrad", "--dt"),
    ],
)
def test_an_option_the_command_does_not_read_exits_2(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED[command], *flag.split()])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_config_key_for_an_option_checkgrad_lacks_changes_nothing(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("gamma=9\n")
    assert main(["checkgrad", "--seed", "1"]) == 0
    plain = capsys.readouterr().out
    assert main(["checkgrad", "--seed", "1", "--config", str(config)]) == 0
    assert capsys.readouterr().out == plain


def test_config_key_for_an_option_factorize_lacks_changes_nothing(synth_dataset, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("lambda=5\n")
    base = ["factorize", "--data", str(synth_dataset), "--k", "2", "--out"]
    assert main(base + [str(tmp_path / "a")]) == 0
    plain = capsys.readouterr().out
    assert main(base + [str(tmp_path / "b"), "--config", str(config)]) == 0
    assert capsys.readouterr().out == plain.replace(str(tmp_path / "a"), str(tmp_path / "b"))
    same_files(tmp_path / "a", tmp_path / "b")


@pytest.mark.parametrize("argv", [["sweep", "--ks", "2", "--lambdas", "0.01", "--threads", n] for n in ("0", "-3")])
def test_fewer_than_one_thread_exits_2(argv, synth_dataset, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(argv + ["--data", str(synth_dataset), "--out", str(out)])
    assert rc == 2
    assert "n_jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_defaults_come_from_smoother_config(capsys):
    with pytest.raises(SystemExit):
        main(["factorize", "--help"])
    assert "latent rank (default 5)" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["checkgrad", "--help"])
    assert "latent rank (default 3)" in capsys.readouterr().out
    # smooth registers every SmootherConfig field; k has no SmootherConfig default.
    defaults = {f.name: f.default for f in fields(SmootherConfig) if f.default is not MISSING}
    assert {name: parsed("smooth")[name] for name in defaults} == defaults
    # Every model option of every command defaults to SmootherConfig's value,
    # but for the rank and checkgrad's small social weight.
    for command in OPTIONS:
        expected = {**defaults, "k": 3, "lam": 0.01} if command == "checkgrad" else {**defaults, "k": 5}
        model = {name: value for name, value in parsed(command).items() if name in MODEL_OPTIONS}
        assert model == {name: expected[name] for name in model}, command
