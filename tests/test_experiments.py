import json
from pathlib import Path

import numpy as np
import pytest

from gcshelm import cli
from gcshelm.experiments import (
    ExperimentConfig,
    ExperimentRecord,
    emit,
    parse_records_csv,
    run_case,
)

FAST = ExperimentConfig(case="homogeneous", ks=(20.0,), deltas=(0.5,))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(ks=(10.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(deltas=(0.0,))
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"nope": 1})


def test_run_case_deterministic():
    a = run_case(FAST)
    b = run_case(FAST)
    assert a == b
    for fmt in ("csv", "json"):
        assert emit(a, fmt) == emit(b, fmt)
    assert emit(a, "csv").split("\n")[0] == "k,delta,ndofs,rel_h1k_error,rank"


def test_run_case_error_carries_cell_context():
    # delta below the lattice resolution selects nothing at k = 20
    cfg = ExperimentConfig(case="homogeneous", ks=(20.0,), deltas=(0.05,))
    with pytest.raises(RuntimeError, match="k=20"):
        run_case(cfg)


def test_error_monotone_in_delta():
    cfg = ExperimentConfig(case="homogeneous", ks=(50.0,), deltas=(0.5, 1.0, 2.0))
    records = run_case(cfg)
    errs = [r.rel_h1k_error for r in records]
    assert errs[1] <= errs[0] * 1.1 and errs[2] <= errs[1] * 1.1


def test_emit_csv_roundtrip(tmp_path):
    records = [
        ExperimentRecord(20.0, 2.0, 177, 2.2356e-05, 170),
        ExperimentRecord(50.0, 1.0, 229, 1.7831e-05, 210),
    ]
    path = tmp_path / "out.csv"
    text = emit(records, "csv", path)
    assert path.read_text() == text
    lines = text.strip().split("\n")
    assert lines[0] == "k,delta,ndofs,rel_h1k_error,rank"
    assert len(lines) == len(records) + 1
    # scientific notation with at least 4 significant digits
    assert "2.2356e-05" in lines[1]
    parsed = parse_records_csv(text)
    assert [(r.k, r.delta, r.ndofs, r.rank) for r in parsed] == [
        (r.k, r.delta, r.ndofs, r.rank) for r in records
    ]
    assert abs(parsed[0].rel_h1k_error - records[0].rel_h1k_error) < 1e-12
    assert emit(records, "csv") == emit(records, "csv")


def test_emit_json_and_validation():
    records = [ExperimentRecord(20.0, 2.0, 177, 2.2356e-05, 170)]
    data = json.loads(emit(records, "json"))
    assert data[0]["ndofs"] == 177
    assert data[0]["k"] == 20.0
    with pytest.raises(ValueError):
        emit([], "csv")
    with pytest.raises(ValueError):
        emit(records, "yaml")


def test_scaling_study_validation():
    from gcshelm.experiments import scaling_study

    with pytest.raises(ValueError):
        scaling_study(ExperimentConfig(ks=(20.0,), target_accuracy=1e-4))
    with pytest.raises(ValueError):
        scaling_study(ExperimentConfig(ks=(20.0, 50.0, 100.0, 200.0)))


def test_scaling_study_propagates_solver_errors(monkeypatch):
    # only an empty index set may skip a delta; a failing solve must surface
    from gcshelm import assembly_solver
    from gcshelm.experiments import scaling_study

    def failing_solve(system, cutoff_rel):
        raise RuntimeError("solver failed")

    monkeypatch.setattr(assembly_solver, "solve", failing_solve)
    # delta 0.05 selects nothing at k = 20 and is skipped; delta 1.0 reaches the solve
    cfg = ExperimentConfig(ks=(20.0, 50.0, 100.0, 200.0), deltas=(0.05, 1.0), target_accuracy=1e-3)
    with pytest.raises(RuntimeError, match="solver failed"):
        scaling_study(cfg)


def test_cli_solve_to_csv(tmp_path, capsys):
    out = tmp_path / "cell.csv"
    code = cli.main(
        [
            "solve",
            "--case",
            "homogeneous",
            "--k",
            "20",
            "--delta",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = parse_records_csv(out.read_text())
    assert len(rows) == 1 and rows[0].ndofs == 44


def test_cli_table_stdout(capsys):
    code = cli.main(["table", "--case", "homogeneous", "--k", "20", "--delta", "0.5,1.0"])
    assert code == 0
    captured = capsys.readouterr().out
    rows = parse_records_csv(captured)
    assert [r.delta for r in rows] == [0.5, 1.0]


def test_cli_config_file_with_override(tmp_path):
    cfg = {"case": "homogeneous", "ks": [20.0], "deltas": [0.5]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "res.csv"
    code = cli.main(["table", "--config", str(path), "--delta", "1.0", "--out", str(out)])
    assert code == 0
    rows = parse_records_csv(out.read_text())
    assert [r.delta for r in rows] == [1.0]


def test_cli_error_exit(capsys):
    code = cli.main(["solve", "--case", "homogeneous", "--k", "5", "--delta", "1.0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_cli_solve_requires_single_cell(capsys):
    code = cli.main(["solve", "--case", "homogeneous", "--k", "20,50", "--delta", "1.0"])
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


def test_cli_diagnose_requires_hbar(capsys):
    assert cli.main(["diagnose", "--hbar", ",", "--box", "2"]) == 2
    assert "at least one --hbar" in capsys.readouterr().err


def test_cli_scaling_requires_target(capsys):
    code = cli.main(["scaling", "--case", "homogeneous", "--k", "20,50,100,200"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_scaling_wiring(tmp_path, monkeypatch):
    # the scan itself is exercised by the acceptance suite; here only the
    # flag plumbing and output path
    import gcshelm.experiments as exp

    seen = {}

    def fake_study(config):
        seen["config"] = config
        from gcshelm.experiments import ScalingStudy

        return ScalingStudy((50.0,), (1.0,), (10,), (1e-5,), (), 0.5, -0.5)

    monkeypatch.setattr(cli, "scaling_study", fake_study)
    out = tmp_path / "study.json"
    code = cli.main(
        [
            "scaling",
            "--case",
            "homogeneous",
            "--k",
            "50,100,200,400",
            "--target",
            "4e-5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["ndofs_slope"] == 0.5
    cfg = seen["config"]
    assert cfg.target_accuracy == 4e-5
    assert len(cfg.deltas) > 10  # scan grid injected by default


def test_cli_diagnose_small_box(tmp_path):
    out = tmp_path / "diag.json"
    code = cli.main(["diagnose", "--hbar", "0.05", "--box", "8", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    entry = payload["hbar=0.05"]
    assert entry["beta_est"] >= entry["alpha_est"] > 0
    assert entry["dual_decay_rate"] > 0
    assert entry["quasi_orthogonality"]["2"] > entry["quasi_orthogonality"]["4"]


def test_cli_diagnose_matches_saved_report(tmp_path):
    # Saved from the version that rebuilt the hbar-free frame bounds and dual
    # frame at every hbar and rounded the Gram phases through exp(1j*phase).
    want = json.loads((Path(__file__).parent / "data" / "diagnose_hbar_0.05_0.01_box8.json").read_text())
    out = tmp_path / "diag.json"
    assert cli.main(["diagnose", "--hbar", "0.05,0.01", "--box", "8", "--out", str(out)]) == 0
    text = out.read_text()
    got = json.loads(text)
    assert text == json.dumps(got, indent=2, sort_keys=True) + "\n"
    assert got.keys() == want.keys()
    for key, entry in want.items():
        assert got[key].keys() == entry.keys()
        # hbar-dependent: untouched arithmetic, equal bits
        assert got[key]["quasi_orthogonality"] == entry["quasi_orthogonality"]
        # hbar-free: the exact phases move the conditioning-limited frame
        # estimate by 1.4e-10 here (see test_frame_bounds_match_unwindowed_full_product)
        for name in ("alpha_est", "beta_est", "ratio", "dual_solve_residual", "dual_decay_rate", "dual_decay_r_squared"):
            assert got[key][name] == pytest.approx(entry[name], rel=1e-8, abs=0.0)
