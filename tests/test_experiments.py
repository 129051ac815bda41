import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from gcshelm import analysis, assembly_solver, cli, experiments
from gcshelm.experiments import (
    DEFAULT_SCALING_DELTAS,
    EmptyIndexSetError,
    ExperimentConfig,
    ExperimentRecord,
    ScalingStudy,
    _ReferenceCache,
    emit,
    run_case,
    run_cell,
    scaling_study,
    select_index_set,
)
from gcshelm.phase_space import LatticeSpec
from gcshelm.problem_model import ProblemCase

from helpers import dual_frame_oracle, parse_records_csv

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


def test_emit_csv_roundtrip():
    records = [
        ExperimentRecord(20.0, 2.0, 177, 2.2356e-05, 170),
        ExperimentRecord(50.0, 1.0, 229, 1.7831e-05, 210),
    ]
    text = emit(records, "csv")
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


def test_scaling_study_solves_each_distinct_index_set_once(monkeypatch):
    # On this grid k = 50, 100, 200 and 400 each select a set at two or more
    # consecutive deltas before their hits.  The study must return what a
    # plain loop over run_cell returns, assembling once per distinct set.
    cfg = ExperimentConfig(ks=(50.0, 100.0, 200.0, 400.0), deltas=DEFAULT_SCALING_DELTAS[:12], target_accuracy=1e-2)
    cache = _ReferenceCache()
    hits, distinct, cells = [], 0, 0
    for k in cfg.ks:
        case = ProblemCase.homogeneous(k)
        seen = set()
        for delta in cfg.deltas:
            try:
                record, _, index_set = run_cell(case, delta, cfg, cache)
            except EmptyIndexSetError:
                continue
            cells += 1
            seen.add((index_set.m.tobytes(), index_set.n.tobytes()))
            if record.rel_h1k_error <= cfg.target_accuracy:
                hits.append((k, delta, record.ndofs, record.rel_h1k_error))
                break
        distinct += len(seen)
    ks, deltas, ndofs, errors = zip(*hits)
    log_k = np.log(ks)
    want = ScalingStudy(
        ks, deltas, ndofs, errors, tuple(k for k in cfg.ks if k not in ks),
        float(np.polyfit(log_k, np.log(np.array(ndofs, dtype=float)), 1)[0]),
        float(np.polyfit(log_k, np.log(deltas), 1)[0]),
    )

    assembled = []
    assemble = assembly_solver.assemble

    def counted(index_set, case, density):
        assembled.append(len(index_set))
        return assemble(index_set, case, density)

    monkeypatch.setattr(assembly_solver, "assemble", counted)
    assert scaling_study(cfg) == want
    assert len(assembled) == distinct < cells
    assert 0 not in assembled


def _record_misses(monkeypatch):
    """Replace run_cell by a recorder of (k, delta, m, n) that reports a miss."""
    cells = []

    def miss(case, delta, config, cache=None, index_set=None):
        cells.append((case.k, delta, index_set.m.tolist(), index_set.n.tolist()))
        return ExperimentRecord(case.k, delta, len(index_set), 1.0, 0), None, index_set

    monkeypatch.setattr(experiments, "run_cell", miss)
    return cells


@pytest.mark.parametrize("case", ["homogeneous", "heterogeneous"])
def test_scaling_study_masks_the_widest_set_by_entry_delta(case, monkeypatch):
    # Each delta the study solves must be the first grid delta of a distinct
    # nonempty selection, with that selection's pairs in its order.  On the
    # homogeneous case every n = 0 state on |x| <= 1 has |p| = 1 exactly, so
    # delta = 1.0 tells the strict entry test from a non-strict one.
    ks = (20.0, 50.0, 100.0, 200.0, 400.0, 800.0)
    deltas = tuple(sorted(DEFAULT_SCALING_DELTAS + (1.0,)))
    want = []
    for k in ks:
        problem = ProblemCase.from_name(case, k)
        last = None
        for delta in deltas:
            index_set = select_index_set(problem, delta)
            pairs = (index_set.m.tolist(), index_set.n.tolist())
            if len(index_set) and pairs != last:
                want.append((k, delta, *pairs))
                last = pairs
    cells = _record_misses(monkeypatch)
    cfg = ExperimentConfig(case=case, ks=ks, deltas=deltas, target_accuracy=1e-3)
    with pytest.raises(RuntimeError, match="reached for only 0"):
        scaling_study(cfg)
    assert cells == want


def test_scaling_study_selects_once_per_k(monkeypatch):
    selected = []
    select = experiments.select_index_set

    def counted(case, delta):
        selected.append((case.k, delta))
        return select(case, delta)

    monkeypatch.setattr(experiments, "select_index_set", counted)
    cells = _record_misses(monkeypatch)
    ks = (20.0, 50.0, 100.0, 200.0)
    cfg = ExperimentConfig(ks=ks, deltas=DEFAULT_SCALING_DELTAS, target_accuracy=1e-3)
    with pytest.raises(RuntimeError, match="reached for only 0"):
        scaling_study(cfg)
    assert selected == [(k, DEFAULT_SCALING_DELTAS[-1]) for k in ks]
    assert len(cells) > len(ks)
    # the largest delta is selected first, so rows that never close on
    # |x| <= ROW_REACH raise before any cell is solved
    cells.clear()
    cfg = ExperimentConfig(ks=ks, deltas=(0.5, 1.0, 300.0), target_accuracy=1e-3)
    with pytest.raises(ValueError, match="rows never close"):
        scaling_study(cfg)
    assert cells == []


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


@pytest.mark.parametrize("key,value", [("error_window", [-1.0, 1.0]), ("fem_x_end", 3.5)])
def test_cli_rejects_fixed_settings_in_config(key, value, tmp_path, capsys):
    # the error window and the FEM truncation are constants, not settings
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"case": "homogeneous", "ks": [20.0], "deltas": [0.5], key: value}))
    assert cli.main(["table", "--config", str(path)]) == 2
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


def test_cli_rejects_unknown_format_in_config_before_any_cell(tmp_path, capsys, monkeypatch):
    # the format is checked with the config, not by ``emit`` after every cell has run
    calls = []
    monkeypatch.setattr(cli, "run_case", lambda config: calls.append(config))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"case": "homogeneous", "ks": [20.0], "deltas": [0.5], "output_format": "xml"}))
    assert cli.main(["table", "--config", str(path)]) == 2
    assert "unknown format 'xml'" in capsys.readouterr().err
    assert calls == []
    with pytest.raises(ValueError, match="unknown format"):
        emit([ExperimentRecord(20.0, 0.5, 1, 0.1, 1)], "xml")


def test_cli_error_exit(capsys):
    code = cli.main(["solve", "--case", "homogeneous", "--k", "5", "--delta", "1.0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["scaling", "--k", "20,50,100,200", "--target", "nan"], "target_accuracy must be positive and finite"),
        (["scaling", "--k", "20,50,100,200", "--target", "inf"], "target_accuracy must be positive and finite"),
        (["table", "--k", "20", "--delta", "nan"], "deltas must be positive and finite"),
        (["table", "--k", "20", "--delta", "1.0,inf"], "deltas must be positive and finite"),
        (["solve", "--k", "nan", "--delta", "1.0"], "wavenumbers must be finite and at least 20.0"),
        (["solve", "--k", "inf", "--delta", "1.0"], "wavenumbers must be finite and at least 20.0"),
        (["solve", "--k", "20", "--delta", "1.0", "--cutoff", "nan"], "cutoff must lie in (0, 1)"),
    ],
    ids=["target-nan", "target-inf", "delta-nan", "delta-inf", "k-nan", "k-inf", "cutoff-nan"],
)
def test_cli_rejects_nan_and_inf_before_any_cell(argv, message, capsys, monkeypatch):
    # NaN fails no `x <= 0` check, so each range is a chained comparison;
    # the config is refused before a cell runs, with one error line and no
    # warning on the way
    def forbidden(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(experiments, "run_cell", forbidden)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_solve_requires_single_cell(capsys):
    code = cli.main(["solve", "--case", "homogeneous", "--k", "20,50", "--delta", "1.0"])
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


def test_cli_diagnose_requires_hbar(capsys):
    assert cli.main(["diagnose", "--hbar", ","]) == 2
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


def test_cli_diagnose_single_hbar(tmp_path):
    out = tmp_path / "diag.json"
    code = cli.main(["diagnose", "--hbar", "0.05", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    entry = payload["hbar=0.05"]
    assert entry["beta_est"] >= entry["alpha_est"] > 0
    assert entry["dual_decay_rate"] > 0
    assert entry["quasi_orthogonality"]["2"] > entry["quasi_orthogonality"]["4"]


def test_cli_diagnose_matches_saved_report(tmp_path):
    # Saved from the version that rebuilt the hbar-free frame bounds and dual
    # frame at every hbar, rounded the Gram phases through exp(1j*phase),
    # printed the box-8 estimate of the frame bounds and took the dual frame
    # on a box of half width 8 from the former --box flag; the box estimate
    # of the bounds is no longer computed anywhere, so its saved values are
    # not compared.
    want = json.loads((Path(__file__).parent / "data" / "diagnose_hbar_0.05_0.01_box8.json").read_text())
    out = tmp_path / "diag.json"
    assert cli.main(["diagnose", "--hbar", "0.05,0.01", "--out", str(out)]) == 0
    text = out.read_text()
    got = json.loads(text)
    assert text == json.dumps(got, indent=2, sort_keys=True) + "\n"
    assert got.keys() == want.keys()
    exact = analysis.frame_bounds(LatticeSpec(0.05))
    dual = {}
    for half_width in (8, analysis.DUAL_BOX_HALF_WIDTH):
        index_set, coeffs, residual = analysis.dual_frame_coefficients(LatticeSpec(0.05), (0, 0), half_width)
        rate, r_squared, _ = analysis.dual_decay_fit(index_set, coeffs, (0, 0))
        dual[half_width] = {
            "dual_solve_residual": residual,
            "dual_decay_rate": rate,
            "dual_decay_r_squared": r_squared,
        }
    for key, entry in want.items():
        assert got[key].keys() == entry.keys()
        # hbar-dependent: the saved values come from the polynomial-moment
        # pairing this closed form replaced, and stay as its oracle; three
        # of the values differ from it by one ulp
        assert got[key]["quasi_orthogonality"] == pytest.approx(entry["quasi_orthogonality"], rel=1e-14)
        # the CLI prints the exact bounds
        assert got[key]["alpha_est"] == exact.alpha_est
        assert got[key]["beta_est"] == exact.beta_est
        assert got[key]["ratio"] == exact.beta_est / exact.alpha_est
        # the dual frame: the saved box-8 values, and the CLI's fixed box,
        # whose residual is printed to 9 significant digits
        for name, value in dual[analysis.DUAL_BOX_HALF_WIDTH].items():
            assert entry[name] == pytest.approx(dual[8][name], rel=1e-8, abs=0.0)
            assert got[key][name] == (float(f"{value:.9g}") if name == "dual_solve_residual" else value)


@pytest.mark.parametrize("box", [4, 8, 12])
def test_cli_diagnose_prints_the_residual_digits_the_oracle_shares(box, tmp_path, monkeypatch):
    # the printed residual is the same for the production solve and for the
    # complex eigh on the whole box, which differ past the tenth digit at box 12
    solve = analysis.dual_frame_coefficients
    monkeypatch.setattr(analysis, "dual_frame_coefficients", lambda spec, target: solve(spec, target, box))
    out = tmp_path / "diag.json"
    assert cli.main(["diagnose", "--hbar", "0.05", "--out", str(out)]) == 0
    printed = json.loads(out.read_text())["hbar=0.05"]["dual_solve_residual"]
    oracle = dual_frame_oracle((0, 0), box)[3]
    assert printed == float(f"{oracle:.9g}") == pytest.approx(oracle, rel=1e-8, abs=0.0)
