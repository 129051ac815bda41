"""Command-line front end.

Verbs:
  solve     one (k, delta) cell
  table     the full k x delta grid
  scaling   target-accuracy study with log-log slope fits
  diagnose  frame bounds, dual decay, quasi-orthogonality

A flat JSON config file can seed any verb; explicit flags override it.
Exits 0 on success; on failure prints one machine-parsable line
``error: <message>`` to stderr and exits 2.
"""

import argparse
import json
import sys
from dataclasses import asdict

from . import analysis
from .experiments import (
    DEFAULT_SCALING_DELTAS,
    FORMATS,
    ExperimentConfig,
    emit,
    run_case,
    scaling_study,
)
from .gaussian_states import constant_operator
from .phase_space import LatticeSpec


def _float_list(text):
    return tuple(float(v) for v in text.split(",") if v)


def _build_parser():
    parser = argparse.ArgumentParser(prog="gcshelm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", help="flat JSON config file; flags override it")
        p.add_argument("--case", choices=["homogeneous", "heterogeneous"])
        p.add_argument("--k", type=_float_list, help="comma-separated wavenumbers")
        p.add_argument("--delta", type=_float_list, help="comma-separated deltas")
        p.add_argument("--cutoff", type=float, help="relative singular value cutoff")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=FORMATS, help="output format")

    p_solve = sub.add_parser("solve", help="run one (k, delta) cell")
    common(p_solve)
    p_table = sub.add_parser("table", help="run the k x delta grid")
    common(p_table)
    p_scaling = sub.add_parser("scaling", help="target-accuracy scaling study")
    common(p_scaling)
    p_scaling.add_argument("--target", type=float, help="relative H1_k target accuracy")
    p_diag = sub.add_parser("diagnose", help="frame and decay diagnostics")
    p_diag.add_argument("--hbar", type=_float_list, default=(0.05, 0.01))
    p_diag.add_argument("--out", help="output file path")
    return parser


def _config_from(args, default_deltas=None):
    data = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data.update(json.load(fh))
    overrides = {
        "case": args.case,
        "ks": args.k,
        "deltas": args.delta,
        "cutoff": args.cutoff,
        "output_path": args.out,
        "output_format": args.format,
    }
    if getattr(args, "target", None) is not None:
        overrides["target_accuracy"] = args.target
    data.update({k: v for k, v in overrides.items() if v is not None})
    if default_deltas is not None and "deltas" not in data:
        data["deltas"] = default_deltas
    return ExperimentConfig.from_dict(data)


def _write(text, path, what):
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {what} to {path}")


def _run_diagnose(args):
    if not args.hbar:
        raise ValueError("diagnose needs at least one --hbar")
    # The frame bounds and the dual frame are hbar-free in lattice units, so
    # they are computed once for every hbar.
    spec = LatticeSpec(args.hbar[0])
    fb = analysis.frame_bounds(spec)
    pairs, coeffs, residual = analysis.dual_frame_coefficients(spec, (0, 0))
    rate, r2, _ = analysis.dual_decay_fit(pairs, coeffs, (0, 0))
    report = {}
    for hbar in args.hbar:
        spec = LatticeSpec(hbar)
        probe = analysis.quasi_orthogonality_probe(
            spec, constant_operator(-1.0, 0.0, -1.0)
        )
        report[f"hbar={hbar:g}"] = {
            "alpha_est": fb.alpha_est,
            "beta_est": fb.beta_est,
            "ratio": fb.beta_est / fb.alpha_est,
            # 9 significant digits: the solve's rounding moves the tenth at box 12
            "dual_solve_residual": float(f"{residual:.9g}"),
            "dual_decay_rate": rate,
            "dual_decay_r_squared": r2,
            "quasi_orthogonality": {str(d): v for d, v in probe.items()},
        }
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out, "diagnostics")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "diagnose":
            _run_diagnose(args)
            return 0
        default_deltas = DEFAULT_SCALING_DELTAS if args.verb == "scaling" else None
        config = _config_from(args, default_deltas)
        if args.verb == "solve" and (len(config.ks) != 1 or len(config.deltas) != 1):
            raise ValueError("solve expects exactly one k and one delta")
        if args.verb in ("solve", "table"):
            records = run_case(config)
            text = emit(records, config.output_format)
            _write(text, config.output_path, f"{len(records)} records")
        else:
            if config.target_accuracy is None:
                raise ValueError("scaling needs --target")
            text = json.dumps(asdict(scaling_study(config)), indent=2, sort_keys=True) + "\n"
            _write(text, config.output_path, "scaling study")
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
