"""Command-line front end.

Subcommands build catalog models, compute scattering matrices by the
algebraic, crossing-schedule and numerical routes, compare the routes,
emit adiabatic spectra and parameter sweeps as CSV, verify the
zero-curvature residual of partnered families, and append one record per
successful invocation to a JSON-lines run ledger.

Exit codes: 0 success, 1 validation failure (an invariant or comparison
did not hold, including a computed probability below the clamp floor and
a crossings schedule with more than one event path between two levels),
2 input error (including a ``--T`` or ``--rtol`` the numeric route cannot
meet), 3 internal error (an unexpected exception,
reported as ``internal error: <Class>: <message>``).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import itertools
import json
import math
import os
import sys

import numpy as np

from . import crossings, laxflow, models, oracle, zerocurv
from .laxflow import NegativeProbabilityError
from .models import (
    FAMILIES,
    AffineModel,
    MissingPartnerError,
    SingularPartnerError,
    UnknownFamilyError,
    build_model,
)
from .numerics import IntegrationDivergedError, OdeSettings

LEDGER_ENV = "LZSCATTER_LEDGER"
DEFAULT_LEDGER = "lzscatter_runs.jsonl"

STOCHASTIC_TOL = 1e-8

METHODS = ("algebraic", "crossings", "numeric")


class ValidationFailure(Exception):
    """Computed result violates a required invariant (exit code 1)."""


class UsageError(Exception):
    """Malformed input (exit code 2)."""


def _parse_values(text):
    if text is None:
        return None
    parts = [p for p in str(text).split(",") if p != ""]
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"cannot parse number list {text!r}: {exc}") from None
    if not values:
        raise UsageError(f"empty number list {text!r}")
    return values[0] if len(values) == 1 else values


def _is_range(text):
    return text is not None and ":" in str(text)


def _parse_range(text):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"cannot parse range {text!r}: {exc}") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise UsageError(f"range must be finite, got {text!r}")
    if step <= 0:
        raise UsageError("range step must be positive")
    # exclusive stop with a roundoff guard so 0.2:0.8:0.2 yields 3 values
    count = math.ceil((stop - start) / step - 1e-9)
    if count < 1:
        raise UsageError(f"range {text!r} holds no points")
    return start + step * np.arange(count)


def _build_from_args(args):
    try:
        return build_model(
            args.family,
            delta=_parse_values(args.delta),
            slope=_parse_values(args.slope),
            eps=float(args.eps) if args.eps is not None else None,
            k=args.k,
        )
    except (UnknownFamilyError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def _settings(args):
    rtol = args.rtol if getattr(args, "rtol", None) is not None else 1e-8
    return OdeSettings(rtol=rtol, atol=rtol * 1e-2)


def _matrix_json(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _real_matrix_json(m):
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def _write_lines(lines, out_path=None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))


def _dump(obj, out_path=None):
    _write_lines([json.dumps(obj, sort_keys=True, indent=2)], out_path)


def _digest(matrix):
    canonical = json.dumps(_real_matrix_json(matrix), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _ledger_path(args):
    if getattr(args, "ledger", None):
        return args.ledger
    return os.environ.get(LEDGER_ENV, DEFAULT_LEDGER)


def _append_record(args, descriptor, method, digest, error_estimate, passed):
    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "argv": list(args.invocation_argv),
        "descriptor": descriptor,
        "method": method,
        "digest": {"sha256": digest, "error_estimate": error_estimate},
        "pass": bool(passed),
    }
    path = _ledger_path(args)
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def default_method(model: AffineModel):
    # every catalog model lifts lz2 or bowtie3: a lift of bowtie3 carries its
    # flow partner and takes the crossings route, a lift of lz2 the algebraic one
    return "crossings" if model.has_partner else "algebraic"


def _algebraic_smatrix(model: AffineModel):
    # one rotation exp(-i beta J_x) in the model's own lift of J_x (laxflow)
    beta = math.acos(2.0 * laxflow.survival_weight(model.delta, model.slope) - 1.0)
    jx = np.real_if_close(models.lift(models.SU2[0], model.rep))
    return laxflow.rotation_probabilities(jx, beta)


def _crossings_schedule(model: AffineModel):
    if model.family == "bowtie3":
        return crossings.schedule_bowtie3(model.delta, model.slope, model.eps)
    if model.family == "bowtieN" and model.eps > 0:
        return crossings.schedule_bowtieN(model.delta, model.slope, model.eps)
    if model.family == "su3six" and model.eps > 0:
        return crossings.schedule_su3six(model.delta, model.slope, model.eps)
    return crossings.derive_schedule_generic(model)


def compute_smatrix(model: AffineModel, method, args):
    """Return (matrix, meta) for the requested method; an exact route takes
    only the models whose ``default_method`` it is."""
    if method == "numeric":
        settings = _settings(args)
        horizon = args.T if args.T is not None else oracle.default_horizon(model)
        if not math.isfinite(horizon) and args.T is None:
            raise UsageError(f"delta {model.delta} and slope {model.slope} give no finite default horizon; pass --T")
        try:
            result = oracle.numeric_smatrix(model, t_final=horizon, settings=settings)
        except IntegrationDivergedError as exc:
            # a step below the step control's floor, or a span that overflows the
            # step generators: more than the route can serve, not a bug
            raise UsageError(f"the numeric route cannot meet --T {horizon:g} at --rtol {settings.rtol:g} "
                             f"({exc}); use a shorter --T or a looser --rtol") from None
        meta = {
            "T": result.horizon,
            "error_estimate": result.error_estimate,
            "unitarity_defect": result.unitarity_defect,
            "converged": result.converged,
        }
        return result.s_num, meta
    if method != default_method(model):
        raise UsageError(f"method {method} unsupported for family {model.family!r}")
    if method == "algebraic":
        return _algebraic_smatrix(model), {}
    schedule = _crossings_schedule(model)
    matrix = crossings.compose(schedule, model.k)
    _check_single_paths(crossings.path_counts(schedule, model.k))
    return matrix, {"events": len(schedule)}


def _check_stochastic(matrix):
    defect = laxflow.stochastic_defect(matrix)
    # a NaN defect fails too
    if not defect <= STOCHASTIC_TOL:
        raise ValidationFailure(
            f"scattering matrix violates double stochasticity: defect {defect:.3e}"
        )
    return defect


def _check_single_paths(counts):
    multi = np.argwhere(counts > 1)
    if multi.size:
        entries = ", ".join(f"({i + 1},{j + 1})" for i, j in multi)
        raise ValidationFailure(
            f"crossings route: entries {entries} are reached by more than one "
            "path of crossing events, whose interference the product of "
            "probability blocks drops; use --method numeric"
        )


def cmd_model_show(args):
    model = _build_from_args(args)
    out = {
        "descriptor": model.descriptor(),
        "a": _matrix_json(model.a_of()),
        "b": _matrix_json(model.b),
    }
    if model.has_partner:
        out["e1"] = _matrix_json(model.e1)
        try:
            out["e0"] = _matrix_json(model.partner_constant())
        except SingularPartnerError:
            out["e0"] = None
            out["partner_note"] = "partner singular at eps = 0"
    _dump(out, args.out)
    _append_record(args, model.descriptor(), "show", _digest(model.b.real), None, True)
    return 0


def cmd_smatrix(args):
    model = _build_from_args(args)
    method = args.method or default_method(model)
    matrix, meta = compute_smatrix(model, method, args)
    _check_stochastic(matrix)
    out = {
        "family": model.family,
        "params": model.descriptor(),
        "method": method,
        "matrix": _real_matrix_json(matrix),
    }
    out.update(meta)
    if method == "numeric":
        out["rtol"] = _settings(args).rtol
    _dump(out, args.out)
    _append_record(
        args, model.descriptor(), method, _digest(matrix),
        meta.get("error_estimate"), True,
    )
    return 0


def cmd_compare(args):
    model = _build_from_args(args)
    methods = args.methods
    if len(methods) < 2:
        raise UsageError("compare needs at least two methods")
    matrices = {}
    error_estimate = 0.0
    for method in methods:
        matrix, meta = compute_smatrix(model, method, args)
        matrices[method] = matrix
        error_estimate = max(error_estimate, meta.get("error_estimate", 0.0))
    tolerance = max(1e-2, 3.0 * error_estimate)
    pairs = []
    for a, b in itertools.combinations(methods, 2):
        deviation = float(np.abs(matrices[a] - matrices[b]).max())
        pairs.append({"methods": [a, b], "max_deviation": deviation, "pass": deviation <= tolerance})
    all_pass = all(pair["pass"] for pair in pairs)
    out = {
        "family": model.family,
        "params": model.descriptor(),
        "tolerance": tolerance,
        "pairs": pairs,
        "pass": all_pass,
    }
    _dump(out, args.out)
    _append_record(
        args, model.descriptor(), "+".join(methods),
        _digest(matrices[methods[0]]), error_estimate, all_pass,
    )
    if not all_pass:
        raise ValidationFailure("method comparison failed")
    return 0


def cmd_spectrum(args):
    model = _build_from_args(args)
    if args.steps < 2:
        raise UsageError("spectrum needs steps >= 2")
    for name, value in (("--t-min", args.t_min), ("--t-max", args.t_max)):
        if not math.isfinite(value):
            raise UsageError(f"t window must be finite, got {name}={value!r}")
    if args.t_min >= args.t_max:
        raise UsageError("t window needs t-min < t-max")
    grid = np.linspace(args.t_min, args.t_max, args.steps)
    curves, _flags = oracle.adiabatic_spectrum(model, grid)
    lines = oracle.spectrum_csv_lines(grid, curves)
    _write_lines(lines, args.out)
    _append_record(args, model.descriptor(), "spectrum", _digest(curves), None, True)
    return 0


def cmd_zero_curvature(args):
    model = _build_from_args(args)
    report = zerocurv.verify_pair(model)  # MissingPartnerError: exit 2
    _dump(report.to_json_dict(), args.out)
    _append_record(
        args, model.descriptor(), "zero-curvature",
        _digest(np.abs(report.residual_matrix)), report.max_residual, report.passed,
    )
    if not report.passed:
        raise ValidationFailure(
            f"zero-curvature residual {report.max_residual:.3e} (term "
            f"{report.worst_term!r}) exceeds {zerocurv.PASS_THRESHOLD:.1e}"
        )
    return 0


def cmd_sweep(args):
    ranged = [name for name in ("delta", "slope", "eps") if _is_range(getattr(args, name))]
    if len(ranged) != 1:
        raise UsageError("sweep needs exactly one ranged parameter (start:stop:step)")
    param, = ranged
    values = _parse_range(getattr(args, param))
    entries = None
    if args.entries:
        entries = []
        for part in str(args.entries).split(";"):
            if not part:
                continue
            try:
                i, j = (int(x) for x in part.split(","))
            except ValueError:
                raise UsageError(f"bad entry spec {part!r}; want i,j") from None
            entries.append((i, j))

    header = None
    rows = []
    for value in values:
        # the command line with the ranged parameter set to one point
        model = _build_from_args(argparse.Namespace(**{**vars(args), param: float(value)}))
        # indices are 1-based: 0 would wrap to the last level, k + 1 would raise
        k = model.k
        outside = [f"{i},{j}" for i, j in entries or () if not (0 < i <= k and 0 < j <= k)]
        if outside:
            raise UsageError(f"entries {'; '.join(outside)} outside 1..{k}")
        method = args.method or default_method(model)
        matrix, _meta = compute_smatrix(model, method, args)
        _check_stochastic(matrix)
        if entries is None:
            selected = [(i + 1, j + 1) for i in range(k) for j in range(k)]
        else:
            selected = entries
        if header is None:
            header = param + "," + ",".join(f"S_{i}_{j}" for i, j in selected)
        rows.append(
            ",".join(
                [repr(float(value))]
                + [repr(float(matrix[i - 1, j - 1])) for i, j in selected]
            )
        )
    lines = [header] + rows
    _write_lines(lines, args.out)
    csv_digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    _append_record(args, model.descriptor(), method, csv_digest, None, True)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lzscatter",
        description="Exact and numerical scattering matrices for multistate "
        "linear-sweep Hamiltonian families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("--family", required=True, help=f"one of {', '.join(FAMILIES)}")
        p.add_argument("--k", type=int, default=None, help="dimension (spin family)")
        p.add_argument("--delta", required=True, help="coupling (comma list for bowtieN)")
        p.add_argument("--slope", required=True, help="sweep rate (comma list for bowtieN)")
        p.add_argument("--eps", default=None, help="flat-level splitting")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--ledger", default=None, help="run-ledger path override")

    def add_route_args(p, methods=False):
        # compare takes two or more routes (--methods), smatrix and sweep one
        if methods:
            p.add_argument("--methods", nargs="+", required=True, choices=METHODS,
                           help="routes to cross-validate")
        else:
            p.add_argument("--method", choices=METHODS, default=None,
                           help="route (default: crossings for a family with a flow "
                           "partner, else algebraic)")
        p.add_argument("--T", type=float, default=None, help="numeric horizon")
        p.add_argument("--rtol", type=float, default=None, help="numeric tolerance")

    model_p = sub.add_parser("model", help="inspect catalog models")
    model_sub = model_p.add_subparsers(dest="model_command", required=True)
    show_p = model_sub.add_parser("show", help="print A(eps), B and partner parts")
    add_model_args(show_p)
    show_p.set_defaults(func=cmd_model_show)

    sm_p = sub.add_parser("smatrix", help="compute a scattering matrix")
    add_model_args(sm_p)
    add_route_args(sm_p)
    sm_p.set_defaults(func=cmd_smatrix)

    cp_p = sub.add_parser("compare", help="cross-validate methods")
    add_model_args(cp_p)
    add_route_args(cp_p, methods=True)
    cp_p.set_defaults(func=cmd_compare)

    sp_p = sub.add_parser("spectrum", help="adiabatic spectrum CSV")
    add_model_args(sp_p)
    sp_p.add_argument("--t-min", type=float, default=-10.0, help="window start")
    sp_p.add_argument("--t-max", type=float, default=10.0, help="window end")
    sp_p.add_argument("--steps", type=int, default=400)
    sp_p.set_defaults(func=cmd_spectrum)

    zc_p = sub.add_parser("zero-curvature", help="verify the (H, E) pair")
    add_model_args(zc_p)
    zc_p.set_defaults(func=cmd_zero_curvature)

    sw_p = sub.add_parser("sweep", help="CSV of S entries over one ranged parameter")
    add_model_args(sw_p)
    add_route_args(sw_p)
    sw_p.add_argument("--entries", default=None, help='entry filter "i,j;i,j"')
    sw_p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(raw_argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    args.invocation_argv = raw_argv
    try:
        return args.func(args)
    except (ValidationFailure, NegativeProbabilityError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except (UsageError, UnknownFamilyError, MissingPartnerError,
            SingularPartnerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input: name it, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
