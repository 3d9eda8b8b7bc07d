"""Batch command line front end.

One self-describing JSON document in, one text or JSON report out.
Exit codes: 0 completed (stable/semistable verdict or successful
computation), 1 unstable verdict from `check` (certificate emitted),
2 input error, 3 any other ChowstabError (internal verification failure).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from .balance import BalanceCycle, balance_flow, check_no_common_zero, \
    check_spanning
from .errors import (ChowstabError, NonRationalCoordinate, SchemaError,
                     ZeroPoint)
from .geometry import Ambient, DiagonalOnePS, WeightedCycle, normalize_cycle
from .stability import classify, chow_weight, exhaustive_ops_search
from .testconfig import (TestConfigSpec, central_fibre_cycle, df_invariant,
                         expansion_comparison)

_INPUT_ERRORS = (SchemaError, NonRationalCoordinate, ZeroPoint, ValueError)


# ---------------------------------------------------------------------------
# input parsing


def _rational(x, field: str) -> Fraction:
    if isinstance(x, bool):
        raise SchemaError("expected a rational, got a boolean", field)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise NonRationalCoordinate(
            f"{field}: float {x!r} is not exact; write it as a string "
            "like \"1/3\" or \"0.5\"")
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise NonRationalCoordinate(f"{field}: {x!r}: {exc}") from exc
    raise SchemaError(f"expected a rational, got {type(x).__name__}", field)


def _coordinate(x, field: str):
    """A balance coordinate: a JSON float stays numeric, else a rational.

    The flow runs in double precision, so either must be a finite float.
    """
    if isinstance(x, float):
        if not math.isfinite(x):
            raise SchemaError(f"{x!r} is not a finite number", field)
        return x
    q = _rational(x, field)
    try:
        float(q)
    except OverflowError:
        raise SchemaError("too large for double precision", field) from None
    return q


def _integer(x, field: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(f"expected an integer, got {x!r}", field)
    return x


def parse_ambient(doc: dict) -> Ambient:
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be an object")
    amb = doc.get("ambient")
    if not isinstance(amb, dict):
        raise SchemaError("missing or malformed ambient object", "ambient")
    if "projective" in amb:
        n = _integer(amb["projective"], "ambient.projective")
        if n < 1:
            raise SchemaError("projective dimension must be >= 1",
                              "ambient.projective")
        return Ambient.projective(n)
    raise SchemaError("ambient must be {projective: n}", "ambient")


def _points(doc: dict, width: int):
    """Yield (field path, coords, mult) for each item of the points array.

    Checks the array, each item's list of `width` coordinates and its
    mult >= 1; reading the coordinates is left to each command.
    """
    raw_points = doc.get("points")
    if not isinstance(raw_points, list):
        raise SchemaError("missing or malformed points array", "points")
    for i, item in enumerate(raw_points):
        where = f"points[{i}]"
        if not isinstance(item, dict) or "coords" not in item:
            raise SchemaError("each point needs a coords array", where)
        coords = item["coords"]
        if not isinstance(coords, list) or len(coords) != width:
            raise SchemaError(f"coords must be a list of {width} entries",
                              f"{where}.coords")
        mult = _integer(item.get("mult", 1), f"{where}.mult")
        if mult < 1:
            raise SchemaError("mult must be >= 1", f"{where}.mult")
        yield where, coords, mult


def parse_input(doc: dict) -> tuple[WeightedCycle, Optional[DiagonalOnePS]]:
    """Validated cycle and optional 1-PS from a JSON document."""
    ambient = parse_ambient(doc)
    width = ambient.n + 1
    pairs = [([_rational(c, f"{where}.coords[{j}]")
               for j, c in enumerate(coords)], mult)
             for where, coords, mult in _points(doc, width)]
    return (normalize_cycle(ambient, pairs),
            parse_weights(doc, width))


def parse_weights(doc: dict, length: int) -> Optional[DiagonalOnePS]:
    raw = doc.get("weights")
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise SchemaError("weights must be an integer array", "weights")
    ws = tuple(_integer(w, f"weights[{i}]") for i, w in enumerate(raw))
    if len(ws) != length:
        raise SchemaError(f"weight vector must have length {length}",
                          "weights")
    return DiagonalOnePS(ws)


def _require_weights(alpha: Optional[DiagonalOnePS]) -> DiagonalOnePS:
    if alpha is None:
        raise SchemaError("this command needs a weights field", "weights")
    return alpha


def _balance_entry(c, field: str) -> tuple:
    """(re, im) of one balance coordinate: a number or an [re, im] pair."""
    if not isinstance(c, list):
        return _coordinate(c, field), 0
    if len(c) != 2:
        raise SchemaError("complex entries are [re, im] pairs", field)
    return tuple(_coordinate(x, f"{field}[{k}]") for k, x in enumerate(c))


def _parse_balance_input(doc: dict) -> tuple[BalanceCycle, Optional[WeightedCycle]]:
    """Balance input: complex [re, im] pairs allowed, Chow masses attached.

    Returns the numerical cycle and, when every coordinate is rational,
    the exact cycle too (enables the exact common-zero check).
    """
    ambient = parse_ambient(doc)
    n = ambient.n
    coords_list, masses, exact_pairs = [], [], []
    for where, coords, mult in _points(doc, n + 1):
        entries = [_balance_entry(c, f"{where}.coords[{j}]")
                   for j, c in enumerate(coords)]
        coords_list.append(entries)
        try:
            masses.append(float(mult ** (n - 1)))
        except OverflowError:
            raise SchemaError("Chow mass too large for double precision",
                              f"{where}.mult") from None
        if all(im == 0 and not isinstance(re, float) for re, im in entries):
            exact_pairs.append(([re for re, _ in entries], mult))
    if not coords_list:
        raise SchemaError("missing or empty points array", "points")
    exact_cycle = None
    if len(exact_pairs) == len(coords_list):
        exact_cycle = normalize_cycle(ambient, exact_pairs)
    return BalanceCycle.from_raw(coords_list, masses), exact_cycle


# ---------------------------------------------------------------------------
# serialization


def _fmt(x) -> str:
    return str(Fraction(x))


def emit_cycle(cycle: WeightedCycle) -> dict:
    """JSON form of a cycle; parse_input inverts this exactly."""
    return {"ambient": {"projective": cycle.ambient.n},
            "points": [{"coords": [_fmt(c) for c in p.coords], "mult": m}
                       for p, m in cycle.points]}


def _certificate_payload(cert) -> dict:
    dest = cert.destabilizer
    n = cert.subspace.ambient_dim
    k = cert.subspace.dim
    return {
        "subspace": {
            "dim": k,
            "spanning_points": [[_fmt(c) for c in p.coords]
                                for p in cert.subspace.spanning_points],
            "reduced_rows": [[_fmt(c) for c in row]
                             for row in cert.subspace.rref],
        },
        "mass_on_subspace": cert.mass_on_v,
        "total_mass": cert.total_mass,
        "ratio": _fmt(cert.ratio),
        "threshold": _fmt(cert.threshold),
        "destabilizer": {
            "weights": list(dest.ops.weights),
            "adapted_basis": [[_fmt(c) for c in row]
                              for row in dest.adapted_basis],
            "chow_weight": _fmt(dest.chow_weight),
        },
        "identity": {
            "chow_weight": _fmt(dest.chow_weight),
            "closed_form": _fmt((n + 1) * cert.mass_on_v
                                - cert.total_mass * (k + 1)),
        },
    }


def _render_text(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    for key, val in obj.items():
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_text(val, indent + 1))
        elif isinstance(val, list) and any(isinstance(v, dict) for v in val):
            lines.append(f"{pad}{key}:")
            for v in val:
                lines.append(f"{pad}  -")
                lines.extend(_render_text(v, indent + 2))
        elif isinstance(val, list):
            lines.append(f"{pad}{key}: {json.dumps(val)}")
        else:
            lines.append(f"{pad}{key}: {val}")
    return lines


def _print_report(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(_render_text(payload)) + "\n")


# ---------------------------------------------------------------------------
# command handlers


def _cmd_check(doc, args) -> tuple[int, dict]:
    cycle, _ = parse_input(doc)
    verdict = classify(cycle)
    payload = {
        "command": "check",
        "status": verdict.status,
        "values": {
            "total_mass": cycle.total_mass(),
            "support_size": len(cycle.support()),
            "boundary_subspaces": len(verdict.witness_ratios),
        },
    }
    if verdict.is_unstable:
        payload["certificate"] = _certificate_payload(verdict.certificate)
        return 1, payload
    return 0, payload


def _cmd_destabilize(doc, args) -> tuple[int, dict]:
    cycle, _ = parse_input(doc)
    res = exhaustive_ops_search(cycle, args.bound)
    payload = {
        "command": "destabilize",
        "bound": args.bound,
        "best_weight": _fmt(res.weight),
        "positive": res.weight > 0,
        "weights": list(res.weights),
        "basis": [[_fmt(c) for c in row] for row in res.basis],
        "basis_support_indices": list(res.basis_points),
    }
    return 0, payload


def _cmd_chow_weight(doc, args) -> tuple[int, dict]:
    cycle, alpha = parse_input(doc)
    alpha = _require_weights(alpha)
    payload = {
        "command": "chow-weight",
        "weights": list(alpha.weights),
        "value": _fmt(chow_weight(cycle, alpha)),
    }
    return 0, payload


# Longest a..b range accepted.  On the collinear triple at gamma 4,
# `df --r-samples 1..100` takes about 1 s on a 2-vCPU VM, and each sample
# costs more than the one before it.
_MAX_RANGE = 100


def _parse_range(text: str, flag: str) -> tuple[int, ...]:
    parts = text.split("..")
    if len(parts) != 2:
        raise SchemaError("expects a..b", flag)
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise SchemaError("expects integers", flag) from exc
    if b < a:
        raise SchemaError(f"empty range {text}", flag)
    if b - a + 1 > _MAX_RANGE:
        raise SchemaError(f"range {text} has {b - a + 1} values, more than "
                          f"the {_MAX_RANGE} allowed", flag)
    return tuple(range(a, b + 1))


def _cmd_df(doc, args) -> tuple[int, dict]:
    cycle, alpha = parse_input(doc)
    alpha = _require_weights(alpha)
    rs = _parse_range(args.r_samples, "--r-samples") if args.r_samples else ()
    spec = TestConfigSpec(cycle, alpha, args.gamma, rs)
    res = df_invariant(spec)
    c = res.central
    payload = {
        "command": "df",
        "gamma": res.gamma,
        "F": _fmt(res.f_exact),
        "negative": res.f_exact < 0,
        "fit": {
            "coeffs": {"c0": _fmt(c.fitted.c0), "c1": _fmt(c.fitted.c1),
                       "b0": _fmt(c.fitted.b0), "b1": _fmt(c.fitted.b1)},
            "normalized": {"b0": _fmt(c.normalized.b0),
                           "b1": _fmt(c.normalized.b1)},
            "lambda_gamma": _fmt(c.lam_gamma),
            "r_samples": list(spec.r_samples),
            "dims": {str(r): c.dims[r] for r in spec.r_samples},
            "traces": {str(r): _fmt(c.traces[r]) for r in spec.r_samples},
            "jet_separation": {str(r): c.jet_separation[r]
                               for r in spec.r_samples},
        },
        "prediction": {
            "ch_weight": _fmt(res.ch_weight),
            "leading": (_fmt(res.f_predicted_leading)
                        if res.f_predicted_leading is not None else None),
        },
    }
    return 0, payload


def _cmd_expansion(doc, args) -> tuple[int, dict]:
    cycle, alpha = parse_input(doc)
    alpha = _require_weights(alpha)
    gammas = _parse_range(args.gamma_range or "4..8", "--gamma-range")
    rs = _parse_range(args.r_samples, "--r-samples") if args.r_samples else ()
    rep = expansion_comparison(cycle, alpha, gammas, rs)
    payload = {
        "command": "expansion",
        "gammas": list(rep.gammas),
        "F": [_fmt(f) for f in rep.f_values],
        "fit": {
            "coeffs": [_fmt(c) for c in rep.fit_coeffs],
            "residuals": [_fmt(r) for r in rep.residuals],
            "leading_coeff": _fmt(rep.leading_coeff),
            "gamma_coeff": _fmt(rep.gamma_coeff),
            "centered_slope": _fmt(rep.centered_slope),
        },
        "prediction": {
            "ch_weight": _fmt(rep.ch_weight),
            "gamma_coeff": _fmt(rep.predicted_gamma_coeff),
            "gamma_power_coeff": _fmt(rep.predicted_gamma_power_coeff),
        },
        "per_gamma": [
            {"gamma": row.gamma, "F": _fmt(row.f_value),
             "c0_dev": _fmt(row.c0_dev), "c1_dev": _fmt(row.c1_dev),
             "b0_dev": _fmt(row.b0_dev), "b1_dev": _fmt(row.b1_dev)}
            for row in rep.rows
        ],
    }
    return 0, payload


def _cmd_limit(doc, args) -> tuple[int, dict]:
    cycle, alpha = parse_input(doc)
    alpha = _require_weights(alpha)
    degrees = _parse_range(args.gamma_range or "1..3", "--gamma-range")
    reports = central_fibre_cycle(cycle, alpha, degrees)
    payload = {
        "command": "limit",
        "degrees": [
            {"degree": rep.degree, "dim": rep.dim,
             "vanishing_orders": [
                 {"point": [_fmt(c) for c in q.coords], "order": o}
                 for q, o in sorted(rep.vanishing_orders.items())]}
            for rep in reports
        ],
    }
    return 0, payload


def _cmd_balance(doc, args) -> tuple[int, dict]:
    numeric, exact = _parse_balance_input(doc)
    report = balance_flow(numeric, tol=args.tol)
    payload = {
        "command": "balance",
        "status": report.status,
        "residual_norm": report.residual_norm,
        "group_element_norm": report.group_element_norm,
        "iterations": report.iterations,
        "stalled": report.stalled,
        "tolerance": args.tol,
        "checks": {
            "spanning": check_spanning(numeric),
            "no_common_zero": (check_no_common_zero(exact)
                               if exact is not None else None),
        },
    }
    return 0, payload


_HANDLERS = {
    "check": _cmd_check,
    "destabilize": _cmd_destabilize,
    "chow-weight": _cmd_chow_weight,
    "df": _cmd_df,
    "expansion": _cmd_expansion,
    "limit": _cmd_limit,
    "balance": _cmd_balance,
}


# ---------------------------------------------------------------------------
# argument parsing and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chowstab",
        description="Chow stability of weighted point cycles: exact "
                    "verdicts, destabilizer certificates, blowup test "
                    "configuration invariants, numerical balancing.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="path to a JSON document, or - for stdin")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", parents=[common],
                   help="stability verdict with certificate when unstable")
    p = sub.add_parser("destabilize", parents=[common],
                       help="exhaustive bounded search for the best 1-PS")
    p.add_argument("--bound", type=int, default=3,
                   help="weight entries range over [-B, B] (default 3)")
    sub.add_parser("chow-weight", parents=[common],
                   help="Chow weight of the cycle under the given weights")
    p = sub.add_parser("df", parents=[common],
                       help="Donaldson-Futaki invariant of the blowup "
                            "test configuration")
    p.add_argument("--gamma", type=int, default=4,
                   help="polarization level (default 4)")
    p.add_argument("--r-samples", default=None,
                   help="exponent sample range a..b")
    p = sub.add_parser("expansion", parents=[common],
                       help="fit F(gamma) over a window and compare with "
                            "the asymptotic prediction")
    p.add_argument("--gamma-range", default=None,
                   help="gamma window a..b (default 4..8)")
    p.add_argument("--r-samples", default=None,
                   help="exponent sample range a..b")
    p = sub.add_parser("limit", parents=[common],
                       help="degreewise flat limit of the moving ideal")
    p.add_argument("--gamma-range", default=None,
                   help="probe degree range a..b (default 1..3)")
    p = sub.add_parser("balance", parents=[common],
                       help="numerical Kempf-Ness balancing")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="residual tolerance (default 1e-9)")
    return parser


def _load_document(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = _load_document(args.input)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as exc:
        sys.stderr.write(f"error: cannot read input: {exc}\n")
        return 2
    handler = _HANDLERS[args.command]
    try:
        code, payload = handler(doc, args)
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ChowstabError as exc:
        sys.stderr.write(f"error: verification failure: {exc}\n")
        return 3
    _print_report(payload, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
