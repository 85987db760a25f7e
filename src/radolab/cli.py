"""Command-line interface.

JSON goes to stdout, human-readable prose to stderr, so reports compose in
pipelines.  Exit codes: 0 = analysis completed (whatever the verdict),
2 = malformed input, 3 = a size cap was exceeded, 4 = the asymptotic
command was given an equation outside its scope.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .coloring import (
    ColoringSpec,
    head_census,
    iter_records,
    profile_census,
    witness_search,
)
from .errors import CapExceededError
from .filters import FILTER_CATALOGUE, decide
from .linalg import columns_condition, parse_matrix_text
from .linear import (
    NotLinearError,
    NotPRError,
    asymptotic_candidates_linear,
    hl_conventional_shape,
    hl_shape,
    verify_hl_choice,
)
from .model import Equation
from .parser import ParseError, parse, pretty
from .results import OrderedPartition, Status

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_SCOPE = 4


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2, default=_json_default))


def _partition_json(partition: OrderedPartition, eq: Equation) -> list[list[str]]:
    return partition.named(eq.poly.variables)


def _filter_json(result) -> dict:
    return {
        "name": result.filter_name,
        "applicable": result.applicable,
        "fired": result.fired,
        "evidence": result.evidence,
        "citation": result.citation,
    }


def _verdict_json(verdict) -> dict:
    return {
        "status": verdict.status.value,
        "certificate": verdict.certificate,
        "reasons": [_filter_json(r) for r in verdict.reasons],
        "notes": verdict.notes,
    }


def _equation_json(eq: Equation, source: str) -> dict:
    return {"source": source, "canonical": pretty(eq)}


def _base_report(eq: Equation, source: str, parameters: dict) -> dict:
    return {
        "tool_version": __version__,
        "equation": _equation_json(eq, source),
        "parameters": parameters,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    eq = parse(args.equation)
    verdict, results = decide(eq)
    report = _base_report(eq, args.equation, {})
    report["verdict"] = _verdict_json(verdict)
    report["filters"] = [_filter_json(r) for r in results]
    report["filter_catalogue"] = FILTER_CATALOGUE
    if (eq.poly.is_linear() and eq.poly.constant_term() == 0
            and verdict.status is Status.PR):
        report["asymptotic_candidates"] = [
            _partition_json(p, eq) for p in asymptotic_candidates_linear(eq)
        ]
    _emit(report)
    summary = verdict.status.value
    if verdict.reasons:
        summary += " (" + ", ".join(r.filter_name for r in verdict.reasons) + ")"
    print(f"{pretty(eq)}: {summary}", file=sys.stderr)
    for note in verdict.notes:
        print(f"  note: {note}", file=sys.stderr)
    return EXIT_OK


def cmd_asymptotic(args) -> int:
    eq = parse(args.equation)
    poly = eq.poly
    try:
        candidates = asymptotic_candidates_linear(eq)
    except (NotLinearError, NotPRError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCOPE
    coeffs = poly.linear_coefficients()
    n = len(coeffs)
    report = _base_report(eq, args.equation, {"N": args.N})
    entries = []
    for partition in candidates:
        entry: dict = {"classes": _partition_json(partition, eq)}
        if len(partition.classes) == 2:
            first = sorted(partition.classes[0])
            rest = sorted(partition.classes[1])
            arranged = [coeffs[i] for i in first + rest]
            cert = verify_hl_choice(arranged, len(first), args.N)
            entry["arranged_variables"] = [poly.variables[i] for i in first + rest]
            entry["matrix_shape"] = list(hl_shape(n))
            entry["matrix_shape_conventional"] = list(hl_conventional_shape(n))
            entry["certificate"] = (
                None if cert is None
                else {"blocks": [[c + 1 for c in block] for block in cert.blocks]}
            )
        else:
            entry["certificate"] = None
            entry["note"] = ("single-class candidate: the separation "
                             "construction needs a proper zero-sum subset")
        entries.append(entry)
    report["asymptotic_candidates"] = entries
    _emit(report)
    certified = sum(1 for e in entries if e.get("certificate"))
    print(f"{pretty(eq)}: {len(entries)} candidate class structure(s), "
          f"{certified} certified at N={args.N}", file=sys.stderr)
    return EXIT_OK


def _record_json(record) -> dict:
    partition, N, valid = record.profile
    out = {
        "assignment": list(record.assignment),
        "color": record.color,
        "profile": {
            "classes": [sorted(c) for c in partition.classes],
            "N": N,
            "valid": valid,
        },
    }
    if record.heads:
        out["heads"] = {str(p): [str(h) for h in hs]
                        for p, hs in record.heads.items()}
    return out


def cmd_search(args) -> int:
    eq = parse(args.equation)
    specs = [ColoringSpec.parse(s) for s in (args.coloring or ["mod:2"])]
    params = {
        "bound": args.bound, "N": args.N, "base": args.base,
        "mode": args.mode, "colorings": [s.spec_string() for s in specs],
    }
    if args.mode == "solutions":
        count = 0
        for record in iter_records(eq, specs[0], args.bound, N=args.N,
                                   bases=[args.base] if args.base else ()):
            print(json.dumps(_record_json(record), sort_keys=True,
                             default=_json_default))
            count += 1
        print(f"{pretty(eq)}: {count} monochromatic solution(s) streamed",
              file=sys.stderr)
        return EXIT_OK

    report = _base_report(eq, args.equation, params)
    if args.mode == "census":
        census = profile_census(eq, specs[0], args.bound, args.N)
        report["census"] = {
            "entries": sorted(
                (
                    {"classes": _partition_json(p, eq), "count": c}
                    for p, c in census.counts.items()
                ),
                key=lambda e: (-e["count"], e["classes"]),
            ),
            "total_solutions": census.total_solutions,
            "valid_profiles": census.valid_total(),
        }
        summary = f"{len(census.counts)} distinct valid profile(s)"
    elif args.mode == "heads":
        if not args.base:
            print("error: --mode heads requires --base", file=sys.stderr)
            return EXIT_PARSE
        census = head_census(eq, specs[0], args.bound, args.base,
                             bin_count=args.bins)
        report["heads"] = {
            "base": census.base,
            "bin_count": census.bin_count,
            "bins": census.bins,
            "total_coordinates": census.total_coordinates,
            "mass_near_one": census.mass_near_one,
            "mass_near_base": census.mass_near_base,
        }
        summary = (f"head histogram over [1, {census.base}) with "
                   f"{census.total_coordinates} coordinates")
    else:  # witness
        witnesses = witness_search(eq, specs, args.bound)
        report["witnesses"] = {
            "found": [s.spec_string() for s in witnesses],
            "family": [s.spec_string() for s in specs],
            "disclaimer": ("a witness coloring is empirical evidence against "
                           "partition regularity, not a proof"),
        }
        summary = f"{len(witnesses)} witness coloring(s) of {len(specs)}"
    _emit(report)
    print(f"{pretty(eq)}: {summary}", file=sys.stderr)
    return EXIT_OK


def cmd_columns_condition(args) -> int:
    try:
        with open(args.matrix_file, "r", encoding="utf-8") as fh:
            matrix = parse_matrix_text(fh.read())
    except OSError as exc:
        print(f"error: cannot read matrix file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    cert = columns_condition(matrix)
    payload = {
        "tool_version": __version__,
        "matrix": {"rows": matrix.rows, "cols": matrix.cols},
        "columns_condition": (
            None if cert is None
            else {"blocks": [[c + 1 for c in block] for block in cert.blocks]}
        ),
    }
    _emit(payload)
    if cert is None:
        print("NONE", file=sys.stderr)
    else:
        blocks = "; ".join(
            "D%d={%s}" % (t + 1, ",".join(str(c + 1) for c in block))
            for t, block in enumerate(cert.blocks)
        )
        print(blocks, file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="radolab",
        description="Partition-regularity analysis of Diophantine equations",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full PR decision pipeline")
    p.add_argument("equation")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("asymptotic",
                       help="enumerate and certify asymptotic class structures "
                            "of a PR linear homogeneous equation")
    p.add_argument("equation")
    p.add_argument("--N", type=int, default=10,
                   help="closeness/separation parameter (default 10)")
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("search", help="coloring experiments")
    p.add_argument("equation")
    p.add_argument("--coloring", action="append",
                   help="coloring spec (mod:5, digit:10, logband:2:3, "
                        "random:seed:colors), default mod:2; repeat for "
                        "witness families (census/heads/solutions use the "
                        "first spec)")
    p.add_argument("--bound", type=int, default=1000)
    p.add_argument("--N", type=int, default=10)
    p.add_argument("--base", type=int, default=None)
    p.add_argument("--bins", type=int, default=16)
    p.add_argument("--mode", choices=["solutions", "census", "heads", "witness"],
                   default="census")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("columns-condition",
                       help="decide the columns condition for a matrix file "
                            "(rows on lines, entries as integers or p/q)")
    p.add_argument("matrix_file")
    p.set_defaults(func=cmd_columns_condition)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
