"""Command-line interface.

JSON goes to stdout, human-readable prose to stderr, so reports compose in
pipelines.  Exit codes: 0 = analysis completed (whatever the verdict),
2 = malformed input, 3 = a size cap was exceeded, 4 = the asymptotic
command was given an equation outside its scope, 141 = stdout was closed
before the output was written (`... | head`), quietly, as a shell reports a
writer ended by SIGPIPE.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .coloring import (
    ColoringSpec,
    _array_walk,
    _classes,
    _profile,
    head_census,
    integer,
    iter_monochromatic,
    profile_census,
    standard_head,
    witness_search,
)
from .errors import CapExceededError
from .filters import FILTER_CATALOGUE, check_degree_cap, decide
from .linalg import (
    _picker,
    _zero_sum_masks,
    columns_condition,
    parse_matrix_text,
)
from .linear import (
    NotLinearError,
    NotPRError,
    _pr_linear_coefficients,
    hl_conventional_shape,
    hl_shape,
    verify_hl_choice,
)
from .model import Equation
from .parser import ParseError, parse, pretty
from .results import Status

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_SCOPE = 4
EXIT_PIPE = 141  # 128 + SIGPIPE


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


_INF = float("inf")


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key_json(key) -> str:
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return _quote(_dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _dumps(obj, nl: str = "\n") -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2,
    default=_json_default), built from C-level joins: the stdlib's indented
    dump runs its pure-Python encoder, one generator frame per element.
    `nl` is the newline plus indentation of obj's own line."""
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        if isinstance(obj[0], str):
            try:
                return f"[{inner}{(',' + inner).join(map(_quote, obj))}{nl}]"
            except TypeError:
                pass  # not all strings: encode item by item
        items = map(_dumps, obj, repeat(inner))
        return f"[{inner}{(',' + inner).join(items)}{nl}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        items = [f"{_key_json(k)}: {_dumps(v, inner)}"
                 for k, v in sorted(obj.items())]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_json(obj)
    return _dumps(_json_default(obj), nl)


def _emit(payload: dict) -> None:
    print(_dumps(payload))


_CHUNK = 1024  # candidates or solution records per write


def _emit_candidates(report: dict, coeffs: list[int], render) -> None:
    """`_emit` of the report with "asymptotic_candidates" listed from the
    zero-sum masks of `coeffs`, one candidate per mask; `render` turns a
    chunk of masks into the list's items, each at the list's depth.

    The key sorts before every other key of the report, so its list is
    written first, one `render` call per _CHUNK masks, then the rest of
    the report.  No list of masks, candidates or the whole report is
    built."""
    rest = _dumps(report)[1:]
    # a PR equation has a zero-sum subset (Rado), so there is a first mask;
    # taking it checks the column cap before any byte is written
    masks = _zero_sum_masks([(c,) for c in coeffs])
    masks = chain((next(masks),), masks)
    write = sys.stdout.write
    write('{\n  "asymptotic_candidates": [\n    ')
    lead = ""
    while chunk := list(islice(masks, _CHUNK)):
        write(lead + ",\n    ".join(render(chunk)))
        lead = ",\n    "
    write(f"\n  ],{rest}\n")


class _Record:
    """A solution record's line, json.dumps(record, sort_keys=True) of
    {assignment, color, heads: {base: [head, ...]} (with `base`), profile:
    {N, classes, valid}}: `LEAD`, then pieces that each end with the
    separator after them, the %-formats `values[j]`, `color` and `heads[j]`
    (of `head(x)`), and `tail(key)` of the profile, ending in a lead."""
    LEAD = '{"assignment": ['

    def __init__(self, n: int, N: int, base):
        self.N = N
        self.values = ["%s, "] * (n - 1) + ['%s], "color": ']
        self.color = "%s, " if base is None else f'%s, "heads": {{"{base}": ['
        self.heads = [] if base is None else ["%s, "] * (n - 1) + ["%s]}, "]
        self.head = functools.cache(lambda x: f'"{standard_head(x, base)}"')
        self.tail = functools.cache(lambda key: (
            f'"profile": {{"N": {N}, "classes": {_classes(key[0])}, '
            f'"valid": {"true" if key[1] else "false"}}}}}\n{self.LEAD}'))


def _write_columns(columns) -> int:
    """Write records given as one text column per `_Record` piece, `_CHUNK`
    per join of the columns interleaved by slice assignment; count them."""
    k, m, lead = len(columns), len(columns[0]), _Record.LEAD
    for lo in range(0, m, _CHUNK):
        flat = [lead] * (k * min(_CHUNK, m - lo) + 1)
        for j, column in enumerate(columns):
            flat[j + 1::k] = column[lo:lo + _CHUNK]
        flat[-1] = flat[-1][:-len(lead)]
        sys.stdout.write("".join(flat))
    return m


def _walked_columns(records, record: _Record):
    """The text columns of walked records (assignment, color), per batch
    of `_CHUNK`, each piece through a per-value cache of its text."""
    values = [functools.cache(f.__mod__) for f in record.values]
    color = functools.cache(record.color.__mod__)
    heads = [functools.cache(lambda x, f=f: f % record.head(x))
             for f in record.heads]
    while True:
        batch = []
        try:
            # a walk that raises leaves the records it gave in the batch
            batch.extend(islice(records, _CHUNK))
        finally:
            # records found before an error still go out, then it is raised
            if batch:
                tuples, colors = zip(*batch)
                at = list(zip(*tuples))
                yield [list(map(text, x)) for text, x in [
                    *zip(values, at), (color, colors), *zip(heads, at),
                    (record.tail, map(_profile, tuples, repeat(record.N)))]]
        if len(batch) < _CHUNK:
            return


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
        coeffs = eq.poly.linear_coefficients()
        # each class is one join of the quoted names at the list's depth
        pick = _picker(map(_quote, eq.poly.variables))
        full = (1 << len(coeffs)) - 1
        sep = ",\n        "
        _emit_candidates(report, coeffs, lambda masks: [
            f"[\n      [\n        {sep.join(pick(mask))}\n      ]\n    ]"
            if mask == full else
            f"[\n      [\n        {sep.join(pick(mask))}\n      ],\n"
            f"      [\n        {sep.join(pick(full ^ mask))}\n      ]\n    ]"
            for mask in masks])
    else:
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
    try:
        coeffs = _pr_linear_coefficients(eq)
    except (NotLinearError, NotPRError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCOPE
    if args.N < 2:
        raise ValueError("N must be at least 2")
    variables = eq.poly.variables
    n = len(coeffs)
    shape = list(hl_shape(n))
    conventional = list(hl_conventional_shape(n))
    report = _base_report(eq, args.equation, {"N": args.N})
    pick = _picker(range(n))  # each class is an ascending index tuple
    full = (1 << n) - 1
    listed = certified = 0

    def render(masks):
        nonlocal listed, certified
        items = []
        for mask in masks:
            # (chosen, rest), and just (chosen,) when the rest is empty
            classes = [c for c in (pick(mask), pick(full ^ mask)) if c]
            entry: dict = {"classes": [[variables[i] for i in c]
                                       for c in classes]}
            if len(classes) == 2:
                order = classes[0] + classes[1]
                cert = verify_hl_choice([coeffs[i] for i in order],
                                        len(classes[0]), args.N)
                entry["arranged_variables"] = [variables[i] for i in order]
                entry["matrix_shape"] = shape
                entry["matrix_shape_conventional"] = conventional
                entry["certificate"] = None if cert is None else {
                    "blocks": [[c + 1 for c in block] for block in cert.blocks]}
                certified += cert is not None
            else:
                entry["certificate"] = None
                entry["note"] = ("single-class candidate: the separation "
                                 "construction needs a proper zero-sum subset")
            items.append(_dumps(entry, "\n    "))
        listed += len(masks)
        return items

    _emit_candidates(report, coeffs, render)
    print(f"{pretty(eq)}: {listed} candidate class structure(s), "
          f"{certified} certified at N={args.N}", file=sys.stderr)
    return EXIT_OK


def cmd_search(args) -> int:
    eq = parse(args.equation)
    specs = [ColoringSpec.parse(s) for s in (args.coloring or ["mod:2"])]
    check_degree_cap(eq.poly)
    params = {
        "bound": args.bound, "N": args.N, "base": args.base,
        "mode": args.mode, "colorings": [s.spec_string() for s in specs],
    }
    if args.mode == "solutions":
        if args.N < 2:
            raise ValueError("N must be at least 2")
        if args.base is not None and args.base < 2:
            raise ValueError("base must be at least 2")
        record = _Record(len(eq.poly.variables), args.N, args.base)
        plan = _array_walk(eq.poly, args.bound)
        if plan is None:
            chunks = _walked_columns(
                iter_monochromatic(eq, specs[0], args.bound), record)
        else:
            from . import arrays

            chunks = arrays._stream_chunks(
                plan, specs[0].color_array(args.bound), args.bound, record)
        count = sum(map(_write_columns, chunks))
        print(f"{pretty(eq)}: {count} monochromatic solution(s) streamed",
              file=sys.stderr)
        return EXIT_OK

    report = _base_report(eq, args.equation, params)
    if args.mode == "census":
        census = profile_census(eq, specs[0], args.bound, args.N)
        report["census"] = {
            "entries": sorted(
                (
                    {"classes": p.named(eq.poly.variables), "count": c}
                    for p, c in census.counts.items()
                ),
                key=lambda e: (-e["count"], e["classes"]),
            ),
            "total_solutions": census.total_solutions,
            "valid_profiles": census.valid_total(),
        }
        summary = f"{len(census.counts)} distinct valid profile(s)"
    elif args.mode == "heads":
        if args.base is None:
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

    p = sub.add_parser("asymptotic",
                       help="enumerate and certify asymptotic class structures "
                            "of a PR linear homogeneous equation")
    p.add_argument("equation")
    p.add_argument("--N", type=integer, default=10,
                   help="closeness/separation parameter (default 10)")

    p = sub.add_parser("search", help="coloring experiments")
    p.add_argument("equation")
    p.add_argument("--coloring", action="append",
                   help="coloring spec (mod:5, digit:10, logband:2:3, "
                        "random:seed:colors), default mod:2; repeat for "
                        "witness families (census/heads/solutions use the "
                        "first spec)")
    p.add_argument("--bound", type=integer, default=1000)
    p.add_argument("--N", type=integer, default=10)
    p.add_argument("--base", type=integer, default=None)
    p.add_argument("--bins", type=integer, default=16)
    p.add_argument("--mode", choices=["solutions", "census", "heads", "witness"],
                   default="census")

    p = sub.add_parser("columns-condition",
                       help="decide the columns condition for a matrix file "
                            "(rows on lines, entries as integers or p/q)")
    p.add_argument("matrix_file")
    return top


# building the parser costs about as much as a small report, so it is
# built once; it names no handler, so rebinding a cmd_* function still takes
# effect
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {"analyze": cmd_analyze, "asymptotic": cmd_asymptotic,
               "search": cmd_search,
               "columns-condition": cmd_columns_condition}[args.command]
    try:
        code = handler(args)
        # a report small enough to sit in stdout's buffer is written here,
        # not at exit, so a closed stdout is caught below for every command
        sys.stdout.flush()
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so the flush at exit
        # cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
