"""Seeded operation batches for the radolab benchmark and the checks that
decide whether each operation's output is right.

A run repeats one *batch*: a fixed number of operations of each kind, drawn
from the run's seed.  Fixing the mix keeps the share of cheap and expensive
operations the same on every seed, so medians and tails compare across
seeds and commits.

Kinds whose output has no cheap independent check draw from a pool of
inputs generated once with POOL_SEED; ``record.py`` stores each input with
the digest of its output at the recorded commit, and its cost, in
``reference.json``.  The seed only chooses, orders and (for fresh kinds)
generates the inputs.

Program functions are looked up as module attributes at call time, so the
tracer's rebinding of those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

from radolab import cli, coloring, linalg, linear, parser

POOL_SEED = 20251017
REFERENCE_PATH = Path(__file__).with_name("reference.json")

NONZERO9 = [c for c in range(-9, 10) if c]
NONZERO5 = [c for c in range(-5, 6) if c]


def _digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(
        obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# input generators (pure functions of the rng they are given)


def _linear_text(coeffs, constant=0) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        v = f"x{i + 1}"
        mag = "" if abs(c) == 1 else str(abs(c))
        sign = "-" if c < 0 else "+"
        parts.append((sign, mag + v))
    head_sign, head = parts[0]
    text = ("-" if head_sign == "-" else "") + head
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return f"{text} = {constant}"


def gen_hl(rng: random.Random, shape: tuple[int, int] | None = None) -> tuple:
    """An instance of the two-class certification sweep: a zero-sum prefix
    of length k in {2,3,4}, a suffix up to n <= 5, N in 2..10.  ``shape``
    fixes (k, n)."""
    k = shape[0] if shape else rng.choice((2, 3, 4))
    while True:
        head = [rng.choice(NONZERO9) for _ in range(k - 1)]
        last = -sum(head)
        if last in NONZERO9:
            break
    length = shape[1] - k if shape else rng.randint(1, 5 - k)
    suffix = [rng.choice(NONZERO9) for _ in range(length)]
    return sorted(head + [last]) + sorted(suffix), k, rng.randint(2, 10)


# (k, n) -> weight in the sweep: k uniform on {2,3,4}, then n uniform on
# k+1..5.  The cost of an instance is set almost entirely by (k, n).
HL_SHAPES = {(2, 3): 2, (2, 4): 2, (2, 5): 2, (3, 4): 3, (3, 5): 3, (4, 5): 6}
ROW_LENGTHS = range(1, 11)


def gen_row(rng: random.Random, length: int) -> list[int]:
    return [rng.choice(NONZERO5) for _ in range(length)]


def gen_multirow(rng: random.Random) -> list[list[int]]:
    rows = rng.choice((2, 3))
    cols = rng.randint(10, 14) if rows == 2 else rng.randint(9, 12)
    return [[rng.choice(NONZERO5) for _ in range(cols)] for _ in range(rows)]


def gen_shape(rng: random.Random) -> str:
    """Nonlinear equations in the shapes of the verdict regression corpus."""
    a, b, c = rng.randint(2, 6), rng.randint(2, 7), rng.randint(1, 9)
    d, e = rng.randint(2, 7), rng.randint(1, 9)
    shapes = [
        f"x^{a} - y^{a} = z^{b}",
        f"{c}x^{a} - {c}y^{a} = z1^{b} + z2^{d} - {e}z3^{a + 1}",
        f"x^{a} - y^{a} = z1*z2",
        f"{c}x + {e}y = w^{a}*z^{b}",
        f"x^{a}*y^{b} = z^{d}",
        f"{c}x*y = z^{a}",
        f"x*y = {c}z",
        f"x^2 + y^2 = z^{a}",
        f"x^{a + 1} - y^{a + 1} = z^{a}",
        f"x^{a} - y^{b} = {c}z",
    ]
    return rng.choice(shapes)


def gen_random_poly(rng: random.Random) -> str:
    """Random polynomial equations in the style of the parser round-trip
    generator: up to six variables and six terms, total degree <= 7."""
    while True:
        names = rng.sample(["a", "b", "w", "x", "y", "z", "x1", "x2", "z1", "z2"],
                           rng.randint(1, 6))
        terms: dict[tuple, int] = {}
        for _ in range(rng.randint(1, 6)):
            budget, key = 7, []
            for v in names:
                if rng.random() < 0.6 and budget:
                    e = rng.randint(1, min(4, budget))
                    budget -= e
                    key.append((v, e))
            terms[tuple(key)] = terms.get(tuple(key), 0) + rng.choice(
                [c for c in range(-99, 100) if c])
        terms = {k: c for k, c in terms.items() if c}
        if any(terms):  # at least one term with a variable
            break
    rendered = []
    for key, c in terms.items():
        factors = [v if e == 1 else f"{v}^{e}" for v, e in key]
        body = "*".join(factors)
        mag = abs(c)
        term = str(mag) if not body else (body if mag == 1 else f"{mag}*{body}")
        rendered.append(("-" if c < 0 else "+", term))
    text = ("-" if rendered[0][0] == "-" else "") + rendered[0][1]
    for sign, term in rendered[1:]:
        text += f" {sign} {term}"
    return f"{text} = 0"


def gen_small_linear(rng: random.Random) -> str:
    coeffs = [rng.choice(NONZERO9) for _ in range(rng.randint(2, 6))]
    constant = 0 if rng.random() < 0.6 else rng.randint(-99, 99)
    return _linear_text(coeffs, constant)


def gen_asymptotic(rng: random.Random) -> tuple[str, int]:
    """A homogeneous linear equation with a zero-sum subset, shuffled."""
    coeffs, _, N = gen_hl(rng)
    rng.shuffle(coeffs)
    return _linear_text(coeffs), N


def gen_constant(rng: random.Random) -> str:
    """Inhomogeneous constants spread over 12..40 bits; the constant-solution
    search trial-divides up to the square root of the constant."""
    bits = rng.randint(12, 40)
    constant = rng.getrandbits(bits) | (1 << (bits - 1))
    a = rng.randint(2, 9)
    b = rng.choice([v for v in range(1, 10) if v != a])
    return f"{a}x = {b}y + {constant}"


# pool size per width; n = 14 is the population the analyze tail falls in
WIDE_POOLS = {14: 12, 15: 12, 16: 24, 17: 2}


def gen_wide(rng: random.Random, n: int) -> str:
    return _linear_text([rng.choice(NONZERO9) for _ in range(n)])


COLORINGS = ["mod:2", "mod:3", "mod:4", "mod:5", "mod:7", "logband:2:3",
             "logband:3:2", "digit:10", "random:7:3", "random:11:4"]


# Bounds are fixed per kind so that an operation's cost depends little on
# the draw; the seed varies colorings, N and bases.


def gen_census3(rng: random.Random) -> dict:
    return {"equation": "x + y = z", "colorings": rng.sample(COLORINGS, 5),
            "bound": 2000, "N": rng.randint(2, 10)}


def gen_census_general(rng: random.Random) -> dict:
    return {"equation": "x + y + z = w",
            "colorings": [rng.choice(["mod:2", "mod:3", "mod:4", "mod:5", "mod:7"])],
            "bound": 36, "N": rng.randint(2, 10)}


def gen_heads(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        return {"equation": "x*y = z", "coloring": "logband:2:3",
                "bound": 2000, "base": rng.randint(2, 5)}
    return {"equation": "x^2 - y^2 = z", "coloring": rng.choice(COLORINGS),
            "bound": 500, "base": rng.randint(2, 5)}


def gen_witness(rng: random.Random) -> dict:
    return {"equation": rng.choice(["x + y = z", "x = y + 1", "x + y = 3z",
                                    "x = 2y", "x + 2y = 4z"]),
            "colorings": rng.sample(COLORINGS, 4),
            "bound": rng.randint(300, 600)}


def gen_stream(rng: random.Random) -> dict:
    return {"equation": "x + y = z",
            "coloring": rng.choice(["mod:3", "mod:4", "mod:5"]),
            "bound": 200, "N": rng.randint(2, 10), "base": rng.randint(2, 5)}


# ---------------------------------------------------------------------------
# running one operation (the timed part) and digesting its output


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def report_digest(argv: list[str], code: int, text: str) -> str:
    """Digest of a CLI result.  ``parameters.threads`` is dropped first: its
    default is the machine's core count, so it is not part of the answer."""
    if text and "solutions" not in argv:
        report = json.loads(text)
        report.get("parameters", {}).pop("threads", None)
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return _digest([code, text])


def analyze_argv(kind: str, item) -> list[str]:
    if kind == "asymptotic":
        text, N = item
        return ["asymptotic", text, "--N", str(N)]
    return ["analyze", item]


def stream_argv(p: dict) -> list[str]:
    return ["search", p["equation"], "--coloring", p["coloring"],
            "--bound", str(p["bound"]), "--N", str(p["N"]),
            "--base", str(p["base"]), "--mode", "solutions"]


def census_output(kind: str, p: dict):
    """Run one census-workload operation; returns a JSON-able result."""
    if kind == "stream":
        argv = stream_argv(p)
        code, text = run_cli(argv)
        return {"code": code, "text": text}
    eq = parser.parse(p["equation"])
    if kind in ("census3", "census_general"):
        specs = [coloring.ColoringSpec.parse(s) for s in p["colorings"]]
        return [
            [sorted([[sorted(c) for c in part.classes], n]
                    for part, n in census.counts.items()),
             census.total_solutions]
            for census in coloring.profile_census_many(eq, specs, p["bound"],
                                                       p["N"])
        ]
    if kind == "heads":
        spec = coloring.ColoringSpec.parse(p["coloring"])
        h = coloring.head_census(eq, spec, p["bound"], p["base"])
        return [h.bins, h.total_coordinates, h.mass_near_one, h.mass_near_base]
    if kind == "witness":
        specs = [coloring.ColoringSpec.parse(s) for s in p["colorings"]]
        return [s.spec_string() for s in
                coloring.witness_search(eq, specs, p["bound"])]
    raise ValueError(f"unknown census kind {kind!r}")


def census_digest(kind: str, p: dict, output) -> str:
    if kind == "stream":
        return report_digest(stream_argv(p), output["code"], output["text"])
    return _digest(output)


def has_zero_sum_subset(values: list[int]) -> bool:
    """Independent oracle for one-row matrices: the columns condition of a
    single row holds iff some nonempty subset of its entries sums to zero."""
    return any(sum(c) == 0 for r in range(1, len(values) + 1)
               for c in itertools.combinations(values, r))


def certify_hl(coeffs, k, N) -> bool:
    cert = linear.verify_hl_choice(coeffs, k, N)
    matrix = linear.hl_matrix(coeffs, k, N,
                              linear.default_hl_weights(k, len(coeffs), N))
    return cert is not None and linalg.verify_certificate(matrix, cert)


def certify_matrix(rows) -> tuple[bool, bool]:
    """(certificate found, certificate re-verified or absent)."""
    matrix = linalg.QMatrix.from_rows(rows)
    cert = linalg.columns_condition(matrix)
    if cert is None:
        return False, True
    return True, linalg.verify_certificate(matrix, cert)


# ---------------------------------------------------------------------------
# pools and the batch

# "workload/kind" -> (generator, pool size); reference.json records these.
POOLS = {
    "analyze/shape": (gen_shape, 300),
    "analyze/random": (gen_random_poly, 500),
    "analyze/linear": (gen_small_linear, 300),
    "analyze/asymptotic": (gen_asymptotic, 200),
    "analyze/constant": (gen_constant, 75),
    **{f"analyze/wide{n}": (lambda rng, n=n: gen_wide(rng, n), size)
       for n, size in WIDE_POOLS.items()},
    "census/census3": (gen_census3, 30),
    "census/census_general": (gen_census_general, 60),
    "census/heads": (gen_heads, 30),
    "census/witness": (gen_witness, 60),
    "census/stream": (gen_stream, 30),
    "certify/multirow": (gen_multirow, 60),
}


def build_pools() -> dict[str, list]:
    """The reference inputs, regenerated exactly from POOL_SEED."""
    rng = random.Random(POOL_SEED)
    return {key: [gen(rng) for _ in range(size)]
            for key, (gen, size) in POOLS.items()}


def outcome(workload: str, kind: str, item, output):
    """The part of a pool operation's output that reference.json records."""
    if workload == "certify":
        return output[0]  # whether a certificate was found
    if workload == "analyze":
        code, text = output
        return report_digest(analyze_argv(kind, item), code, text)
    return census_digest(kind, item, output)


ALL = None  # take the whole pool

# kind -> number of operations in the batch; for "hl" and "row", generated
# afresh, the number per unit of HL_SHAPES weight and per row length (486
# and 160 in all).  Pool kinds are drawn one from
# each of `count` strata of the pool ranked by recorded cost, so a seed's
# draw barely moves the batch's cost or the ranks that p50 and the tail
# read.  The costliest kinds are few; the tail (the 11th-largest latency)
# falls inside one population of similar operations with fewer than ten
# costlier ones: the wide n=14 equations on analyze, the census/stream/head
# trio on census, the multi-row searches on certify.
BATCH = {
    "certify": {"hl": 27, "row": 16, "multirow": ALL},
    "analyze": {"shape": 24, "random": 40, "linear": 24, "asymptotic": 16,
                "constant": 12, "wide14": ALL, "wide15": 2, "wide16": 2,
                "wide17": 1},
    "census": {"witness": 12, "census_general": 12, "census3": 6,
               "stream": 6, "heads": 6},
}


def _draw(entries: list, count, rng: random.Random) -> list:
    """`count` entries, one from each stratum of the cost-ranked pool."""
    if count is ALL:
        return list(entries)
    ranked = sorted(entries, key=lambda entry: entry[2])
    edges = [len(ranked) * i // count for i in range(count + 1)]
    return [rng.choice(ranked[lo:hi]) for lo, hi in zip(edges, edges[1:])]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def batch(workload: str, seed: int, reference: dict) -> list[tuple]:
    """The run's fixed batch of operations, in a seeded order; each op is
    (kind, item, reference value)."""
    rng = random.Random(seed)
    pools = reference["pools"]
    ops = []
    for kind, count in BATCH[workload].items():
        if kind == "hl":
            ops += [(kind, gen_hl(rng, shape), None)
                    for shape, weight in HL_SHAPES.items()
                    for _ in range(count * weight)]
        elif kind == "row":
            ops += [(kind, gen_row(rng, length), None)
                    for length in ROW_LENGTHS for _ in range(count)]
        else:
            ops += [(kind, item, ref) for item, ref, _ in _draw(
                pools[f"{workload}/{kind}"], count, rng)]
    rng.shuffle(ops)
    return ops


def run_op(workload: str, kind: str, item):
    """The timed part of an operation: the calls a user of radolab makes."""
    if workload == "certify":
        if kind == "hl":
            return certify_hl(*item)
        return certify_matrix([item] if kind == "row" else item)
    if workload == "analyze":
        return run_cli(analyze_argv(kind, item))
    return census_output(kind, item)


def check_op(workload: str, kind: str, item, ref, output) -> bool:
    if kind == "hl":
        return output is True
    if kind == "row":
        found, verified = output
        return verified and found == has_zero_sum_subset(item)
    if workload == "certify" and not output[1]:
        return False  # a certificate failed re-verification
    return outcome(workload, kind, item, output) == ref


# ---------------------------------------------------------------------------
# the color_array wrap probe (a known defect at the recorded commit)

WRAP_MODULUS = 65537


def wrap_params(seed: int) -> dict:
    """x + y = z under mod:65537 at N = 2, with a bound past 4*65537 - 1 =
    262147, the fourth value whose color does not fit in 16 bits."""
    return {"equation": "x + y = z", "colorings": [f"mod:{WRAP_MODULUS}"],
            "bound": 262148 + seed % 64, "N": 2}


def wrap_truth(p: dict) -> list:
    """Independent count.  Under mod:m, x = y = z (mod m) with x + y = z
    forces every coordinate to be a multiple of m, so the monochromatic
    solutions are (a*m, b*m, (a+b)*m) with a + b <= bound // m."""
    m, bound, N = WRAP_MODULUS, p["bound"], p["N"]
    counts: dict = {}
    top = bound // m
    for a in range(1, top):
        for b in range(1, top - a + 1):
            partition, valid = coloring.asymptotic_profile(
                (a * m, b * m, (a + b) * m), N)
            if valid:
                key = json.dumps([sorted(c) for c in partition.classes])
                counts[key] = counts.get(key, 0) + 1
    entries = sorted([json.loads(k), n] for k, n in counts.items())
    return [[entries, bound * (bound - 1) // 2]]
