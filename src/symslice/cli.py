"""Batch driver and certificate emitter.

Subcommands: verify (one case, full pipeline, JSON certificate),
report (a range of cases, optionally case-parallel), slice-rep
(produce the rational slice representative for a given invariant
vector), canonicalize (map an element of g(-1) to its slice
coordinates and canonical representative).

Certificates are deterministic given the seed: rationals serialize as
"a/b" strings, keys are sorted, and per-case sub-seeds are derived by
hashing, so reruns or different --jobs values are byte-identical.

Exit codes: 0 pass, 1 some case failed, 2 input error, 3 no slice point
has these invariants (decided exactly; also returned for the one case
without a slice), 4 non-regular input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import random
import sys
from concurrent import futures
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .exact import RatMatrix, matrix_from_text, matrix_to_text, spans_equal, unlimited_int_text
from .exact import integer_rows
from .matspace import act, act_mpq, random_group_element
from .nilpotent import (
    NilpotentWitness,
    closed_form_centralizer,
    is_relatively_regular,
    make_witness,
)
from .pairs import (
    MAX_SIZE,
    ConstraintViolation,
    Family,
    MembershipError,
    SymmetricPair,
    check_constraints,
    combine,
    in_eigenspace,
    make_pair,
)
from .sl2 import NoTriple, Sl2Triple, complete_triple, verify_triple
from .slice import (
    InvariantVector,
    KostantSlice,
    NotFound,
    SliceDimensionError,
    _graded_solve_pairs,
    _invariants_of_rows,
    _point_rows,
    _slice_invariants,
    invariant_length,
    invariant_values,
    invariants_from_json,
    invert_on_slice,
    make_slice,
    slice_point,
)

log = logging.getLogger(__name__)

EXIT_PASS = 0
EXIT_CASE_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NOT_FOUND = 3
EXIT_NOT_REGULAR = 4

_EQUIVARIANCE_DRAWS = 20
_CONJUGATION_DRAWS = 20
_DRAW_HEIGHT = 3


@dataclass(frozen=True)
class Case:
    pair: SymmetricPair
    witness: NilpotentWitness
    closed_form: tuple
    triple: Sl2Triple | None
    slc: KostantSlice | None
    triple_error: str | None


@lru_cache(maxsize=None)
def _case(family_value: str, p: int, q: int) -> Case:
    pair = make_pair(Family(family_value), p, q)
    witness = make_witness(pair)
    closed_form = tuple(closed_form_centralizer(pair))
    try:
        triple = complete_triple(pair, witness.e)
        slc = make_slice(pair, triple, witness.centralizer_basis)
        return Case(pair, witness, closed_form, triple=triple, slc=slc, triple_error=None)
    except NoTriple as exc:
        log.info("no sl2 completion for (%s, %d, %d): %s", family_value, p, q, exc)
        return Case(pair, witness, closed_form, triple=None, slc=None, triple_error=str(exc))


def build_case(family, p: int, q: int) -> Case:
    """Construct (and cache) the per-case pipeline.

    Raises ConstraintViolation for invalid parameters.
    """
    return _case(Family(family).value, p, q)


def _sub_rng(seed: int, family: Family, p: int, q: int, tag: str) -> random.Random:
    blob = f"{seed}:{family.value}:{p}:{q}:{tag}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(blob).digest()[:8], "big"))


@unlimited_int_text()
def _mat_json(m: RatMatrix | None):
    if m is None:
        return None
    return [[str(x) for x in m.row(i)] for i in range(m.rows)]


def _check_equivariance(pair: SymmetricPair, rng: random.Random) -> bool:
    """g x g^-1 in g(-1), with upper-right block (g1, g2) . A = g1 A g2^-1;
    on gl, whose lower-left block B is free, also lower-left block g2 B g1^-1."""
    p, n = pair.p, pair.n
    for _ in range(_EQUIVARIANCE_DRAWS):
        g = random_group_element(pair, seed=rng.randrange(2**63), height=_DRAW_HEIGHT)
        coeffs = [rng.randint(-5, 5) for _ in pair.minus_support]
        # x, combined over the g(-1) basis, lies in g(-1): only g x g^-1 is checked
        x = combine(pair.n, pair.minus_support, coeffs)
        y = act(pair, g, x)
        if not in_eigenspace(pair, y, -1):
            return False
        if y.submatrix(0, p, p, n) != act_mpq(pair, g, x.submatrix(0, p, p, n)):
            return False
        if pair.family is Family.GL:
            g2, g1_inv = g.g.submatrix(p, n, p, n), g.g_inv.submatrix(0, p, 0, p)
            if y.submatrix(p, n, 0, p) != g2 * x.submatrix(p, n, 0, p) * g1_inv:
                return False
    return True


def _random_coords(rng: random.Random, dim: int) -> tuple[list[int], int]:
    """dim draws a / b, a then b, as (numerators, d) over the lcm d of the b."""
    draws = [(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(dim)]
    den = math.lcm(*(b for _, b in draws))
    return [a * (den // b) for a, b in draws], den


def _solves_back(slc: KostantSlice, pairs, num, den: int) -> bool:
    """Whether the graded solve of the invariant pairs gives back num / den;
    False on a slice whose invariants do not solve for its coordinates,
    as on a wrong z(e) basis that the closed-form check refuses."""
    try:
        got, gden = _graded_solve_pairs(slc, pairs)
    except SliceDimensionError:
        return False
    return all(a * gden == b * den for a, b in zip(num, got))


def _check_invariant_conjugation(
    pair: SymmetricPair, slc: KostantSlice | None, rng: random.Random
) -> bool:
    if slc is None:
        return False
    indices = range(invariant_length(pair))
    for _ in range(_CONJUGATION_DRAWS):
        num, den = _random_coords(rng, slc.dim)
        rows, rden = _point_rows(slc, num, den)
        x = RatMatrix.from_ints(rows, cols=pair.n, den=rden)
        g = random_group_element(pair, seed=rng.randrange(2**63), height=_DRAW_HEIGHT)
        # x lies in g(-1) by construction; only g x g^-1 is checked for membership
        y = act(pair, g, x)
        if not in_eigenspace(pair, y, -1):
            return False
        # x's off the slice's kernel and y's off the rows path: every draw
        # also checks the kernel against the generic evaluation
        inv_x = _slice_invariants(slc, num, den, indices)
        inv_y = _invariants_of_rows(pair, *integer_rows(y), indices)
        # pairs c / d cross-multiplied; equal coordinates decide the inversion
        same = all(c * e == b * d for (c, d), (b, e) in zip(inv_x, inv_y))
        if not (same and _solves_back(slc, inv_y, num, den)):
            return False
    return True


def _roundtrip(slc: KostantSlice | None, trials: int, rng: random.Random) -> int:
    """How many random slice points `invert_on_slice` would give back.

    On integer rows and pairs, the graded solve of the point's invariants
    is the only candidate; when it equals the generating coordinates
    (cross-multiplied) it is that point, whose invariants are the target,
    so the exact check in `invert_on_slice` would pass.  When it differs,
    inversion either raises NotFound or returns other coordinates.
    """
    if slc is None:
        return 0
    indices = range(invariant_length(slc.pair))
    passes = 0
    for _ in range(trials):
        num, den = _random_coords(rng, slc.dim)
        # a slice point lies in g(-1) by construction: no membership check
        target = _slice_invariants(slc, num, den, indices)
        passes += _solves_back(slc, target, num, den)
    return passes


def make_certificate(family, p: int, q: int, seed: int = 0, trials: int = 50) -> dict:
    """Run the full pipeline for one case and collect every check result."""
    family = Family(family)
    case = build_case(family, p, q)
    pair = case.pair
    wit = case.witness

    checks: list[tuple[str, bool]] = []
    checks.append(("e_in_g_minus", in_eigenspace(pair, wit.e, -1)))
    checks.append(("e_nilpotent", wit.nilp_index is not None))
    checks.append(("centralizer_dim_eq_rank", wit.centralizer_dim == pair.rank_theta))
    checks.append(
        ("closed_form_match", spans_equal(wit.centralizer_basis, case.closed_form))
    )
    # a case without a triple fails the three triple checks
    vt = dict(verify_triple(pair, case.triple)) if case.triple is not None else {}
    relations = ("bracket_he", "bracket_hf", "bracket_ef")
    checks.append(("triple_relations", all(vt.get(name, False) for name in relations)))
    checks.append(("f_regular", vt.get("f_regular", False)))
    checks.append(("h_in_g_plus", vt.get("h_in_g_plus", False)))
    checks.append(
        ("equivariance", _check_equivariance(pair, _sub_rng(seed, family, p, q, "equiv")))
    )
    checks.append(
        (
            "invariant_conjugation",
            _check_invariant_conjugation(
                pair, case.slc, _sub_rng(seed, family, p, q, "conj")
            ),
        )
    )
    passes = _roundtrip(case.slc, trials, _sub_rng(seed, family, p, q, "roundtrip"))
    checks.append(("roundtrip", passes == trials))

    passing = all(ok for _, ok in checks)
    return {
        "family": family.value,
        "p": p,
        "q": q,
        "rank_theta": pair.rank_theta,
        "e": _mat_json(wit.e),
        "nilpotency_index": wit.nilp_index,
        "centralizer_dim": wit.centralizer_dim,
        "triple_f": _mat_json(case.triple.f if case.triple else None),
        "triple_h": _mat_json(case.triple.h if case.triple else None),
        "checks": [[name, ok] for name, ok in checks],
        "roundtrip_trials": trials,
        "roundtrip_passes": passes,
        "seed": seed,
        "tool_version": __version__,
        "passing": passing,
    }


def _write_json(obj, out, path=None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _Refused(EXIT_INPUT_ERROR, "InputError", str(exc)) from None
    else:
        out.write(text)


class _Refused(Exception):
    """(exit code, error type, message): ends a command with an error
    object on stdout."""


def _check_trials(args):
    if args.trials < 0:
        raise _Refused(
            EXIT_INPUT_ERROR, "InputError", f"--trials must be non-negative, got {args.trials}"
        )


def _slice_coords(case: Case, target: InvariantVector) -> list[Fraction]:
    if case.slc is None:
        raise _Refused(
            EXIT_NOT_FOUND,
            "NotFound",
            f"no slice for this case ({case.triple_error}); not certifying emptiness",
        )
    try:
        return invert_on_slice(case.slc, target)
    except NotFound as exc:
        raise _Refused(EXIT_NOT_FOUND, "NotFound", str(exc)) from None


def cmd_verify(args, out, err) -> int:
    _check_trials(args)
    cert = make_certificate(args.family, args.p, args.q, args.seed, args.trials)
    _write_json(cert, out, args.out)
    return EXIT_PASS if cert["passing"] else EXIT_CASE_FAILED


def report_cases(gl_max: int, o_max: int, sp_max: int) -> list[tuple[str, int, int]]:
    cases = []
    for p in range(1, gl_max + 1):
        for q in range(1, p + 1):
            cases.append(("gl", p, q))
    for p in range(1, o_max + 1):
        for q in range(max(1, p - 1), p + 1):
            if p + q <= o_max:
                cases.append(("o", p, q))
    for p in range(2, sp_max + 1, 2):
        for q in range(2, p + 1, 2):
            cases.append(("sp", p, q))
    return cases


def cmd_report(args, out, err) -> int:
    _check_trials(args)
    # a maximum above MAX_SIZE + 1 already yields a case with p + q > MAX_SIZE
    cases = report_cases(*(min(m, MAX_SIZE + 1) for m in (args.gl_max, args.o_max, args.sp_max)))
    for case in cases:
        check_constraints(*case)
    tasks = [(f, p, q, args.seed, args.trials) for f, p, q in cases]
    # the fork start method launches every worker up front
    jobs = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if jobs > 1:
        try:
            with futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                certs = list(pool.map(make_certificate, *zip(*tasks)))
        except OSError as exc:
            err.write(f"process pool unavailable ({exc}); running sequentially\n")
            certs = [make_certificate(*t) for t in tasks]
    else:
        certs = [make_certificate(*t) for t in tasks]
    failed = [[c["family"], c["p"], c["q"]] for c in certs if not c["passing"]]
    summary = {
        "total": len(certs),
        "passed": len(certs) - len(failed),
        "failed": failed,
        "seed": args.seed,
        "trials": args.trials,
        "tool_version": __version__,
        "certificates": certs,
    }
    for c in certs:
        status = "pass" if c["passing"] else "FAIL"
        err.write(f"{c['family']:<3} p={c['p']:<2} q={c['q']:<2} {status}\n")
    err.write(f"{summary['passed']}/{summary['total']} cases passing\n")
    _write_json(summary, out, args.out)
    return EXIT_PASS if not failed else EXIT_CASE_FAILED


def _read_input(path: str, parse):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError) as exc:
        raise _Refused(EXIT_INPUT_ERROR, "InputError", str(exc)) from None


def cmd_slice_rep(args, out, err) -> int:
    case = build_case(args.family, args.p, args.q)
    target = _read_input(args.invariants, invariants_from_json)
    expect = invariant_length(case.pair)
    if len(target.values) != expect:
        raise _Refused(
            EXIT_INPUT_ERROR,
            "InputError",
            f"expected {expect} invariant values, got {len(target.values)}",
        )
    coords = _slice_coords(case, target)
    out.write(matrix_to_text(slice_point(case.slc, coords)))
    return EXIT_PASS


def cmd_canonicalize(args, out, err) -> int:
    case = build_case(args.family, args.p, args.q)
    pair = case.pair
    x = _read_input(args.matrix, matrix_from_text)
    try:
        if x.shape != (pair.n, pair.n):
            raise MembershipError(f"expected a {pair.n} x {pair.n} matrix")
        regular = is_relatively_regular(pair, x)
    except MembershipError:
        raise _Refused(
            EXIT_INPUT_ERROR, "MembershipError", "input is not in g(-1) for this pair"
        ) from None
    if not regular:
        raise _Refused(EXIT_NOT_REGULAR, "NotRegular", "input is not relatively regular")
    # is_relatively_regular has checked membership
    coords = _slice_coords(case, InvariantVector(invariant_values(pair, x)))
    with unlimited_int_text():
        out.write(json.dumps([str(c) for c in coords]) + "\n")
    out.write(matrix_to_text(slice_point(case.slc, coords)))
    return EXIT_PASS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symslice",
        description="Exact certificates for nilpotent representatives, sl2 "
        "completions, and slice-based orbit canonicalization in infinitesimal "
        "symmetric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_case_args(sp):
        sp.add_argument("--family", required=True, choices=["gl", "o", "sp"])
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--q", type=int, required=True)

    v = sub.add_parser("verify", help="run the full pipeline for one case")
    add_case_args(v)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=50)
    v.add_argument("--out", help="write the certificate to a file instead of stdout")

    r = sub.add_parser("report", help="certificates for a range of cases")
    r.add_argument("--gl-max", type=int, default=0, help="GL cases with q <= p <= N")
    r.add_argument("--o-max", type=int, default=0, help="orthogonal cases with p+q <= N")
    r.add_argument("--sp-max", type=int, default=0, help="symplectic cases with p <= N")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--trials", type=int, default=50)
    r.add_argument("--jobs", type=int, default=1)
    r.add_argument("--out")

    s = sub.add_parser("slice-rep", help="slice representative for an invariant vector")
    add_case_args(s)
    s.add_argument("--invariants", required=True, help="JSON array of exact rationals")

    c = sub.add_parser("canonicalize", help="slice coordinates of an element of g(-1)")
    add_case_args(c)
    c.add_argument("--matrix", required=True, help="matrix file in the text format")

    return parser


def _configure_logging():
    level = os.environ.get("KS_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    # basicConfig installs a root handler once; KS_LOG sets the level of
    # the package logger on every call and leaves the root logger's alone
    logging.basicConfig()
    logging.getLogger("symslice").setLevel(levels.get(level, logging.ERROR))


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    _configure_logging()
    args = _build_parser().parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "report": cmd_report,
        "slice-rep": cmd_slice_rep,
        "canonicalize": cmd_canonicalize,
    }
    try:
        return handlers[args.command](args, out, err)
    except ConstraintViolation as exc:
        code, kind, message = EXIT_INPUT_ERROR, "ConstraintViolation", str(exc)
    except _Refused as exc:
        code, kind, message = exc.args
    _write_json({"error": {"type": kind, "message": message}}, out)
    return code


def console_main():
    sys.exit(main())
