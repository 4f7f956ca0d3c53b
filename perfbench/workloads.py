"""The benchmark's workloads: case sets, seeded inputs, one op each, exact checks.

Each workload is a closed loop with one client.  Its inputs are made
from the seed before any timing starts; an op drives symslice only
through its public functions and `symslice.cli.main`, and every output
is compared exactly with what the generator knows to be right.  An op
returns True on success and False on a counted failure (the solver gave
up); a wrong answer raises `WrongAnswer`, which aborts the run.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

# Calls go through the module attributes, so the tracer's wrappers see them.
from symslice import cli, matspace, nilpotent, pairs, sl2
from symslice import slice as slicing
from symslice.exact import matrix_to_text

# Degenerate o(1, 1) has no sl2 triple; tier-1 covers its NoTriple contract.
DEGENERATE = ("o", 1, 1)
TRIALS = 50  # make_certificate round-trips per certify op, as in `report`
CONJUGATION_HEIGHT = 3
COORD_HEIGHT = 10
WIDE_HEIGHT = 100  # invert: the highest height tried at which Newton missed no target
NONREGULAR_SLOT = 9  # canonicalize: request i is non-regular when i % 10 == 9


class WrongAnswer(RuntimeError):
    """An op returned an output that differs from the known answer."""


def grid_cases(max_n: int) -> list[tuple[str, int, int]]:
    """Acceptance-grid cases (GL p<=8, O p+q<=16, Sp p<=8) with p + q <= max_n."""
    return [
        c
        for c in cli.report_cases(8, 16, 8)
        if c != DEGENERATE and c[1] + c[2] <= max_n
    ]


def seeded_rng(seed: int, tag: str) -> random.Random:
    blob = f"{tag}:{seed}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(blob).digest()[:8], "big"))


def build_direct(cases):
    """Cold construction of every case through the public pipeline functions."""
    out = {}
    for fam, p, q in cases:
        pair = pairs.make_pair(pairs.Family(fam), p, q)
        witness = nilpotent.make_witness(pair)
        nilpotent.closed_form_centralizer(pair)
        triple = sl2.complete_triple(pair, witness.e)
        out[(fam, p, q)] = slicing.make_slice(pair, triple)
    return out


def build_cached(cases):
    """Cold construction through `build_case`, which also warms its cache."""
    return {c: cli.build_case(*c).slc for c in cases}


@dataclass
class Request:
    case: tuple
    kind: str
    arg: object  # certify: sub-seed; the others: input file path
    expect: str | None = None


def input_digest(requests) -> str:
    """sha256 over every request's case, kind, input bytes and expected output."""
    h = hashlib.sha256()
    for r in requests:
        h.update(repr((r.case, r.kind, r.expect)).encode())
        if isinstance(r.arg, str):
            with open(r.arg, "rb") as fh:
                h.update(fh.read())
        else:
            h.update(str(r.arg).encode())
    return h.hexdigest()


def _coords(rng: random.Random, dim: int, height: int) -> list[Fraction]:
    return [Fraction(rng.randint(-height, height), rng.randint(1, 10)) for _ in range(dim)]


def _rank(rows) -> int:
    """Rank over Q by plain Fraction elimination, independent of symslice.exact."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / prow[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
    return rank


def _dense(m):
    return [list(m.row(i)) for i in range(m.rows)]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def centralizer_dim(pair, x) -> int:
    """dim of {z in g(-1) : [x, z] = 0}, computed without symslice's kernels."""
    xd = _dense(x)
    cols = []
    for b in pair.basis_minus:
        bd = _dense(b)
        xb, bx = _matmul(xd, bd), _matmul(bd, xd)
        cols.append([u - v for ru, rv in zip(xb, bx) for u, v in zip(ru, rv)])
    return len(cols) - _rank(zip(*cols))


def nonregular_element(pair, rng: random.Random):
    """A g(-1) basis matrix that is not relatively regular, else zero."""
    basis = list(pair.basis_minus)
    rng.shuffle(basis)
    for b in basis:
        if centralizer_dim(pair, b) > pair.rank_theta:
            return b
    if len(pair.basis_minus) <= pair.rank_theta:
        raise AssertionError(f"no non-regular element for {pair!r}")
    return 0 * pair.basis_minus[0]


def _case_args(case):
    fam, p, q = case
    return ["--family", fam, "--p", str(p), "--q", str(q)]


class Certify:
    name = "certify"
    cases = grid_cases(6)
    rounds = 7

    def __init__(self):
        self.first_bytes: dict[int, str] = {}

    def requests(self, seed, slices, workdir):
        rng = seeded_rng(seed, self.name)
        return [
            Request(case=self.cases[i % len(self.cases)], kind="certificate",
                    arg=rng.randrange(2**31))
            for i in range(self.rounds * len(self.cases))
        ]

    def op(self, i, req) -> bool:
        fam, p, q = req.case
        cert = cli.make_certificate(fam, p, q, seed=req.arg, trials=TRIALS)
        text = json.dumps(cert, sort_keys=True, indent=2) + "\n"
        if not cert["passing"]:
            raise WrongAnswer(f"certificate for {req.case} is not passing")
        first = self.first_bytes.setdefault(i, text)
        if text != first:
            raise WrongAnswer(f"certificate for {req.case} changed between passes")
        return True

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in sorted(self.first_bytes):
            h.update(self.first_bytes[i].encode())
        return h.hexdigest()


class Canonicalize:
    name = "canonicalize"
    cases = grid_cases(10)
    rounds = 4

    def requests(self, seed, slices, workdir):
        rng = seeded_rng(seed, self.name)
        reqs = []
        for i in range(self.rounds * len(self.cases)):
            case = self.cases[i % len(self.cases)]
            slc = slices[case]
            pair = slc.pair
            if i % 10 == NONREGULAR_SLOT:
                x = nonregular_element(pair, rng)
                kind, expect = "nonregular", None
            else:
                coords = _coords(rng, slc.dim, COORD_HEIGHT)
                x = slicing.slice_point(slc, coords)
                kind = "regular"
                expect = json.dumps([str(c) for c in coords]) + "\n" + matrix_to_text(x)
            g = matspace.random_group_element(
                pair, seed=rng.randrange(2**63), height=CONJUGATION_HEIGHT
            )
            path = os.path.join(workdir, f"canonicalize-{i}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(matrix_to_text(matspace.act(pair, g, x)))
            reqs.append(Request(case=case, kind=kind, arg=path, expect=expect))
        return reqs

    def op(self, i, req) -> bool:
        out = io.StringIO()
        argv = ["canonicalize", *_case_args(req.case), "--matrix", req.arg]
        code = cli.main(argv, out=out, err=io.StringIO())
        text = out.getvalue()
        if req.kind == "regular":
            if code == 0 and text == req.expect:
                return True
        elif code == 4 and json.loads(text)["error"]["type"] == "NotRegular":
            return True
        raise WrongAnswer(f"canonicalize {req.kind} {req.case}: exit {code}, {text[:200]!r}")


class Invert:
    name = "invert"
    cases = grid_cases(10)
    rounds = 10

    def requests(self, seed, slices, workdir):
        """Round r of the cases uses numerator height WIDE_HEIGHT when
        r >= 8 and COORD_HEIGHT otherwise.  From height 300 up, Newton
        returns NotFound on some targets (7 of 1520 at 300, on gl(4,4)
        and gl(5,5)), at a cost of 0.1-1 s each, so higher rounds would
        make the workload fail ops; at 10 and at 100 it missed none of
        15200 targets each.  misses.py measures the larger heights."""
        rng = seeded_rng(seed, self.name)
        reqs = []
        for i in range(self.rounds * len(self.cases)):
            case = self.cases[i % len(self.cases)]
            slc = slices[case]
            height = WIDE_HEIGHT if i // len(self.cases) >= 8 else COORD_HEIGHT
            x = slicing.slice_point(slc, _coords(rng, slc.dim, height))
            path = os.path.join(workdir, f"invert-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(slicing.invariants_to_json(slicing.invariants(slc.pair, x)))
            reqs.append(Request(case=case, kind=f"h{height}", arg=path, expect=matrix_to_text(x)))
        return reqs

    def op(self, i, req) -> bool:
        out = io.StringIO()
        argv = ["slice-rep", *_case_args(req.case), "--invariants", req.arg]
        code = cli.main(argv, out=out, err=io.StringIO())
        text = out.getvalue()
        if code == 0 and text == req.expect:
            return True
        if code == 3 and json.loads(text)["error"]["type"] == "NotFound":
            return False
        raise WrongAnswer(f"slice-rep {req.kind} {req.case}: exit {code}, {text[:200]!r}")


WORKLOADS = {w.name: w for w in (Certify, Canonicalize, Invert)}
