"""Correctness gate: every job's stdout against the brute-force engine.

``solve`` answers are compared with ``bruteforce.brute_solve`` on the
enumerated domain, and the printed witnesses are certified directly
(pipelines may pick different witnesses than the exhaustive search, so
they are checked for validity, not equality).  ``sparsify`` outputs are
checked with ``verify_sparsifier`` against the same reference family the
CLI's ``verify`` command uses.  Runs outside the timed region.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations

from divsparse.bruteforce import VerifyScope, brute_solve, enumerate_domain, verify_sparsifier
from divsparse.core import SetFamily, SubsetMask
from divsparse.instances import parse_instance
from divsparse.solvers import ProblemSpec

from workloads import Job


@dataclass(frozen=True)
class Verdict:
    """Checker result for one job; ``problem`` is None when it passed."""

    problem: str | None
    domain_size: int


def answer_digest(stdout: str) -> str:
    """Digest of the answer lines; call-count lines may legitimately change."""
    kept = [line for line in stdout.splitlines() if not line.startswith("calls_")]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def stdout_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def _flag(args: tuple[str, ...], name: str) -> str | None:
    return args[args.index(name) + 1] if name in args else None


def _parse_set(line: str, n: int) -> int:
    if not line.startswith("set:"):
        raise ValueError(f"expected a set line, got {line!r}")
    bits = 0
    for token in line[4:].split():
        bits |= 1 << int(token)
    SubsetMask(n, bits)  # range check
    return bits


def _distance(a: int, b: int, n: int, modified: bool) -> int:
    plain = (a ^ b).bit_count()
    return min(plain, n - plain) if modified else plain


def _check_solve(args, lines, domain: SetFamily) -> str | None:
    spec = ProblemSpec(
        problem=_flag(args, "--problem"),
        k=int(_flag(args, "--k")),
        d=int(_flag(args, "--d")),
        modified="--modified" in args,
    )
    n = domain.universe_size
    expected = brute_solve(domain, spec)
    if lines[:1] != (["YES"] if expected.feasible else ["NO"]):
        return f"answer {lines[:1]} but brute force says feasible={expected.feasible}"
    if not expected.feasible:
        return None if len(lines) == 1 else "extra lines after NO"
    k = spec.k
    witnesses = [_parse_set(line, n) for line in lines[1 : 1 + k]]
    rest = lines[1 + k :]
    if len(witnesses) != k:
        return "fewer witnesses than k"
    if any(not domain.contains_bits(w) for w in witnesses):
        return "a witness is not a domain member"
    pair = [
        _distance(a, b, n, spec.modified) for a, b in combinations(witnesses, 2)
    ]
    if spec.problem == "maxmin":
        if rest or any(v < spec.d for v in pair):
            return "witnesses violate the max-min threshold"
        return None
    if spec.problem == "maxsum":
        if rest != [f"objective: {sum(pair)}"]:
            return "objective line does not match the witnesses"
        if not spec.d <= sum(pair) <= expected.objective:
            return "objective outside [d, brute-force optimum]"
        return None
    if len(rest) != k or any(not r.startswith("radius: ") for r in rest):
        return "missing radius lines"
    radii = [int(r.split()[1]) for r in rest]
    total = sum(radii) if spec.problem == "ksumradii" else max(radii)
    if min(radii) < 0 or total > spec.d:
        return "radii exceed the budget d"
    for member in domain.bits_list():
        if not any(
            _distance(c, member, n, spec.modified) <= r
            for c, r in zip(witnesses, radii)
        ):
            return "a domain member is not covered by the printed balls"
    return None


def _check_sparsify(args, lines, domain: SetFamily, size_bound: int | None) -> str | None:
    n = domain.universe_size
    k = int(_flag(args, "--k"))
    size = int(lines[0].removeprefix("size: "))
    family = SetFamily.from_bits(n, [_parse_set(line, n) for line in lines[1 : 1 + size]])
    tail = [line.split(":")[0] for line in lines[1 + size :]]
    if tail != ["calls_opt", "calls_extend", "seed"]:
        return "malformed sparsify trailer"
    if _flag(args, "--mode") == "small":
        scope = VerifyScope.versus_ball(
            k=k, cap=None, center=SubsetMask.empty(n), radius=size_bound
        )
    else:
        scope = VerifyScope.versus_all_subsets(k=k, cap=int(_flag(args, "--d")))
    result = verify_sparsifier(domain, family, scope)
    if result.sampled:
        return "universe too large for an exact sparsifier check"
    return None if result.ok else "not a sparsifier: verify_sparsifier found a counterexample"


def check_job(job: Job, stdout: str) -> Verdict:
    """Certify one job's stdout against the enumerated domain."""
    instance = parse_instance(job.text)
    domain = enumerate_domain(instance)
    lines = stdout.splitlines()
    try:
        if not lines:
            problem = "empty output"
        elif job.args[0] == "solve":
            problem = _check_solve(job.args, lines, domain)
        else:
            problem = _check_sparsify(job.args, lines, domain, instance.size_bound)
    except (ValueError, IndexError) as exc:
        problem = f"unparsable output: {exc}"
    return Verdict(problem, len(domain))
