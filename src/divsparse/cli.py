"""Command-line interface with machine-stable output.

Four subcommands: ``solve``, ``sparsify``, ``enumerate``, ``verify``.
Sets print as ``set: i1 i2 ...`` with ascending indices (an empty set
prints ``set:``); witness lists are ordered by ascending mask value so
identical runs are byte-identical.  Exit codes: 0 the command ran (NO
answers included), 2 parse or usage errors, 3 a desk-scale guard or an
unsupported capability, 4 an oracle answer that broke its contract (a
:class:`~divsparse.core.SoundnessError`).

``--mode`` and the pipeline flags become one params object per run
(:class:`~divsparse.sunflower.SmallSparsifyParams` or
:class:`~divsparse.limited.LimitedSparsifyParams`): ``sparsify`` and
``verify`` build from it as given, and ``solve`` hands it to
:func:`~divsparse.solvers.solve`, which sets each problem's order and cap.

A run loads only the code its command and instance need: parsing the
instance imports the one adapter module of the kind it names (see
:mod:`divsparse.instances`), and the brute-force engine
(:mod:`divsparse.bruteforce`) is imported by ``enumerate`` and ``verify``
alone.  The sparsifier pipelines and the solvers load with this module.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from .core import (
    CapabilityError,
    GuardError,
    SoundnessError,
    SparsifierReport,
    SubsetMask,
    iter_bits,
)
from .instances import DomainInstance, ParseError, parse_instance
from .limited import LimitedSparsifyParams, dk_sparsify
from .solvers import ProblemSpec, _check_cluster_p, solve
from .sunflower import SmallSparsifyParams, k_sparsify

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_SOUNDNESS = 4


def _set_line(bits: int) -> str:
    inner = " ".join(map(str, iter_bits(bits)))
    return f"set: {inner}" if inner else "set:"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first ``run``, then reused: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="divsparse",
        description=(
            "Max-distance sparsifiers of implicit combinatorial domains and "
            "exact diversification/clustering solvers on top of them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_problem: bool) -> None:
        p.add_argument("--instance", required=True, help="instance file path")
        if with_problem:
            p.add_argument(
                "--problem",
                required=True,
                choices=["maxmin", "maxsum", "kcenter", "ksumradii"],
            )
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        if with_problem:
            p.add_argument("--modified", action="store_true")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epsilon", type=float, default=0.01)
        p.add_argument(
            "--p",
            type=int,
            default=None,
            help="cluster radius override; must exceed 2d, or 2(d + 1) for "
            "kcenter and ksumradii, whose sparsifier cap is d + 1",
        )
        p.add_argument("--trials", type=int, default=None, help="far-set trials override")
        p.add_argument("--mode", choices=["auto", "small", "limited"], default="auto")

    common(sub.add_parser("solve", help="answer a diversification/clustering problem"), True)
    common(sub.add_parser("sparsify", help="emit a max-distance sparsifier"), False)
    enum = sub.add_parser("enumerate", help="list the whole domain (guarded)")
    enum.add_argument("--instance", required=True)
    common(sub.add_parser("verify", help="sparsify, then check the definition"), False)
    return parser


def _params(args, instance: DomainInstance) -> SmallSparsifyParams | LimitedSparsifyParams:
    """The pipeline the flags choose, with its settings; ``solve`` sets
    the order and cap of each problem's sparsifier from them."""
    mode = args.mode
    if mode == "auto":
        mode = "small" if instance.prefers_small else "limited"
    if mode == "small":
        # a full sparsifier w.r.t. the radius-ell ball; --d plays no role
        # here, but a negative one is refused as in limited mode
        if args.d < 0:
            raise ValueError("d must be nonnegative")
        ell = instance.size_bound
        if ell is None:
            raise ValueError(
                f"domain {instance.kind} does not support the small pipeline"
            )
        return SmallSparsifyParams(k=args.k, r=ell, ell=ell)
    if getattr(args, "problem", None) in ("kcenter", "ksumradii") and args.d >= 0:
        # ahead of the params' own check, whose 2d is only a lower bound
        # here; a negative d is left to them to name
        _check_cluster_p(args.p, args.d)
    return LimitedSparsifyParams(
        k=args.k,
        d=args.d,
        p=args.p,
        epsilon=args.epsilon,
        trials_override=args.trials,
        seed=args.seed,
    )


def _run_solve(args, instance: DomainInstance) -> int:
    spec = ProblemSpec(
        problem=args.problem, k=args.k, d=args.d, modified=args.modified
    )
    answer = solve(instance.oracle(), spec, _params(args, instance))
    if not answer.feasible:
        print("NO")
        return EXIT_OK
    print("YES")
    order = sorted(
        range(len(answer.witnesses)), key=lambda i: answer.witnesses[i].bits
    )
    for i in order:
        print(_set_line(answer.witnesses[i].bits))
    if answer.radii is not None:
        for i in order:
            print(f"radius: {answer.radii[i]}")
    if spec.problem == "maxsum":
        print(f"objective: {answer.objective}")
    return EXIT_OK


def _sparsify_report(args, instance: DomainInstance) -> SparsifierReport:
    params = _params(args, instance)
    # called through this module's names, which the benchmark's tracer rebinds
    if isinstance(params, SmallSparsifyParams):
        return k_sparsify(params, instance.oracle())
    return dk_sparsify(instance.oracle(), params)


def _run_sparsify(args, instance: DomainInstance) -> int:
    report = _sparsify_report(args, instance)
    print(f"size: {len(report.family)}")
    for bits in report.family.bits:
        print(_set_line(bits))
    print(f"calls_opt: {report.calls_opt}")
    print(f"calls_extend: {report.calls_extend}")
    print(f"seed: {args.seed}")
    return EXIT_OK


def _run_enumerate(args, instance: DomainInstance) -> int:
    from .bruteforce import enumerate_domain

    ordered = sorted(enumerate_domain(instance).bits)
    print(f"size: {len(ordered)}")
    for bits in ordered:
        print(_set_line(bits))
    return EXIT_OK


def _run_verify(args, instance: DomainInstance) -> int:
    from .bruteforce import VerifyScope, enumerate_domain, verify_sparsifier

    report = _sparsify_report(args, instance)
    domain = enumerate_domain(instance)
    params = report.params
    if isinstance(params, SmallSparsifyParams):
        scope = VerifyScope.versus_ball(
            k=params.k,
            cap=None,
            center=SubsetMask.empty(domain.universe_size),
            radius=params.r,
        )
    else:
        scope = VerifyScope.versus_all_subsets(k=params.k, cap=params.d)
    result = verify_sparsifier(domain, report.family, scope)
    if result.counterexample is None:
        print("OK (sampled)" if result.sampled else "OK")
        return EXIT_OK
    print("FAIL")
    reference_tuple, missed = result.counterexample
    for mask in reference_tuple:
        print(_set_line(mask.bits))
    print(_set_line(missed.bits))
    return EXIT_OK


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        with open(args.instance, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read instance: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        instance = parse_instance(text)
        if args.command == "solve":
            return _run_solve(args, instance)
        if args.command == "sparsify":
            return _run_sparsify(args, instance)
        if args.command == "enumerate":
            return _run_enumerate(args, instance)
        return _run_verify(args, instance)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GuardError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except SoundnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOUNDNESS


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
