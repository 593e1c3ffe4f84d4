"""Command-line front end emitting JSON certificates.

Subcommands: ``verify-algebra``, ``verify-module``, ``classify``,
``annihilation``.  Exit codes: 0 when every check passed, 1 when any check
failed, 2 on malformed input, on a table whose checked identities leave its
ERROR_ON_OVERFLOW window, or when ``--out`` cannot be written.  The
environment variable ``CONFAL_SEED`` (an integer, default 0) fixes the
randomness of falsification batteries, so certificates are byte-stable run
to run.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from fractions import Fraction

from . import certificates as cert
from .annihilation import (
    LieReport,
    annihilation_subquotient,
    build_annihilation,
    characters,
    check_central,
    check_lie,
    ideal_and_nilpotency,
    resonance_analysis,
)
from .classify import classify_bn, classify_rank_one, verify_report
from .conformal import (
    ConformalAlgebra,
    TruncationPolicy,
    WindowOverflowError,
    check_jacobi,
    check_skew,
    make_block,
    make_bn,
    make_heisenberg_virasoro,
    make_heisenberg_virasoro_misprint,
    make_schrodinger_virasoro,
    make_virasoro,
)
from .modules import (
    KIND_FREE,
    ConformalModule,
    UnsupportedModuleError,
    check_module,
    is_irreducible_rank_one,
    rank_one_beta_module,
    rank_one_module,
    trivial_module,
)
from .serialize import (
    ParseError,
    algebra_from_dict,
    load_json,
    module_from_dict,
    parse_rat,
    poly_str,
    rat_str,
)


class InputError(ValueError):
    """Invalid command-line input that argparse could not catch."""


def _rat_arg(text: str) -> Fraction:
    try:
        return parse_rat(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed_from_env() -> int:
    raw = os.environ.get("CONFAL_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"CONFAL_SEED must be an integer, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confal",
        description="exact checks and certificates for windowed Lie "
        "conformal algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_algebra_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--alg",
            required=True,
            help="block | bn | hv | hv-misprint | sv | vir | file (or file:<path>)",
        )
        p.add_argument("--p", type=_rat_arg, help="family parameter for --alg block")
        p.add_argument("--window", type=int, help="generator window for --alg block")
        p.add_argument("--n", type=int, help="quotient size for --alg bn")
        p.add_argument("--file", help="algebra JSON file for --alg file")
        p.add_argument(
            "--policy",
            choices=["error", "truncate"],
            default="truncate",
            help="window policy for --alg block (default truncate)",
        )

    pa = sub.add_parser("verify-algebra", help="run the bracket axiom checkers")
    add_algebra_flags(pa)
    pa.add_argument("--out", help="write the certificate to this path")

    pm = sub.add_parser("verify-module", help="run the module identity checker")
    add_algebra_flags(pm)
    pm.add_argument(
        "--mod",
        required=True,
        help="M:<delta>:<alpha> | Mb:<delta>:<alpha>:<beta> | trivial:<alpha> "
        "| file:<path>",
    )
    pm.add_argument(
        "--degree-bound",
        type=_positive_int_arg,
        default=3,
        help="degree bound for the invariant-span search, at least 1 "
        "(default 3)",
    )
    pm.add_argument("--out", help="write the certificate to this path")

    pc = sub.add_parser("classify", help="replay the rank-one classification")
    group = pc.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=_rat_arg, help="family parameter")
    group.add_argument("--bn", type=int, help="classify over the quotient b(n)")
    pc.add_argument("--K", type=int, default=6, help="top index bound (default 6)")
    pc.add_argument("--D", type=int, default=6, help="degree bound (default 6)")
    pc.add_argument("--out", help="write the certificate to this path")

    pn = sub.add_parser(
        "annihilation", help="build mode algebras and their analyses"
    )
    pn.add_argument("--p", type=_rat_arg, required=True, help="family parameter")
    pn.add_argument("--idx", type=int, help="index window (mode expansion)")
    pn.add_argument("--mode", type=int, help="mode window (mode expansion)")
    pn.add_argument(
        "--extended",
        action="store_true",
        help="adjoin the translation generator and check centrality",
    )
    pn.add_argument(
        "--G",
        action="store_true",
        help="build the finite subquotient and run the resonance analysis",
    )
    pn.add_argument("--k", type=int, help="index cap for --G")
    pn.add_argument("--N", type=int, help="mode cap for --G")
    pn.add_argument("--out", help="write the certificate to this path")
    return parser


# -- builders -------------------------------------------------------------------


def _algebra_from_args(args: argparse.Namespace) -> tuple[ConformalAlgebra, dict]:
    selector = args.alg
    path = args.file
    if selector.startswith("file:"):
        selector, path = "file", selector.split(":", 1)[1]
    inputs: dict = {"alg": selector}
    if selector == "block":
        if args.p is None or args.window is None:
            raise InputError("--alg block needs --p and --window")
        policy = (
            TruncationPolicy.TRUNCATE_TO_ZERO
            if args.policy == "truncate"
            else TruncationPolicy.ERROR_ON_OVERFLOW
        )
        try:
            alg = make_block(args.p, args.window, policy)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        inputs.update(p=rat_str(args.p), window=args.window, policy=args.policy)
    elif selector == "bn":
        if args.n is None:
            raise InputError("--alg bn needs --n")
        try:
            alg = make_bn(args.n)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        inputs.update(n=args.n)
    elif selector == "hv":
        alg = make_heisenberg_virasoro()
    elif selector == "hv-misprint":
        alg = make_heisenberg_virasoro_misprint()
    elif selector == "sv":
        alg = make_schrodinger_virasoro()
    elif selector == "vir":
        alg = make_virasoro()
    elif selector == "file":
        if not path:
            raise InputError("--alg file needs --file <path>")
        alg = algebra_from_dict(load_json(path))
        inputs.update(file=path)
    else:
        raise InputError(f"unknown algebra selector {selector!r}")
    return alg, inputs


def _module_from_args(
    args: argparse.Namespace, alg: ConformalAlgebra
) -> tuple[ConformalModule, dict]:
    selector = args.mod
    parts = selector.split(":")
    try:
        if parts[0] == "M" and len(parts) == 3:
            mod = rank_one_module(alg, parse_rat(parts[1]), parse_rat(parts[2]))
            return mod, {"mod": selector}
        if parts[0] == "Mb" and len(parts) == 4:
            mod = rank_one_beta_module(
                alg,
                parse_rat(parts[1]),
                parse_rat(parts[2]),
                parse_rat(parts[3]),
                unchecked=True,
            )
            return mod, {"mod": selector}
        if parts[0] == "trivial" and len(parts) == 2:
            return trivial_module(parse_rat(parts[1])), {"mod": selector}
        if parts[0] == "file" and len(parts) >= 2:
            path = selector.split(":", 1)[1]
            return module_from_dict(load_json(path)), {"mod": "file", "file": path}
    except (ParseError, UnsupportedModuleError, ValueError) as exc:
        raise InputError(f"bad module selector {selector!r}: {exc}") from None
    raise InputError(f"bad module selector {selector!r}")


# -- subcommands ------------------------------------------------------------------


def _algebra_results(alg: ConformalAlgebra, certificate: cert.Certificate) -> None:
    skew = check_skew(alg)
    certificate.add(
        "skew_symmetry",
        cert.PASS if skew.ok else cert.FAIL,
        {
            "algebra": alg.name,
            "pairs_checked": skew.pairs_checked,
            "failures": [
                {
                    "pair": [f.i, f.j],
                    "residual": cert.combo_payload(f.residual, alg.gen_names),
                }
                for f in skew.failures
            ],
        },
    )
    jac = check_jacobi(alg)
    certificate.add(
        "jacobi_identity",
        cert.PASS if jac.ok else cert.FAIL,
        {
            "algebra": alg.name,
            "triples_checked": jac.triples_checked,
            "failures": [
                {
                    "triple": [f.i, f.j, f.k],
                    "residual": cert.combo_payload(f.residual, alg.gen_names),
                }
                for f in jac.failures
            ],
        },
    )


def cmd_verify_algebra(args: argparse.Namespace) -> cert.Certificate:
    alg, inputs = _algebra_from_args(args)
    certificate = cert.Certificate(command="verify-algebra", inputs=inputs)
    certificate.add(
        "structure_table",
        cert.PASS,
        {
            "algebra": alg.name,
            "window": alg.window,
            "policy": alg.policy.value,
            "sha256": cert.conformal_table_hash(alg),
        },
    )
    _algebra_results(alg, certificate)
    return certificate


def cmd_verify_module(args: argparse.Namespace) -> cert.Certificate:
    alg, inputs = _algebra_from_args(args)
    mod, mod_inputs = _module_from_args(args, alg)
    inputs = {**inputs, **mod_inputs, "degree_bound": args.degree_bound}
    certificate = cert.Certificate(command="verify-module", inputs=inputs)
    _algebra_results(alg, certificate)

    report = check_module(alg, mod)
    certificate.add(
        "module_identity",
        cert.PASS if report.ok else cert.FAIL,
        {
            "algebra": alg.name,
            "kind": mod.kind,
            "rank": mod.rank,
            "pairs_checked": report.pairs_checked,
            "failures": [
                {
                    "pair": [f.i, f.j],
                    "basis": f.basis,
                    "residual": {
                        str(c): poly_str(v) for c, v in sorted(f.residual.items())
                    },
                }
                for f in report.failures
            ],
        },
    )

    if mod.kind == KIND_FREE and mod.rank == 1:
        try:
            verdict = is_irreducible_rank_one(mod, degree_bound=args.degree_bound)
        except UnsupportedModuleError as exc:
            certificate.add("irreducibility", cert.UNDECIDED, {"reason": str(exc)})
        else:
            payload = {
                "verdict": "IRREDUCIBLE" if verdict.irreducible else "REDUCIBLE",
                "criterion": verdict.criterion_irreducible,
                "search": verdict.search_irreducible,
                "candidates_checked": [
                    poly_str(c) for c in verdict.candidates_checked
                ],
            }
            if verdict.witness is not None:
                payload["witness"] = poly_str(verdict.witness)
            certificate.add("irreducibility", cert.PASS, payload)
    else:
        certificate.add(
            "irreducibility",
            cert.UNDECIDED,
            {"reason": "only free rank-one tables are searched"},
        )
    return certificate


def cmd_classify(args: argparse.Namespace) -> cert.Certificate:
    seed = _seed_from_env()
    try:
        if args.bn is not None:
            report = classify_bn(args.bn, degree_bound=args.D, seed=seed)
            inputs = {"bn": args.bn, "D": args.D, "seed": seed}
        else:
            report = classify_rank_one(
                args.p, top_index_bound=args.K, degree_bound=args.D, seed=seed
            )
            inputs = {"p": rat_str(args.p), "K": args.K, "D": args.D, "seed": seed}
    except ValueError as exc:
        raise InputError(str(exc)) from None
    certificate = cert.Certificate(command="classify", inputs=inputs)
    certificate.caveats = list(report.caveats)
    certificate.add(
        "classification",
        cert.PASS if not report.undecided else cert.UNDECIDED,
        {
            "algebra": report.algebra,
            "p": rat_str(report.p),
            "top_index_bound": report.top_index_bound,
            "degree_bound": report.degree_bound,
            "families": [
                {
                    "tag": fam.tag,
                    "description": fam.description,
                    "irreducible_iff": fam.irreducible_iff,
                }
                for fam in report.families
            ],
            "steps": [
                {
                    "rule": step.rule,
                    "top_index": step.top_index,
                    "polys": {
                        key: poly_str(val) for key, val in sorted(step.polys.items())
                    },
                    "conclusion": step.conclusion,
                }
                for step in report.steps
            ],
            "undecided": report.undecided,
        },
    )
    battery = report.battery
    certificate.add(
        "falsification_battery",
        cert.PASS if battery.all_violated else cert.FAIL,
        {
            "seed": battery.seed,
            "samples": battery.samples,
            "violations": battery.violations,
            "certificates": [
                {
                    "candidate": poly_str(c.candidate),
                    "witness_point": c.witness_point,
                    "residual_terms": sum(1 for _ in c.residual.terms()),
                }
                for c in battery.certificates
            ],
        },
    )
    self_check = verify_report(report)
    certificate.add(
        "self_check",
        cert.PASS if self_check else cert.FAIL,
        {"grid": "delta, alpha in {0, 1, -2, 1/2}; beta in {0, 1, -2}"},
    )
    return certificate


def _lie_payload(lie: LieReport) -> dict:
    return {
        "pairs_checked": lie.pairs_checked,
        "triples_checked": lie.triples_checked,
        "triples_excluded": lie.triples_excluded,
        "antisymmetry_failures": [
            {"pair": [x, y], "residual": cert.lincomb_payload(r)}
            for x, y, r in lie.antisymmetry_failures
        ],
        "jacobi_failures": [
            {"triple": [x, y, z], "residual": cert.lincomb_payload(r)}
            for x, y, z, r in lie.jacobi_failures
        ],
    }


def cmd_annihilation(args: argparse.Namespace) -> cert.Certificate:
    # Each mode refuses the other mode's flags rather than ignoring them.
    if args.G:
        mode = "--G"
        given = {"--idx": args.idx is not None, "--mode": args.mode is not None,
                 "--extended": args.extended}
    else:
        mode = "mode expansion"
        given = {"--k": args.k is not None, "--N": args.N is not None}
    stray = [flag for flag, present in given.items() if present]
    if stray:
        raise InputError(f"{mode} does not take {', '.join(stray)}")
    if args.G:
        if args.k is None or args.N is None:
            raise InputError("--G needs --k and --N")
        try:
            G = annihilation_subquotient(args.p, args.k, args.N)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        inputs = {"G": True, "p": rat_str(args.p), "k": args.k, "N": args.N}
        certificate = cert.Certificate(command="annihilation", inputs=inputs)
        certificate.add(
            "bracket_table",
            cert.PASS,
            {
                "algebra": G.name,
                "basis_size": len(G.basis),
                "sha256": cert.lie_table_hash(G),
            },
        )
        lie = check_lie(G)
        certificate.add(
            "lie_axioms", cert.PASS if lie.ok else cert.FAIL, _lie_payload(lie)
        )
        res = resonance_analysis(G)
        certificate.add(
            "resonance_analysis",
            cert.PASS,
            {
                "case": res.case.value,
                "resonances": [list(r) for r in res.resonances],
                "top_resonance": list(res.top_resonance)
                if res.top_resonance
                else None,
                "ideal_name": res.ideal_name,
                "ideal": list(res.ideal),
                "corner_coefficient": rat_str(res.corner_coefficient)
                if res.corner_coefficient is not None
                else None,
                "corner_internal_brackets": [
                    {"pair": [x, y], "value": cert.lincomb_payload(v)}
                    for x, y, v in res.corner_internal_brackets
                ],
            },
        )
        ideal = ideal_and_nilpotency(G, list(res.ideal))
        certificate.add(
            "ideal_structure",
            cert.PASS if ideal.is_ideal else cert.FAIL,
            {
                "ideal_name": res.ideal_name,
                "is_ideal": ideal.is_ideal,
                "abelian": ideal.abelian,
                "nilpotent": ideal.nilpotent,
                "nilpotency_class": ideal.nilpotency_class,
                "series_dims": ideal.series_dims,
            },
        )
        chars = characters(G)
        certificate.add(
            "characters",
            cert.PASS if chars.verified else cert.FAIL,
            {
                "dimension": chars.dimension,
                "derived_rank": chars.derived_rank,
                "character_dim": chars.character_dim,
                "characters": [cert.lincomb_payload(phi) for phi in chars.characters],
            },
        )
        return certificate

    if args.idx is None or args.mode is None:
        raise InputError("mode expansion needs --idx and --mode")
    try:
        base = make_block(args.p, args.idx, TruncationPolicy.TRUNCATE_TO_ZERO)
        ext = build_annihilation(base, args.idx, args.mode, extended=args.extended)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    inputs = {
        "p": rat_str(args.p),
        "idx": args.idx,
        "mode": args.mode,
        "extended": args.extended,
    }
    certificate = cert.Certificate(command="annihilation", inputs=inputs)
    certificate.add(
        "bracket_table",
        cert.PASS,
        {
            "algebra": ext.name,
            "basis_size": len(ext.basis),
            "sha256": cert.lie_table_hash(ext),
            "closed_form_cross_check": "agreed",
            "truncated_pairs": len(ext.truncated_pairs),
        },
    )
    lie = check_lie(ext)
    certificate.add(
        "lie_axioms", cert.PASS if lie.ok else cert.FAIL, _lie_payload(lie)
    )
    if args.extended:
        central = check_central(ext)
        certificate.add(
            "centrality",
            cert.PASS if central.ok else cert.FAIL,
            {
                "element": central.element,
                "checked": central.checked,
                "excluded": central.excluded,
                "failures": [
                    {"against": label, "residual": cert.lincomb_payload(r)}
                    for label, r in central.failures
                ],
            },
        )
    return certificate


def _write_whole(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a sibling file, so no partial file stays."""
    partial = f"{path}.partial"
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(partial, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify-algebra": cmd_verify_algebra,
        "verify-module": cmd_verify_module,
        "classify": cmd_classify,
        "annihilation": cmd_annihilation,
    }
    try:
        certificate = handlers[args.command](args)
    except (InputError, ParseError, WindowOverflowError) as exc:
        print(f"confal: error: {exc}", file=sys.stderr)
        return 2
    text = certificate.to_json()
    out = getattr(args, "out", None)
    if not out:
        sys.stdout.write(text)
        return certificate.exit_code
    try:
        _write_whole(out, text)
    except OSError as exc:
        reason = exc.strerror or exc
        print(f"confal: error: cannot write {out}: {reason}", file=sys.stderr)
        return 2
    return certificate.exit_code


if __name__ == "__main__":
    sys.exit(main())
