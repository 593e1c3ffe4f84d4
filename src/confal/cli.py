"""Command-line front end emitting JSON certificates.

Subcommands: ``verify-algebra``, ``verify-module``, ``classify``,
``annihilation``.  Each one parses its arguments, builds its inputs, runs
the checkers in order and adds each report's own payload (``to_payload``) to
the certificate.  Exit codes: 0 when every check passed, 1 when any check
failed, 2 with one line on stderr for an argparse usage error, for any
``ValueError`` a stage raises, or when the certificate cannot be written
(to stdout, or to an ``--out`` path that is not a regular file or cannot
be replaced; a symbolic link is written through to its target).  Every
refusal of an input is a ``ValueError`` (``ParseError``,
``UnsupportedAlgebraError``, ``UnsupportedModuleError`` and
``WindowOverflowError`` included), and :func:`main` is the one place that
turns it into exit 2; a cross-check disagreement is a ``RuntimeError``,
recorded as a FAIL.  A size flag
(``--window``, ``--n``, ``--bn``, ``--K``, ``--D``, ``--degree-bound``,
``--idx``, ``--mode``, ``--k``, ``--N``) above
:data:`confal.poly.MAX_INPUT_SIZE` is a usage error, and so is an
``annihilation`` window or subquotient of more than
:data:`confal.annihilation.MAX_BASIS_SIZE` basis labels.  So is an empty
``--out``, and a number longer than :data:`confal.poly.MAX_LITERAL_DIGITS`,
on the command line or in a file.  The
falsification battery of ``classify`` draws from the fixed seed
:data:`confal.classify.BATTERY_SEED`, so a certificate's bytes depend on
the arguments and the input files alone.

This module imports only the standard library; each subcommand imports the
stages it runs when it runs them, so a launch loads only its subcommand's
modules.  Records are named tuples, so no launch imports the standard
library's record generator or the ``inspect`` it pulls in, and only the
subcommands that hash a table (``verify-algebra``, ``annihilation``) import
``hashlib``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from typing import TYPE_CHECKING, Iterator, NoReturn

if TYPE_CHECKING:
    from fractions import Fraction

    from .certificates import Certificate
    from .conformal import ConformalAlgebra
    from .modules import ConformalModule

def _rat_arg(text: str) -> Fraction:
    from .poly import ParseError, parse_rat

    try:
        return parse_rat(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _size_arg(text: str) -> int:
    from .poly import MAX_INPUT_SIZE, quote

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quote(text)}") from None
    if value > MAX_INPUT_SIZE:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_INPUT_SIZE}, got {value}")
    return value


def _positive_int_arg(text: str) -> int:
    value = _size_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _out_arg(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must be a path, got ''")
    return text


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are one short line on stderr and exit 2.

    argparse quotes a bad value whole, so the message is elided past twice
    :data:`confal.poly.MAX_QUOTE` characters.  Every negative rational that
    :func:`confal.poly.parse_rat` reads, such as ``-2/3`` or ``-1e0``, is
    read as a value, as argparse already reads ``-1`` and ``-0.5``, so
    ``--p -2/3`` needs no ``=``.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # "-" and then what ``Fraction`` reads: an integer over an optional
        # denominator, or a decimal with an optional exponent.
        n = r"\d+(_\d+)*"
        self._negative_number_matcher = re.compile(
            rf"-({n}(\s*/\s*{n})?|({n}(\.({n})?)?|\.{n})(e[-+]?{n})?)\s*$", re.IGNORECASE)

    def error(self, message: str) -> NoReturn:
        from .poly import MAX_QUOTE, elide

        self.exit(2, f"{self.prog}: error: {elide(message, 2 * MAX_QUOTE)}\n")


def build_parser() -> argparse.ArgumentParser:
    from .poly import MAX_INPUT_SIZE

    parser = _Parser(
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
        p.add_argument("--window", type=_size_arg, help="generator window for --alg block")
        p.add_argument("--n", type=_size_arg, help="quotient size for --alg bn")
        p.add_argument("--file", help="algebra JSON file for --alg file")
        p.add_argument(
            "--policy",
            choices=["error", "truncate"],
            help="window policy for --alg block (default truncate)",
        )

    pa = sub.add_parser("verify-algebra", help="run the bracket axiom checkers")
    add_algebra_flags(pa)
    pa.add_argument("--out", type=_out_arg, help="write the certificate to this path")

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
        help="degree bound for the invariant-span search, 1 to "
        f"{MAX_INPUT_SIZE} (default 3)",
    )
    pm.add_argument("--out", type=_out_arg, help="write the certificate to this path")

    pc = sub.add_parser("classify", help="replay the rank-one classification")
    group = pc.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=_rat_arg, help="family parameter")
    group.add_argument("--bn", type=_size_arg, help="classify over the quotient b(n)")
    pc.add_argument("--K", type=_size_arg, help="top index bound for --p (default 6)")
    pc.add_argument("--D", type=_size_arg, default=6, help="degree bound (default 6)")
    pc.add_argument("--out", type=_out_arg, help="write the certificate to this path")

    pn = sub.add_parser(
        "annihilation", help="build mode algebras and their analyses"
    )
    pn.add_argument("--p", type=_rat_arg, required=True, help="family parameter")
    pn.add_argument("--idx", type=_size_arg, help="index window (mode expansion)")
    pn.add_argument("--mode", type=_size_arg, help="mode window (mode expansion)")
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
    pn.add_argument("--k", type=_size_arg, help="index cap for --G")
    pn.add_argument("--N", type=_size_arg, help="mode cap for --G")
    pn.add_argument("--out", type=_out_arg, help="write the certificate to this path")
    return parser


# -- builders -------------------------------------------------------------------


#: The ``--alg`` selectors that take no flag, and the ``confal.conformal``
#: function that makes each one.
_FIXED_ALGEBRAS = {
    "hv": "make_heisenberg_virasoro", "hv-misprint": "make_heisenberg_virasoro_misprint",
    "sv": "make_schrodinger_virasoro", "vir": "make_virasoro",
}

#: The selector flags each ``--alg`` takes (``file:<path>`` takes none); any
#: other one given is refused rather than ignored.
_SELECTOR_FLAGS = {
    "block": ("p", "window", "policy"), "bn": ("n",), "file": ("file",),
    **dict.fromkeys(_FIXED_ALGEBRAS, ()),
}


def _refuse_stray(subject: str, given: dict[str, bool]) -> None:
    """Refuse each flag in ``given`` that is present, rather than ignore it."""
    stray = [flag for flag, present in given.items() if present]
    if stray:
        raise ValueError(f"{subject} does not take {', '.join(stray)}")


def _algebra_from_args(args: argparse.Namespace) -> tuple[ConformalAlgebra, dict]:
    from . import conformal
    from .conformal import TruncationPolicy, make_block, make_bn
    from .poly import elide, quote

    selector = args.alg
    if selector in _SELECTOR_FLAGS or selector.startswith("file:"):
        takes = _SELECTOR_FLAGS.get(selector, ())
        _refuse_stray(f"--alg {elide(selector)}", {
            f"--{flag}": getattr(args, flag) is not None and flag not in takes
            for flag in ("p", "window", "n", "file", "policy")})
    path = args.file
    if selector.startswith("file:"):
        selector, path = "file", selector.split(":", 1)[1]
    inputs: dict = {"alg": selector}
    if selector == "block":
        if args.p is None or args.window is None:
            raise ValueError("--alg block needs --p and --window")
        policy = TruncationPolicy(args.policy or "truncate")
        alg = make_block(args.p, args.window, policy)
        inputs.update(p=str(args.p), window=args.window, policy=policy.value)
    elif selector == "bn":
        if args.n is None:
            raise ValueError("--alg bn needs --n")
        alg = make_bn(args.n)
        inputs.update(n=args.n)
    elif selector in _FIXED_ALGEBRAS:
        alg = getattr(conformal, _FIXED_ALGEBRAS[selector])()
    elif selector == "file":
        if not path:
            raise ValueError("--alg file needs --file <path>")
        from .serialize import algebra_from_dict, load_json

        alg = algebra_from_dict(load_json(path))
        inputs.update(file=path)
    else:
        raise ValueError(f"unknown algebra selector {quote(selector)}")
    return alg, inputs


def _module_from_args(
    args: argparse.Namespace, alg: ConformalAlgebra
) -> tuple[ConformalModule, dict]:
    from .modules import rank_one_module, trivial_module
    from .poly import parse_rat, quote

    selector = args.mod
    parts = selector.split(":")
    try:
        if (parts[0], len(parts)) in (("M", 3), ("Mb", 4)):
            mod = rank_one_module(alg, *map(parse_rat, parts[1:]))
            return mod, {"mod": selector}
        if parts[0] == "trivial" and len(parts) == 2:
            return trivial_module(parse_rat(parts[1])), {"mod": selector}
        if parts[0] == "file" and len(parts) >= 2:
            from .serialize import load_json, module_from_dict

            path = selector.split(":", 1)[1]
            return module_from_dict(load_json(path)), {"mod": "file", "file": path}
    except ValueError as exc:
        raise ValueError(f"bad module selector {quote(selector)}: {exc}") from None
    raise ValueError(f"bad module selector {quote(selector)}")


# -- subcommands ------------------------------------------------------------------


def _algebra_results(alg: ConformalAlgebra, certificate: Certificate) -> None:
    from .conformal import check_jacobi, check_skew

    skew = check_skew(alg)
    certificate.check("skew_symmetry", skew.ok, skew.to_payload())
    jac = check_jacobi(alg)
    certificate.check("jacobi_identity", jac.ok, jac.to_payload())


def cmd_verify_algebra(args: argparse.Namespace) -> Certificate:
    from . import certificates as cert

    alg, inputs = _algebra_from_args(args)
    certificate = cert.Certificate(command="verify-algebra", inputs=inputs)
    certificate.add("structure_table", cert.PASS, cert.structure_table(alg))
    _algebra_results(alg, certificate)
    return certificate


def cmd_verify_module(args: argparse.Namespace) -> Certificate:
    from . import certificates as cert
    from .modules import UnsupportedModuleError, check_module, is_irreducible_rank_one

    alg, inputs = _algebra_from_args(args)
    mod, mod_inputs = _module_from_args(args, alg)
    inputs = {**inputs, **mod_inputs, "degree_bound": args.degree_bound}
    report = check_module(alg, mod)
    certificate = cert.Certificate(command="verify-module", inputs=inputs)
    _algebra_results(alg, certificate)
    certificate.check("module_identity", report.ok, report.to_payload())
    try:
        verdict = is_irreducible_rank_one(mod, degree_bound=args.degree_bound)
    except UnsupportedModuleError as exc:
        certificate.add("irreducibility", cert.UNDECIDED, {"reason": str(exc)})
    else:
        certificate.check("irreducibility", verdict.agreed, verdict.to_payload())
    return certificate


def cmd_classify(args: argparse.Namespace) -> Certificate:
    from . import certificates as cert
    from .classify import (
        BATTERY_SEED,
        SELF_CHECK_GRID,
        classify_bn,
        classify_rank_one,
        verify_report,
    )

    if args.bn is not None:
        _refuse_stray("--bn", {"--K": args.K is not None})
    if args.bn is not None:
        report = classify_bn(args.bn, degree_bound=args.D)
        inputs = {"bn": args.bn, "D": args.D, "seed": BATTERY_SEED}
    else:
        top = 6 if args.K is None else args.K
        report = classify_rank_one(args.p, top_index_bound=top, degree_bound=args.D)
        inputs = {"p": str(args.p), "K": top, "D": args.D, "seed": BATTERY_SEED}
    certificate = cert.Certificate(command="classify", inputs=inputs)
    certificate.caveats = list(report.caveats)
    status = cert.UNDECIDED if report.undecided else cert.PASS
    certificate.add("classification", status, report.to_payload())
    battery = report.battery
    certificate.check("falsification_battery", battery.all_violated, battery.to_payload())
    certificate.check("self_check", verify_report(report), {"grid": SELF_CHECK_GRID})
    return certificate


def cmd_annihilation(args: argparse.Namespace) -> Certificate:
    from . import certificates as cert
    from .annihilation import (
        ClosedFormMismatchError,
        annihilation_subquotient,
        build_annihilation,
        characters,
        check_central,
        check_lie,
        ideal_and_nilpotency,
        resonance_analysis,
    )
    from .conformal import TruncationPolicy, make_block

    # Each mode refuses the other mode's flags rather than ignoring them.
    if args.G:
        mode, needs = "--G", "--k and --N"
        given = {"--idx": args.idx is not None, "--mode": args.mode is not None,
                 "--extended": args.extended}
        missing = args.k is None or args.N is None
    else:
        mode, needs = "mode expansion", "--idx and --mode"
        given = {"--k": args.k is not None, "--N": args.N is not None}
        missing = args.idx is None or args.mode is None
    _refuse_stray(mode, given)
    if missing:
        raise ValueError(f"{mode} needs {needs}")
    inputs = ({"G": True, "p": str(args.p), "k": args.k, "N": args.N} if args.G else
              {"p": str(args.p), "idx": args.idx, "mode": args.mode, "extended": args.extended})
    certificate = cert.Certificate(command="annihilation", inputs=inputs)
    try:
        if args.G:
            alg = annihilation_subquotient(args.p, args.k, args.N)
        else:
            base = make_block(args.p, args.idx, TruncationPolicy.TRUNCATE_TO_ZERO)
            alg = build_annihilation(base, args.idx, args.mode, extended=args.extended)
    except ClosedFormMismatchError as exc:
        certificate.add("bracket_table", cert.FAIL, {
            "algebra": exc.algebra, "closed_form_cross_check": "disagreed",
            "pairs": [list(pair) for pair in exc.pairs[:5]]})
        return certificate
    certificate.add("bracket_table", cert.PASS, cert.bracket_table(alg, expanded=not args.G))
    lie = check_lie(alg)
    certificate.check("lie_axioms", lie.ok, lie.to_payload())
    if args.G:
        res = resonance_analysis(alg)
        certificate.add("resonance_analysis", cert.PASS, res.to_payload())
        ideal = ideal_and_nilpotency(alg, list(res.ideal))
        certificate.check("ideal_structure", ideal.is_ideal, ideal.to_payload(res.ideal_name))
        chars = characters(alg)
        certificate.add("characters", cert.PASS, chars.to_payload())
    elif args.extended:
        central = check_central(alg)
        certificate.check("centrality", central.ok, central.to_payload())
    return certificate


def _write_whole(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a sibling file, so no partial file stays.

    A symbolic link is written through: its target is replaced and the link
    stays.  An existing ``path`` that is not a regular file (a directory, a
    FIFO, a device) is refused, not replaced.
    """
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError("not a regular file")
    partial = f"{path}.partial"
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(partial, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise


@contextlib.contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    """Lift Python's limit on ``int``/``str`` conversion inside the block.

    Every reader checks each number it converts against
    :data:`confal.poly.MAX_LITERAL_DIGITS` on the text, so the limit guards
    no input.  It would only refuse output: a residual's denominator is an
    lcm over many coefficients, which no bound on the inputs keeps under
    4,300 digits, and a certificate records it exactly.  Python 3.10 before
    3.10.7 has no limit to lift.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


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
        with _unlimited_int_digits():
            certificate = handlers[args.command](args)
            text = certificate.to_json()
    except ValueError as exc:
        print(f"confal: error: {exc}", file=sys.stderr)
        return 2
    out = getattr(args, "out", None)
    try:
        if out is not None:
            _write_whole(out, text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        from .poly import quote

        target = "the certificate" if out is None else quote(out)
        print(f"confal: error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return certificate.exit_code


if __name__ == "__main__":
    sys.exit(main())
