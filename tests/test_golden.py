"""Golden certificates: frozen CLI output that every change must reproduce.

Each case is one command line, its exit code, and the certificate bytes in
``tests/golden/<name>.json``.  Between them the cases cover every
subcommand, every resonance case of the subquotient analysis, the extended
mode window with truncated pairs, and the FAIL paths (``hv-misprint`` and a
beta module at ``p != -1``).  A change that alters a certificate on purpose
must say why and rewrite the files with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from confal.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "annihilation_G_half_6_10": (["annihilation", "--p", "1/2", "--G", "--k", "6", "--N", "10"], 0),
    "annihilation_G_two_thirds_4_7": (["annihilation", "--p", "2/3", "--G", "--k", "4", "--N", "7"], 0),
    "annihilation_G_three_fifths_3_5": (["annihilation", "--p", "3/5", "--G", "--k", "3", "--N", "5"], 0),
    "annihilation_G_minus_half_3_4": (["annihilation", "--p=-1/2", "--G", "--k", "3", "--N", "4"], 0),
    "annihilation_G_seven_elevenths_3_4": (["annihilation", "--p", "7/11", "--G", "--k", "3", "--N", "4"], 0),
    "annihilation_window_10_10_extended": (["annihilation", "--p", "1", "--idx", "10", "--mode", "10", "--extended"], 0),
    "annihilation_window_third_3_3": (["annihilation", "--p", "1/3", "--idx", "3", "--mode", "3"], 0),
    "classify_p_minus_one": (["classify", "--p=-1"], 0),
    "classify_bn_3": (["classify", "--bn", "3"], 0),
    "classify_bn_1": (["classify", "--bn", "1"], 0),
    "verify_module_M": (["verify-module", "--alg", "block", "--p", "1", "--window", "4", "--mod", "M:1/2:1"], 0),
    "verify_module_Mb_fails": (["verify-module", "--alg", "block", "--p", "2", "--window", "3", "--mod", "Mb:1:1:1"], 1),
    "verify_module_Mb_beta_zero": (["verify-module", "--alg", "block", "--p=-1", "--window", "3", "--mod", "Mb:0:1:0"], 0),
    "verify_module_Mb_minus_one": (["verify-module", "--alg", "block", "--p=-1", "--window", "3", "--mod", "Mb:1:0:2"], 0),
    "verify_module_M_reducible": (["verify-module", "--alg", "block", "--p", "1", "--window", "3", "--mod", "M:0:1"], 0),
    "verify_module_trivial": (["verify-module", "--alg", "block", "--p", "1", "--window", "3", "--mod", "trivial:1/2"], 0),
    "verify_algebra_hv_misprint": (["verify-algebra", "--alg", "hv-misprint"], 1),
    "verify_algebra_block_half_6": (["verify-algebra", "--alg", "block", "--p", "1/2", "--window", "6"], 0),
    "verify_algebra_vir": (["verify-algebra", "--alg", "vir"], 0),
    "verify_module_bn_3_M": (["verify-module", "--alg", "bn", "--n", "3", "--mod", "M:1/3:2"], 0),
}


def render(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_matches_golden_bytes(name):
    argv, expected_code = CASES[name]
    code, text = render(argv)
    assert code == expected_code
    assert text == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, expected_code) in sorted(CASES.items()):
        code, text = render(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
