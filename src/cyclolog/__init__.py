"""Exact fixed-precision arithmetic for Z_p[pi] with pi^(p-1) = -p, the
p-adic logarithm and exponential on principal units, constructive log
preimages on the unit annulus, and exhaustive verifiers.

Every name in __all__ that this module does not import is one of
cyclolog.verify's, looked up there when asked for, so importing the package,
or running any cli command but verify, never loads the verifier.
"""

from .errors import (
    DEFAULT_CAP,
    BranchZero,
    CapExceeded,
    ContextMismatch,
    CyclologError,
    DigitStringError,
    NotAUnit,
    NotDivisible,
    NotInMSquared,
    NotPrincipalUnit,
    ValuationTooSmall,
)
from .ring import Context, PiElement, PrincipalUnit, format_digits, normalize, parse_digits
from .series import SeriesBudget, fermat_digit_check, log_digit_formula, pexp, plog
from .preimage import (
    digit2_for_branch,
    preimage,
    preimage_all,
    qr_pair_enumeration,
    roots_of_unity,
)

__version__ = "0.1.0"

__all__ = [
    "BranchZero",
    "CapExceeded",
    "CheckResult",
    "Context",
    "ContextMismatch",
    "CyclologError",
    "DEFAULT_CAP",
    "DigitStringError",
    "NotAUnit",
    "NotDivisible",
    "NotInMSquared",
    "NotPrincipalUnit",
    "PiElement",
    "PrincipalUnit",
    "SeriesBudget",
    "ValuationTooSmall",
    "VerificationReport",
    "check_annulus_image",
    "check_full_image_and_index",
    "check_residue_field",
    "check_square_iso",
    "digit2_for_branch",
    "fermat_digit_check",
    "format_digits",
    "log_digit_formula",
    "normalize",
    "parse_digits",
    "pexp",
    "plog",
    "preimage",
    "preimage_all",
    "qr_pair_enumeration",
    "roots_of_unity",
    "run_all",
]


def __getattr__(name):
    # Reached only for names not bound here: "verify", and the __all__ names
    # that live in verify.  Looked up there on every call and never stored: a
    # stored function would keep whatever verify held at the first lookup,
    # such as a wrapper a tracer has since taken away.
    if name == "verify" or name in __all__:
        import importlib

        verify = importlib.import_module(".verify", __name__)
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | {*__all__, "verify"})
