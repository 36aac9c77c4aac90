"""Explicit constants for an effective Chebotarev density theorem.

The package computes every constant of the explicit error bound on the
prime-power counting function psi_C(x) of a normal extension L/Q: the
zero-counting coefficients of the Dedekind zeta function, the smoothing-
weight transform bounds, the incomplete-Bessel tail constants, the
assembled theorem constants, and the absolute-constant corollaries.  It
regenerates the published constant tables, evaluates the bounds for user
fields, and verifies psi_C(x) exactly for quadratic extensions.
"""

import importlib as _importlib

__version__ = "0.1.0"

# Public names by the submodule that defines them.  A submodule is imported
# on first access to it or to one of its names (PEP 562), so `import
# chebotarev` itself loads none of them, and numpy only with the first
# module that computes with it.
_EXPORTS = {
    "assembly": (
        "BoundForm", "BoundReport", "ClassicalBranch", "ClassicalConstants", "FinalConstants",
        "bound_eval", "choose_delta0", "classical_constants", "corollary_constants", "curly_N0",
        "diff_table", "final_constants", "generate_table", "standard_config",
    ),
    "bessel": ("BesselArgs", "RegimeThreshold", "bessel_I", "bessel_K", "k2_upper_bound"),
    "constants": ("EllConstants", "TuningConfig", "compute_ells", "ell6", "ell7", "ell_low", "y0",
                  "y0_terms"),
    "errors": ("DomainError", "NumericError", "PoleError", "ResourceError", "SearchError"),
    "invariants": ("MINKOWSKI_TABLE", "FieldParams", "MinkowskiRow", "lambda_0", "lambda_L",
                   "minkowski_lookup"),
    "reference_values": (),
    "smoothing": ("Endpoint", "SmoothingParams", "m_bound", "mellin_H", "weight_g", "weight_h"),
    "verifier": ("ClassCount", "ConjugacyClass", "QuadraticField", "equidist_report",
                 "is_fundamental_discriminant", "kronecker", "psi_C_exact"),
    "zeros": ("ALPHA1", "ALPHA2", "ALPHA3", "R1", "R2", "P_E_L", "Q_kernel",
              "Q_kernel_partial_u", "alpha0", "alpha0_prime", "c123", "solve_omega0",
              "solve_t0", "window_coeffs"),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SUBMODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _importlib.import_module(f".{name}", __name__)
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
