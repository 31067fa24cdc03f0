"""Independent correctness checks on the program's outputs.

The spectral radius comes from LAPACK (`numpy.linalg.eigvalsh`) on an
adjacency matrix built here from the edge set, never from the program's own
eigensolver. Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

RHO_REL_TOL = 1e-8
SANDWICH_REL_TOL = 1e-7


def spectral_radius(n: int, edges) -> float:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return max(0.0, float(np.linalg.eigvalsh(a)[-1]))


def _tol(rho: float, rel: float) -> float:
    return rel * max(1.0, rho)


def _sandwich(best_lower: Optional[float], best_upper: Optional[float], rho: float) -> list[str]:
    """lower <= rho + tol <= upper + 2 tol."""
    tol = _tol(rho, SANDWICH_REL_TOL)
    problems = []
    if best_lower is not None and best_lower > rho + tol:
        problems.append(f"lower bound {best_lower!r} above rho {rho!r}")
    if best_upper is not None and rho + tol > best_upper + 2 * tol:
        problems.append(f"upper bound {best_upper!r} below rho {rho!r}")
    return problems


def _rho_agrees(reported: float, rho: float) -> list[str]:
    if abs(reported - rho) > _tol(rho, RHO_REL_TOL):
        return [f"reported rho {reported!r} differs from LAPACK rho {rho!r}"]
    return []


def bound_fields(result) -> dict:
    """The fields of a program `BoundResult` that a JSON report carries."""
    return {"kind": result.kind, "applicable": result.applicable, "value": result.value,
            "oracle_assisted": result.oracle_assisted}


def best_bounds(bounds: list[dict]) -> tuple[Optional[float], Optional[float]]:
    """Highest lower and lowest upper bound that is applicable and not
    oracle-assisted.

    An oracle-assisted bound takes eigenvector data from the program's own
    eigensolver and can sit at rho itself; it would hide how tight the
    moment bounds are.
    """
    usable = [b for b in bounds if b["applicable"] and not b["oracle_assisted"]
              and b["value"] is not None and math.isfinite(b["value"])]
    lowers = [b["value"] for b in usable if b["kind"] == "lower"]
    uppers = [b["value"] for b in usable if b["kind"] == "upper"]
    return (max(lowers) if lowers else None), (min(uppers) if uppers else None)


def check_report(doc: dict, n: int, e: int, rho: float) -> list[str]:
    """A parsed `swb bounds --format json` report against the input graph."""
    problems = []
    if (doc["graph"]["n"], doc["graph"]["e"]) != (n, e):
        problems.append(f"report describes n={doc['graph']['n']} e={doc['graph']['e']}")
    problems += _rho_agrees(float(doc["rho_exact"]), rho)
    for b in doc["bounds"]:
        if not b["applicable"] or b["value"] is None:
            continue
        if b["kind"] == "lower":
            found = _sandwich(b["value"], None, rho)
        else:
            found = _sandwich(None, b["value"], rho)
        problems += [f"{b['name']} {b['params']}: {p}" for p in found]
    return problems


def verification_bounds(outcome, program_rho: float) -> tuple[Optional[float], Optional[float]]:
    """Best lower and upper bound implied by a VerificationOutcome's margins."""
    lower = upper = None
    if math.isfinite(outcome.worst_lower_margin):
        lower = program_rho + outcome.worst_lower_margin
    if math.isfinite(outcome.worst_upper_margin):
        upper = program_rho - outcome.worst_upper_margin
    return lower, upper


def check_verification(outcome, program_rho: float, rho: float) -> list[str]:
    """A one-graph `run_verification` outcome: no violations, sound margins."""
    problems = [f"violation: {v}" for v in outcome.violations]
    problems += _rho_agrees(program_rho, rho)
    problems += _sandwich(*verification_bounds(outcome, program_rho), rho)
    return problems


def gaps(best_lower: Optional[float], best_upper: Optional[float],
         rho: float) -> tuple[Optional[float], Optional[float]]:
    """Relative gaps (rho - lower)/rho and (upper - rho)/rho; None if undefined."""
    if rho <= 0.0:
        return None, None
    lower = None if best_lower is None else (rho - best_lower) / rho
    upper = None if best_upper is None else (best_upper - rho) / rho
    return lower, upper
