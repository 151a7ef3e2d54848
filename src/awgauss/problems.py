"""Problem-file parsing and result-document serialization.

A problem is a single human-writable JSON document::

    {
      "mu": {"mean": [0, 0], "cov": [[1, 2], [2, 5]]},
      "nu": {"mean": [0, 0], "chol": [[1, 0], [-2, 1]]},
      "rho": [-1, 1]  # optional
    }

Either ``cov`` or ``chol`` (lower-triangular factor) may be given; the factor
takes precedence and is validated.  Unknown keys are ignored, so result
documents that echo their inputs can be fed back in as problems.

Structural issues (missing keys, ragged rows, non-numeric data) raise
:class:`ProblemFormatError`; violations of mathematical invariants raise the
library's domain errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch
from .linalg import GaussianSpec, check_same_dim


class ProblemFormatError(Exception):
    """The problem document is structurally malformed."""


@dataclass(frozen=True, eq=False)
class Problem:
    mu: GaussianSpec
    nu: GaussianSpec
    rho: np.ndarray | None = None


def _numeric_array(value, *, ndim: int, where: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{where}: expected a numeric array: {exc}") from exc
    if arr.ndim != ndim:
        raise ProblemFormatError(
            f"{where}: expected a {ndim}-dimensional array, got shape {arr.shape}"
        )
    return arr


def parse_gaussian(obj, *, where: str) -> GaussianSpec:
    """Parse one ``{"mean": ..., "cov"|"chol": ...}`` object."""
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{where}: expected an object with 'mean' and 'cov'")
    if "mean" not in obj:
        raise ProblemFormatError(f"{where}: missing 'mean'")
    mean = _numeric_array(obj["mean"], ndim=1, where=f"{where}.mean")
    if "chol" in obj:
        factor = _numeric_array(obj["chol"], ndim=2, where=f"{where}.chol")
        return GaussianSpec.from_cholesky(mean, factor)
    if "cov" in obj:
        cov = _numeric_array(obj["cov"], ndim=2, where=f"{where}.cov")
        return GaussianSpec(mean, cov)
    raise ProblemFormatError(f"{where}: needs either 'cov' or 'chol'")


def parse_problem(doc) -> Problem:
    """Parse a problem document (a dict) into validated library objects."""
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    for key in ("mu", "nu"):
        if key not in doc:
            raise ProblemFormatError(f"problem document missing '{key}'")
    mu = parse_gaussian(doc["mu"], where="mu")
    nu = parse_gaussian(doc["nu"], where="nu")
    check_same_dim(mu, nu)
    rho = None
    if doc.get("rho") is not None:
        rho = _numeric_array(doc["rho"], ndim=1, where="rho")
        if rho.shape[0] != mu.dim:
            raise DimensionMismatch(f"rho has length {rho.shape[0]}, expected {mu.dim}")
    return Problem(mu=mu, nu=nu, rho=rho)


def load_problem(path) -> Problem:
    """Load and parse a problem file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFormatError(f"{path}: cannot read the problem file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: invalid JSON: {exc}") from exc
    return parse_problem(doc)


def gaussian_doc(spec: GaussianSpec) -> dict:
    """Serialize a Gaussian law for result documents (full precision)."""
    return {"mean": spec.mean.tolist(), "cov": spec.cov.tolist()}


def problem_echo(mu: GaussianSpec, nu: GaussianSpec) -> dict:
    """Input echo included in result documents; makes them re-readable as problems."""
    return {"mu": gaussian_doc(mu), "nu": gaussian_doc(nu)}
