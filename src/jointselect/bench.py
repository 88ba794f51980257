"""Preference families, the loss-comparison sweep, and CSV emission.

Four parametric families drive the comparison between the optimal
construction and the baselines, for N from 3 up to 50:

    (i)   arithmetic, both players alike:   (1, 2, ..., N) / (N(N+1)/2)
    (ii)  near-geometric ratio 2, alike:    (1, 1, 2, ..., 2^(N-2)) / 2^(N-1)
    (iii) same weights, B reversed
    (iv)  geometric ratio 3, alike:         (1, 3, ..., 3^(N-1)) / ((3^N - 1)/2)

Families (i)-(iii) keep every popularity at or below 1, so the optimal
loss is exactly zero; family (iv) always overloads its last arm
(S_N = 4 * 3^(N-1) / (3^N - 1) > 1), exercising the minimum-loss branch.
Normalizers are computed in exact integer arithmetic (3^49 overflows any
fixed-width accumulation) with a single final division per weight.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .baselines import random_order, simultaneous_renormalization, uniform_random
from .core import ProblemInstance, loss, validate_instance
from .errors import InvalidArmCountError, ValidationError
from .minloss import optimal_satisfaction_matrix

FAMILIES = ("i", "ii", "iii", "iv")
METHODS = ("uniform", "renorm", "order", "optimal")
FULL_RANGE = range(3, 51)
# The largest N a sweep may reach. The renorm and order baselines build
# dense N x N arrays with a few temporaries each, and uniform N(N - 1)
# cells: at N = 1000 a sweep step peaks near 115 MB, where N = 20000 would
# ask for several 3.2 GB arrays.
MAX_N = 1000

CSV_HEADER = "family,N,method,loss"


@dataclass(frozen=True)
class BenchmarkRecord:
    family: str
    n: int
    method: str
    loss: float


def _family_numerators(family: str, n: int) -> tuple[list[int], int]:
    if family == "i":
        return list(range(1, n + 1)), n * (n + 1) // 2
    if family in ("ii", "iii"):
        return [1] + [2**k for k in range(n - 1)], 2 ** (n - 1)
    if family == "iv":
        return [3**k for k in range(n)], (3**n - 1) // 2
    raise ValidationError(f"unknown family {family!r}; choose from {FAMILIES}")


def preference_family(family: str, n: int) -> ProblemInstance:
    """Instance for one family at dimension n >= 3; exact integer normalizers."""
    if n < 3:
        raise InvalidArmCountError(f"families are defined for N >= 3, got {n}")
    numerators, denominator = _family_numerators(family, n)
    weights = [num / denominator for num in numerators]
    b = weights[::-1] if family == "iii" else weights
    return validate_instance(weights, b, 1.0)


def _method_loss(inst: ProblemInstance, method: str) -> float:
    if method == "uniform":
        return loss(uniform_random(inst.n), inst)
    if method == "renorm":
        return loss(simultaneous_renormalization(inst), inst)
    if method == "order":
        return loss(random_order(inst), inst)
    if method == "optimal":
        return optimal_satisfaction_matrix(inst).loss
    raise ValidationError(f"unknown method {method!r}; choose from {METHODS}")


def run_benchmark(
    families: Iterable[str] = FAMILIES,
    n_values: Iterable[int] = FULL_RANGE,
    methods: Iterable[str] = METHODS,
) -> list[BenchmarkRecord]:
    """Loss for every (family, N, method) cell, sorted. A cell that fails
    raises its error, which ends the sweep."""
    records = []
    for family in families:
        for n in n_values:
            inst = preference_family(family, n)
            for method in methods:
                records.append(BenchmarkRecord(family, n, method, _method_loss(inst, method)))
    records.sort(key=lambda r: (r.family, r.n, r.method))
    return records


def write_csv(records: Sequence[BenchmarkRecord], out: IO[str]) -> None:
    """family,N,method,loss rows; losses at 17 significant digits so the
    file round-trips bit-exactly."""
    out.write(CSV_HEADER + "\n")
    for r in records:
        out.write(f"{r.family},{r.n},{r.method},{r.loss:.17g}\n")


def summary_table(records: Sequence[BenchmarkRecord], out: IO[str] = sys.stderr) -> None:
    """Min/max loss per (family, method) panel, for eyeballing a sweep."""
    panels: dict[tuple[str, str], list[float]] = {}
    for r in records:
        panels.setdefault((r.family, r.method), []).append(r.loss)
    out.write(f"{'family':<8}{'method':<10}{'min loss':>14}{'max loss':>14}\n")
    for (family, method), losses in sorted(panels.items()):
        out.write(f"{family:<8}{method:<10}{min(losses):>14.6g}{max(losses):>14.6g}\n")


__all__ = [
    "BenchmarkRecord",
    "CSV_HEADER",
    "FAMILIES",
    "FULL_RANGE",
    "MAX_N",
    "METHODS",
    "preference_family",
    "run_benchmark",
    "summary_table",
    "write_csv",
]
