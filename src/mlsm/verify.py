"""Multilayer stability checking for all eleven notions.

A query combines a base notion (weak/strong/super) with an aggregation:
all-layers, alpha-global, alpha-pair, or alpha-individual.  There is no
strong-individual notion.  All-layers is canonicalized to global(ell).
"""

from __future__ import annotations

from .blocking import (
    BASES,
    Matching,
    _least_violation,
    block_mask,
    layer_set,
    require_ids,
    stable_layers,
    support_mask,
)
from .errors import AlphaOutOfRange, InvalidQuery
from .model import MultilayerInstance, _Value

__all__ = [
    "AGGREGATIONS",
    "StabilityQuery",
    "Verdict",
    "check",
    "all_queries",
]

AGGREGATIONS = ("all", "global", "pair", "individual")


class StabilityQuery(_Value):
    """base x aggregation x degree.  ``alpha`` must be None for "all"."""

    base: str
    agg: str
    alpha: int | None

    _fields = ("base", "agg", "alpha")

    def __init__(self, base: str, agg: str, alpha: int | None = None):
        if base not in BASES:
            raise InvalidQuery(f"unknown base {base!r}")
        if agg not in AGGREGATIONS:
            raise InvalidQuery(f"unknown aggregation {agg!r}")
        if base == "strong" and agg == "individual":
            raise InvalidQuery("there is no strong individual stability")
        if agg == "all":
            if alpha is not None:
                raise InvalidQuery("all-layers takes no alpha")
        elif alpha is None:
            raise InvalidQuery(f"{agg} aggregation requires alpha")
        self.__dict__.update(base=base, agg=agg, alpha=alpha)

    def effective_alpha(self, ell: int) -> int:
        """Resolve the degree against an instance, validating the range."""
        if self.agg == "all":
            return ell
        assert self.alpha is not None
        if not 1 <= self.alpha <= ell:
            raise AlphaOutOfRange(f"alpha={self.alpha} outside [1, {ell}]")
        return self.alpha

    def describe(self) -> str:
        if self.agg == "all":
            return f"all-layers {self.base}"
        return f"{self.alpha}-{self.agg} {self.base}"


class Verdict(_Value):
    """Outcome plus a machine-checkable witness.

    For global aggregations ``witness_layers`` is the full set of stable
    layers (even when too small).  For pair/individual aggregations an
    unstable verdict names the lexicographically least violating pair, the
    layers in which it blocks, and (individual only) the two per-agent
    support counts.
    """

    stable: bool
    query: StabilityQuery
    witness_layers: frozenset[int] | None
    violating_pair: tuple[int, int] | None
    blocking_layers: frozenset[int] | None
    supports: tuple[int, int] | None

    _fields = ("stable", "query", "witness_layers", "violating_pair", "blocking_layers", "supports")

    def __init__(
        self,
        stable: bool,
        query: StabilityQuery,
        witness_layers: frozenset[int] | None = None,
        violating_pair: tuple[int, int] | None = None,
        blocking_layers: frozenset[int] | None = None,
        supports: tuple[int, int] | None = None,
    ):
        self.__dict__.update(stable=stable, query=query, witness_layers=witness_layers,
                             violating_pair=violating_pair, blocking_layers=blocking_layers, supports=supports)


def _violation(q: StabilityQuery, ell: int):
    """For a pair or individual query, the test ``violates(sa, sb, ha, hb)``
    that an unmatched pair breaks it (ell-bit masks as in ``block_mask``)."""
    alpha = q.effective_alpha(ell)
    full = (1 << ell) - 1
    base = q.base
    if q.agg == "pair":
        slack = ell - alpha  # the most layers a complying pair blocks

        def violates(sa, sb, ha, hb):
            return block_mask(base, sa, sb, ha, hb, full).bit_count() > slack

    else:

        def violates(sa, sb, ha, hb):
            return max(
                support_mask(base, sa, ha, full).bit_count(),
                support_mask(base, sb, hb, full).bit_count(),
            ) < alpha

    return violates


def check(inst: MultilayerInstance, m: Matching, q: StabilityQuery) -> Verdict:
    """Decide whether the matching satisfies the queried stability notion."""
    alpha = q.effective_alpha(inst.ell)
    require_ids(inst, m._partner)
    if q.agg in ("all", "global"):
        layers = stable_layers(inst, m, q.base)
        return Verdict(len(layers) >= alpha, q, witness_layers=layers)
    full = (1 << inst.ell) - 1
    base = q.base
    found = _least_violation(inst, m, base, _violation(q, inst.ell))
    if found is None:
        return Verdict(True, q)
    a, b, sa, sb, ha, hb = found
    blocked = layer_set(block_mask(base, sa, sb, ha, hb, full))
    if q.agg == "pair":
        return Verdict(False, q, violating_pair=(a, b), blocking_layers=blocked)
    supports = (
        support_mask(base, sa, ha, full).bit_count(),
        support_mask(base, sb, hb, full).bit_count(),
    )
    return Verdict(False, q, violating_pair=(a, b), blocking_layers=blocked, supports=supports)


def all_queries(ell: int) -> list[StabilityQuery]:
    """Every valid query against an instance with ``ell`` layers."""
    out = []
    for base in BASES:
        out.append(StabilityQuery(base, "all"))
        for agg in ("global", "pair", "individual"):
            if base == "strong" and agg == "individual":
                continue
            for alpha in range(1, ell + 1):
                out.append(StabilityQuery(base, agg, alpha))
    return out
