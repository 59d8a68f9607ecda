"""Multilayer stability checking for all eleven notions.

A query combines a base notion (weak/strong/super) with an aggregation:
all-layers, alpha-global, alpha-pair, or alpha-individual.  There is no
strong-individual notion.  All-layers is canonicalized to global(ell).
"""

from __future__ import annotations

from .blocking import (
    BASES,
    Matching,
    _blocked,
    _least_violation,
    block_mask,
    layer_set,
    require_ids,
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


def _require_alpha(alpha, ell: int | None = None) -> None:
    """The alpha rule: an ``int`` (bool is none), within [1, ell] once the
    instance's ``ell`` is known."""
    if type(alpha) is not int:
        raise InvalidQuery(f"alpha must be an int, got {alpha!r}")
    if ell is not None and not 1 <= alpha <= ell:
        raise AlphaOutOfRange(f"alpha={alpha} outside [1, {ell}]")


class StabilityQuery(_Value):
    """base x aggregation x degree.  ``alpha`` must be None for "all", else
    an ``int``."""

    base: str
    agg: str
    alpha: int | None

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
        else:
            _require_alpha(alpha)
        self.__dict__.update(base=base, agg=agg, alpha=alpha)

    def effective_alpha(self, ell: int) -> int:
        """Resolve the degree against an instance, validating the range."""
        if self.agg == "all":
            return ell
        _require_alpha(self.alpha, ell)
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
    witness_layers: frozenset[int] | None = None
    violating_pair: tuple[int, int] | None = None
    blocking_layers: frozenset[int] | None = None
    supports: tuple[int, int] | None = None


def _pair_cost(q: StabilityQuery, ell: int):
    """Query q's cost ``cost(sa, sb, ha, hb)`` of an unmatched pair (masks
    as in ``block_mask``), an ell-bit mask: under all-layers and global the
    pair's blocked layers, under pair and individual every layer if the
    pair violates q, else 0.  A matching satisfies q exactly when the OR of
    its unmatched pairs' costs spans at most ell - alpha layers.  No cost
    falls with one more approval bit or one fewer happy bit.

    The reach bound: let ``geq_x = (s_x | ~h_x) & full``, the layers where
    x is at least indifferent to the other (approves it or is unhappy).
    Under every base the blocked layers lie in ``geq_a & geq_b``.  So a
    pair that violates an alpha-pair or alpha-individual query has both
    geq masks wider than ell - alpha layers: for pair by its blocked
    layers, for individual because each agent's support is at least
    ``ell - |geq|`` (weak: ``ell - |s & ~h|``; super: exactly that).
    Under weak the same holds of the narrower strict masks ``s & ~h``,
    since weak blocks lie in ``strict_a & strict_b``.
    ``blocking._approving`` yields only the pairs within such a reach."""
    alpha, full, base = q.effective_alpha(ell), (1 << ell) - 1, q.base
    if q.agg == "pair":

        def cost(sa, sb, ha, hb):
            return full if block_mask(base, sa, sb, ha, hb, full).bit_count() > ell - alpha else 0

    elif q.agg == "individual":

        def cost(sa, sb, ha, hb):
            most = max(support_mask(base, sa, ha, full).bit_count(), support_mask(base, sb, hb, full).bit_count())
            return full if most < alpha else 0

    else:

        def cost(sa, sb, ha, hb):
            return block_mask(base, sa, sb, ha, hb, full)

    return cost


def check(inst: MultilayerInstance, m: Matching, q: StabilityQuery, *, explain: bool = True) -> Verdict:
    """Decide whether the matching satisfies the queried stability notion.

    With ``explain`` off the caller reads ``.stable`` alone: a stable
    verdict is the one given with it on, witness layers included, and an
    unstable one is the bare ``Verdict(False, q)``.  A pair or individual
    check then stops at the first violating pair it finds instead of
    ranking them, and a global or all-layers one once more than
    ell - alpha layers block."""
    alpha = q.effective_alpha(inst.ell)
    require_ids(inst, m._partner)
    full = (1 << inst.ell) - 1
    base = q.base
    if q.agg in ("all", "global"):
        # past its cap, _blocked stops early and may leave out blocking layers
        layers = layer_set(full & ~_blocked(inst, m, base, full, None if explain else inst.ell - alpha))
        if len(layers) < alpha and not explain:
            return Verdict(False, q)
        return Verdict(len(layers) >= alpha, q, witness_layers=layers)
    found = _least_violation(inst, m, base, _pair_cost(q, inst.ell), [full, inst.ell - alpha], explain)
    if found is None:
        return Verdict(True, q)
    if not explain:
        return Verdict(False, q)
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
