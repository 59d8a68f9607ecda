"""Exception types shared across the package."""


class MlsmError(Exception):
    """Base class for all package errors."""


class SelfApproval(MlsmError):
    """``agent`` and ``layer`` are 0-based; the message names the agent by
    its display name, if it has one, and numbers layers from 1."""

    def __init__(self, agent: int, layer: int, name: str | None = None):
        super().__init__(agent, layer, name)  # the args, so pickling restores them
        self.agent = agent
        self.layer = layer

    def __str__(self) -> str:
        agent, layer, name = self.args
        who = agent if name is None else repr(name)
        return f"agent {who} approves itself in layer {layer + 1}"


class IdOutOfRange(MlsmError):
    pass


class MalformedDocument(MlsmError, ValueError):
    """A JSON document whose shape or names do not fit its format."""


class InvalidMatching(MlsmError, ValueError):
    """A pair with identical endpoints, or an agent in two pairs.  ``pair``
    is the offending pair of 0-based ids; given ``names``, the message
    names its agents by them."""

    def __init__(self, pair: tuple[int, int], reused: bool, names=None):
        super().__init__(pair, reused, names)  # the args, so pickling restores them
        self.pair = pair
        self.reused = reused

    def __str__(self) -> str:
        pair, reused, names = self.args
        a, b = pair if names is None else (repr(names[pair[0]]), repr(names[pair[1]]))
        return f"agent reused by pair ({a}, {b})" if reused else f"pair ({a}, {b}) has identical endpoints"


class PairIsMatched(MlsmError):
    pass


class NotSymmetric(MlsmError):
    pass


class InvalidQuery(MlsmError):
    pass


class AlphaOutOfRange(MlsmError):
    pass


class AlphaTooHigh(MlsmError):
    pass


class AlphaTooLow(MlsmError):
    pass


class BudgetExceeded(MlsmError):
    pass


class MalformedFormula(MlsmError):
    pass


class BadParameters(MlsmError):
    pass


class OddVertexCount(MlsmError):
    pass


class UncertifiedWitness(RuntimeError):
    """A solver returned a matching that fails ``check`` for its query.

    A solver bug, not malformed input, so deliberately no ``MlsmError``."""
