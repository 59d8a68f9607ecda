"""Exception types shared across the package."""


class MlsmError(Exception):
    """Base class for all package errors."""


class SelfApproval(MlsmError):
    def __init__(self, agent: int, layer: int):
        super().__init__(f"agent {agent} approves itself in layer {layer}")
        self.agent = agent
        self.layer = layer


class IdOutOfRange(MlsmError):
    pass


class MalformedDocument(MlsmError, ValueError):
    """A JSON document whose shape or names do not fit its format."""


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
