"""Exception types shared across the library."""


class TopolabError(Exception):
    """Base class for all topolab errors."""


class NotATopology(TopolabError):
    """A set family violates one of the topology axioms.

    Carries the first violated axiom and a witnessing pair of masks so
    callers can report exactly what went wrong.
    """

    def __init__(self, axiom, witness=None):
        self.axiom = axiom
        self.witness = witness
        detail = f" (witness: {witness})" if witness is not None else ""
        super().__init__(f"not a topology: {axiom}{detail}")


class SizeLimitExceeded(TopolabError):
    """An operation would blow past the configured point or open-set guard."""


class NotOpen(TopolabError):
    """A set required to be open is not a member of the topology."""


class ImageNotInFamily(TopolabError):
    """A function image landed outside the hyperspace family: ∅, the image of an empty member, is no compact."""
