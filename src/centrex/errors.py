"""Exception types shared across the package."""


class CapacityError(Exception):
    """Raised when an input exceeds the desk-scale guards (group order,
    coefficient modulus, or enumeration size)."""


class CocycleError(ValueError):
    """Raised when a degree-2 cochain fails the cocycle condition.

    Carries the first violating triple (g, h, k) in ``triple``.
    """

    def __init__(self, triple):
        self.triple = tuple(int(x) for x in triple)
        super().__init__(
            "cochain is not a 2-cocycle: condition fails at (g, h, k) = %r"
            % (self.triple,)
        )

