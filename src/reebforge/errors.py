"""Exception types shared across reebforge."""


class ReebforgeError(Exception):
    """Base class for all reebforge errors."""


class InputError(ReebforgeError):
    """Bad user input (malformed files, inconsistent data). CLI maps this to exit 1."""


class DegenerateSimplex(InputError):
    """A simplex repeats a vertex, e.g. a triangle (a, a, b)."""


class ManifoldRequired(ReebforgeError):
    """Operation needs a surface (every vertex link a cycle or path) but got something else."""


class CountMismatch(InputError):
    """A scalar field's value count disagrees with the complex's vertex count."""


class NonFiniteValue(InputError):
    """A scalar field contains NaN or an infinity."""


class InvalidBarycentric(InputError):
    """Barycentric coordinates are negative, do not sum to 1, or mismatch the simplex."""


class UnrealizableSpec(InputError):
    """An abstract graph spec violates a realizability constraint."""


class InternalError(ReebforgeError):
    """A consistency check inside reebforge failed: a bug, not bad input. CLI maps this to exit 1."""
