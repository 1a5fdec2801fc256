"""Exception taxonomy shared across the package."""


class LcplabError(Exception):
    """Base class for package-specific errors."""


class InputError(LcplabError):
    """Malformed or inconsistent user input: files, scalars, shapes, indices."""


class NumericalAmbiguityError(LcplabError):
    """A float-mode decision fell inside the tolerance band.

    Carries a suggestion for how to rerun (tighter tolerance, another seed)
    so the caller can surface it instead of guessing.
    """

    def __init__(self, message: str, suggestion: str | None = None):
        super().__init__(message)
        self.suggestion = suggestion


class TheoremViolationError(LcplabError):
    """An internal structural guarantee failed.

    Raised when computed data contradicts a fact the analysis relies on,
    for example a de Rham factor that is not a subalgebra, a factor that
    the curvature or the connection does not preserve, or a principal
    factor spread over several factors. Such a state means corrupted
    input or an implementation bug and is never silently reconciled.
    """
