"""Exception types shared across the package."""


class AlgebraError(ValueError):
    """Incompatible operands, or an operation invalid for the field."""


class BindingError(AlgebraError):
    """A concrete binding is missing or violates a declared type."""


class ParseError(ValueError):
    """Syntax error carrying a source position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
