"""Exception hierarchy.

Every mathematically meaningful failure gets its own class so callers (and
the CLI exit-code mapping) can react to the *name* of the failure, not a
message string.
"""


class NoSpilloverError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(NoSpilloverError):
    """A problem/delta file is malformed or dimensionally inconsistent."""


class DimensionMismatch(NoSpilloverError):
    """Matrix shapes are incompatible for the requested operation."""


class NonFiniteEntries(NoSpilloverError):
    """A matrix contains NaN or infinite entries."""


class SingularPencil(NoSpilloverError):
    """det(lambda*M + K) vanishes identically (non-regular pencil)."""


class NotHermitian(NoSpilloverError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class MissingStar(NoSpilloverError):
    """An adjoint type is required but the pencil carries no structure tag."""


class NotEigenpair(NoSpilloverError):
    """A claimed eigenpair fails its residual test."""


class NotPositiveDefinite(NoSpilloverError):
    """A matrix required to be positive definite is not."""


class RankDeficientA(NoSpilloverError):
    """The stacked constraint matrix lost column rank ([X_f X_a] issue)."""


class MissingFixedPair(NoSpilloverError):
    """The unstructured solver needs the fixed pair but none was given."""


class SingularBasis(NoSpilloverError):
    """[X_a X_f] is singular, so the dual basis U does not exist."""


class SingularG(NoSpilloverError):
    """The change-pair Gramian G is singular (rcond below cutoff)."""


class NotRealDiagonal(NoSpilloverError):
    """A parameter matrix must be real diagonal but is not."""


class NotImaginaryDiagonal(NoSpilloverError):
    """A parameter matrix must be purely imaginary diagonal but is not."""


class ComplexInput(NoSpilloverError):
    """A real-structure path received data with nonzero imaginary part."""


class BadBlockShape(NoSpilloverError):
    """Block-structured input does not have the required 2x2 block layout."""


class ZeroChangeEigenvalue(NoSpilloverError):
    """A change eigenvalue is zero where the construction needs 1/lambda."""


class PositiveTargetEigenvalue(NoSpilloverError):
    """A target eigenvalue is >= 0 where all targets must be negative."""


class EigenvalueOutsideClass(NoSpilloverError):
    """A quadratic eigenvalue is not admissible for the requested class."""


class NotSimpleEigenvalues(NoSpilloverError):
    """The Gramian does not have the block form implied by simple eigenvalues."""


class BadBlockPattern(NoSpilloverError):
    """A parameter matrix violates its required block pattern."""


class RepeatedEigenvalue(NoSpilloverError):
    """Change eigenvalues must be distinct but are not."""


class NotSHH(NoSpilloverError):
    """The pair (M, K) is not skew-Hamiltonian/Hamiltonian at tolerance."""


class BadParameters(NoSpilloverError):
    """Invalid parameters for random problem generation."""
