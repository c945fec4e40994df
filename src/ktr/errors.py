"""Exception types shared across the package."""


class KtrError(Exception):
    """Base class for all package-specific errors."""


class NotTimeReversalError(KtrError):
    """An operator fails the anticommuting Hermitian-involution contract."""


class ResourceLimitError(KtrError):
    """A state or an exact computation exceeds a fixed qubit cap
    (:data:`ktr.paulis.STATE_QUBIT_CAP` or :data:`ktr.paulis.DENSE_QUBIT_CAP`)."""


class DegenerateProjectionError(KtrError):
    """A projector annihilates the state (projection probability ~ 0)."""


class DegeneratePencilError(KtrError):
    """No overlap-matrix eigenvalue survives the spectral threshold."""


class InternalInconsistencyError(KtrError):
    """A numerical self-check failed, e.g. a Hermitian expectation came
    back with a large imaginary residue."""


class ModelConsistencyError(KtrError):
    """A generated model operator violates its defining algebraic checks."""


class ConfigError(KtrError):
    """Invalid experiment configuration."""
