"""Exception hierarchy shared across the toolkit."""


class SceneFlowError(Exception):
    """Base class for all toolkit errors."""


class GeometryError(SceneFlowError):
    """Invalid geometric input (behind-camera point, non-positive depth, ...)."""


class ConfigurationError(SceneFlowError):
    """Invalid generation or pipeline configuration."""


class ContractError(SceneFlowError):
    """Caller violated an operation contract (shape mismatch, bad range, ...)."""


class ParseError(SceneFlowError):
    """Malformed on-disk data; carries location info where available."""


class DataCorruptionError(SceneFlowError):
    """Rendered or derived data violates an internal invariant; pass_name,
    where given, names the pass (as `pipeline` names its file) that holds
    the value at fault."""

    def __init__(self, message, pass_name=None):
        super().__init__(message)
        self.pass_name = pass_name
