"""Exception types shared across the package."""


class TrajTransferError(Exception):
    """Base class for all package errors."""


class EmptyCloud(TrajTransferError):
    pass


class OutOfRange(TrajTransferError):
    pass


class EmptyDescription(TrajTransferError):
    pass


class InvalidDescription(TrajTransferError):
    pass


class TrajectoryTooShort(TrajTransferError):
    pass


class DuplicateId(TrajTransferError):
    pass


class InvalidId(TrajTransferError):
    pass


class OutOfWorkspace(TrajTransferError):
    pass


class UnknownSkill(TrajTransferError):
    pass


class TooFewPoints(TrajTransferError):
    pass


class NoCorrespondences(TrajTransferError):
    pass


class UnknownCategory(TrajTransferError):
    pass


class InvalidTrials(TrajTransferError):
    pass


class ConfigError(TrajTransferError):
    pass


class MalformedFile(TrajTransferError):
    pass
