"""Exception hierarchy shared across the package, and the one reader of text files."""

from __future__ import annotations

from pathlib import Path


class ContextFlowError(Exception):
    """Base class for all package errors."""


# -- world --------------------------------------------------------------


class DuplicateId(ContextFlowError):
    pass


class DisconnectedGraph(ContextFlowError):
    pass


class NonPositiveEdge(ContextFlowError):
    pass


class UnknownNode(ContextFlowError):
    pass


class InvalidPose(ContextFlowError):
    pass


class InvalidAnchor(ContextFlowError):
    pass


# -- scenario -----------------------------------------------------------


class ParseError(ContextFlowError):
    pass


class UnresolvedReference(ContextFlowError):
    pass


class InvalidDiagnosticType(ContextFlowError):
    pass


class OrphanFault(ContextFlowError):
    pass


class ManifestError(ContextFlowError):
    pass


# -- contracts / alignment ----------------------------------------------


class EmptyInstruction(ContextFlowError):
    pass


class NoCompatibleExecutor(ContextFlowError):
    pass


class InvalidPromoteTarget(ContextFlowError):
    pass


class InvalidRepairRoot(ContextFlowError):
    pass


class UnknownAction(ContextFlowError):
    pass


# -- memory -------------------------------------------------------------


class InvalidKind(ContextFlowError):
    pass


# -- executors ----------------------------------------------------------


class IncompatibleKind(ContextFlowError):
    pass


class NoAnchorToApproach(ContextFlowError):
    pass


# -- harness ------------------------------------------------------------


class InvalidRunConfig(ContextFlowError):
    pass


# -- board / metrics ----------------------------------------------------


class SchemaMismatch(ContextFlowError):
    pass


class IncompleteTrace(ContextFlowError):
    pass


class LabelMismatch(ContextFlowError):
    pass


class NoSuchRecord(ContextFlowError):
    """A record index that the trace does not have."""


def read_utf8(path, error: type[ContextFlowError]) -> str:
    """The text of the file at `path`; `error`, the reader's own class, when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{Path(path).name} is not UTF-8 text: {exc}") from None
