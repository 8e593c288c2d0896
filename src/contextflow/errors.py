"""Exception hierarchy shared across the package."""

from __future__ import annotations


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
