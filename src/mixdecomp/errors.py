"""Exception types raised by the package."""


class MixdecompError(Exception):
    """Base class for all package errors."""


class ReducibleKernel(MixdecompError):
    """Support digraph of the kernel is not strongly connected."""


class DimensionMismatch(MixdecompError):
    """Vector or matrix shapes are inconsistent."""


class InvalidAlpha(MixdecompError):
    """Laziness mixture parameter outside (0, 1]."""


class NotReversible(MixdecompError):
    """Detailed balance fails beyond tolerance."""


class UnreachableTarget(MixdecompError):
    """Hitting target cannot be reached from some start state."""


class SingularSystem(MixdecompError):
    """A linear system that should be regular is numerically singular."""


class SingularReturn(SingularSystem):
    """(I - K_BB) is singular when computing a trace kernel."""


class NoExit(MixdecompError):
    """A partition block has no transition leaving it."""


class TooManyBlocks(MixdecompError):
    """Exact subset enumeration requested beyond the supported size."""


class AbsorbingBlock(MixdecompError):
    """A projected kernel row has no off-diagonal mass."""


class NoFeasibleT(MixdecompError):
    """A horizon search exhausted its grid without finding a feasible T."""


class MTooSmall(MixdecompError):
    """Sublevel cutoff below the minimum required by the drift data."""


class DriftViolated(MixdecompError):
    """A drift certificate failed its pointwise verification."""


class ContractionTooWeak(MixdecompError):
    """Contraction coefficients do not satisfy beta < strength / 2."""


class EpsilonTooLarge(MixdecompError):
    """Stationary deficit too large for the coupling-to-a-point bound."""


class TooLarge(MixdecompError):
    """Exact enumeration requested on a state space beyond the limit."""


class NotTreeWalk(MixdecompError):
    """Kernel is not the canonical lazy walk on a tree."""


class NoFiniteT(NoFeasibleT):
    """Propagation search found no covering horizon within its grid."""


class InvalidComparison(MixdecompError):
    """Preconditions of a well-covering comparison step fail."""


class NoFixedPoint(MixdecompError):
    """Bootstrap search found no self-consistent horizon."""


class HypothesisUnverified(UserWarning):
    """A bound was evaluated without verifying its regularity hypothesis."""


class GraphGenerationFailed(MixdecompError):
    """Random regular graph generation exhausted its rejection budget."""


class StateSpaceTooLarge(MixdecompError):
    """Explicit kernel enumeration requested beyond the size limit."""


class ProductSpaceTooLarge(MixdecompError):
    """An array sized from a caller's inputs exceeds the byte budget.

    Raised by ``config.check_bytes`` before allocating paths, block-change
    events, DP buffers, audit slots and tables, or sampler tables.
    """


class HorizonCap(MixdecompError):
    """A Monte Carlo replicate exceeded the step cap."""


class ConfigInvalid(MixdecompError):
    """Experiment configuration failed validation."""


class AssertionFailed(MixdecompError):
    """An internal invariant check failed during an experiment run."""

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        super().__init__(f"internal assertion failed: {invariant}" + (f" ({detail})" if detail else ""))
