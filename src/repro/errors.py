"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch library failures without swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Base class for errors in the port-graph substrate."""


class PortNumberingError(GraphError):
    """A port assignment violates the model: ports at a node of degree d must
    be exactly {0, ..., d-1}, and every edge carries one port per endpoint."""


class GraphStructureError(GraphError):
    """The graph violates a structural requirement (connectivity, simplicity,
    minimum size n >= 3 where the paper requires it, ...)."""


class FrozenGraphError(GraphError):
    """Attempt to mutate a frozen (finalized) :class:`PortGraph`."""


class InfeasibleGraphError(ReproError):
    """Leader election is impossible in this graph even with full knowledge of
    the map: two nodes have identical (infinite) views, so no deterministic
    algorithm can break the symmetry (Yamashita-Kameda criterion)."""


class CodingError(ReproError):
    """A binary string could not be decoded, or an object is not encodable."""


class AdviceError(ReproError):
    """Advice construction or consumption failed (oracle/algorithm mismatch)."""


class EngineError(ReproError):
    """The experiment engine was misconfigured (unknown task, bad worker or
    chunk configuration) or a worker failed."""


class CorpusError(ReproError):
    """A corpus family spec is malformed, names an unknown family, or
    carries parameters the family does not accept."""


class StoreError(EngineError):
    """A result store file is unreadable or corrupt beyond the repairable
    truncated-tail case (see :mod:`repro.engine.store`)."""


class BenchSchemaError(ReproError):
    """A bench record carries a schema this build does not read (e.g. a
    ``repro-bench/1`` record, whose speedups divide by another machine's
    baseline, after the bump to in-run ratios)."""


class ServiceError(ReproError):
    """The query service rejected a request (unknown task, malformed
    graph payload or batch envelope) or its cache file is corrupt beyond
    the repairable torn-tail case (see :mod:`repro.service.cache`)."""


class ConformanceError(ReproError):
    """The conformance subsystem was misconfigured (unknown algorithm or
    schedule roster), as opposed to a *disagreement*, which is recorded in
    the conformance record rather than raised."""


class SimulationError(ReproError):
    """The distributed simulation reached an invalid state."""


class AlgorithmError(ReproError):
    """A node algorithm behaved illegally (e.g. output after terminating,
    message to a nonexistent port)."""


class ElectionFailure(ReproError):
    """The outputs of an election run do not constitute a valid election:
    some output is not a simple path, or the paths do not share an endpoint."""
