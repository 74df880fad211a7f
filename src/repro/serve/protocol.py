"""Versioned JSON wire schema for the counting service.

One request shape (``CountRequest``), two response shapes
(``CountResponse`` / ``ErrorResponse``), and the typed error codes every
layer agrees on. The schema is versioned through the ``"v"`` field so a
future revision can evolve the wire format without breaking deployed
clients; v1 clients talking to a v1 server never need to sniff fields.

Counts are serialized as *strings*: subgraph counts routinely exceed
2^53 and would silently lose precision in JSON readers that parse
numbers as doubles (the benchmark records made the same choice).

:class:`Deadline` is the shared deadline machinery — the service's
admission queue, the per-request waiters, and the CLI ``--timeout`` flag
all measure remaining budget through it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

__all__ = [
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "ERROR_HTTP_STATUS",
    "ServeError",
    "Deadline",
    "CountRequest",
    "CountResponse",
    "ErrorResponse",
    "response_from_json",
]

PROTOCOL_VERSION = 1

# Typed error codes. The HTTP layer maps them onto status codes; direct
# (in-process) callers branch on the code string itself.
OVERLOADED = "overloaded"
DEADLINE_EXCEEDED = "deadline_exceeded"
UNKNOWN_GRAPH = "unknown_graph"
BAD_PATTERN = "bad_pattern"
BAD_REQUEST = "bad_request"
INTERNAL = "internal"

ERROR_CODES = frozenset(
    {OVERLOADED, DEADLINE_EXCEEDED, UNKNOWN_GRAPH, BAD_PATTERN, BAD_REQUEST, INTERNAL}
)

ERROR_HTTP_STATUS = {
    OVERLOADED: 503,
    DEADLINE_EXCEEDED: 504,
    UNKNOWN_GRAPH: 404,
    BAD_PATTERN: 400,
    BAD_REQUEST: 400,
    INTERNAL: 500,
}


class ServeError(Exception):
    """A typed service error: ``code`` is one of :data:`ERROR_CODES`."""

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message

    def response(self) -> "ErrorResponse":
        return ErrorResponse(code=self.code, message=self.message)


class Deadline:
    """A monotonic-clock deadline with ``remaining()`` semantics.

    ``Deadline.after(seconds)`` starts the budget now; ``after(None)``
    never expires. The service checks ``expired`` before spending
    execution time on a request and waiters bound their ``await`` with
    ``remaining()``; the CLI ``--timeout`` flag reuses the same object so
    client- and server-side budgets mean the same thing.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float | None):
        self.expires_at = expires_at

    @classmethod
    def after(cls, seconds: float | None) -> "Deadline":
        if seconds is None:
            return cls(None)
        return cls(time.monotonic() + seconds)

    @classmethod
    def never(cls) -> "Deadline":
        return cls(None)

    def remaining(self) -> float | None:
        """Seconds left (may be <= 0), or None for a never-expiring deadline."""
        if self.expires_at is None:
            return None
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.expires_at is not None and time.monotonic() >= self.expires_at

    def extend_to(self, other: "Deadline") -> None:
        """Relax this deadline to cover ``other`` (used when coalescing)."""
        if self.expires_at is None or other.expires_at is None:
            self.expires_at = None
        else:
            self.expires_at = max(self.expires_at, other.expires_at)


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CountRequest:
    """One counting query: which graph, which pattern, how to run it.

    ``graph`` names a registry entry; ``pattern`` is a DSL expression
    (:func:`repro.patterns.dsl.parse_pattern`). ``timeout_s`` becomes the
    request deadline (``None`` = the service default); ``use_cache=False``
    bypasses the result cache on both read and write (the request still
    coalesces with identical in-flight work — that execution is fresh by
    definition).
    """

    graph: str
    pattern: str
    engine: str = "auto"
    timeout_s: float | None = None
    use_cache: bool = True
    config: Mapping[str, Any] | None = None  # EngineConfig overrides

    def __post_init__(self):
        from ..core.engine import ENGINES

        if self.engine not in ENGINES:
            raise ServeError(BAD_REQUEST, f"unknown engine {self.engine!r}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ServeError(BAD_REQUEST, "timeout_s must be positive")

    @classmethod
    def from_json(cls, obj: Any) -> "CountRequest":
        if not isinstance(obj, dict):
            raise ServeError(BAD_REQUEST, "request body must be a JSON object")
        version = obj.get("v", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            raise ServeError(BAD_REQUEST, f"unsupported protocol version {version!r}")
        for key in ("graph", "pattern"):
            if not isinstance(obj.get(key), str) or not obj[key]:
                raise ServeError(BAD_REQUEST, f"{key!r} must be a non-empty string")
        timeout_s = obj.get("timeout_s")
        if timeout_s is not None and not isinstance(timeout_s, (int, float)):
            raise ServeError(BAD_REQUEST, "timeout_s must be a number")
        config = obj.get("config")
        if config is not None and not isinstance(config, dict):
            raise ServeError(BAD_REQUEST, "config must be an object")
        return cls(
            graph=obj["graph"],
            pattern=obj["pattern"],
            engine=obj.get("engine", "auto"),
            timeout_s=timeout_s,
            use_cache=bool(obj.get("use_cache", True)),
            config=config,
        )

    def to_json(self) -> dict:
        body: dict = {"v": PROTOCOL_VERSION, "graph": self.graph, "pattern": self.pattern}
        if self.engine != "auto":
            body["engine"] = self.engine
        if self.timeout_s is not None:
            body["timeout_s"] = self.timeout_s
        if not self.use_cache:
            body["use_cache"] = False
        if self.config:
            body["config"] = dict(self.config)
        return body

    def engine_config(self):
        """Materialize the EngineConfig (raises ``bad_request`` on bad knobs)."""
        from ..core.engine import EngineConfig

        overrides = dict(self.config or {})
        unknown = set(overrides) - {f.name for f in fields(EngineConfig)}
        if unknown:
            raise ServeError(BAD_REQUEST, f"unknown config keys: {sorted(unknown)}")
        try:
            return EngineConfig(**overrides)
        except (TypeError, ValueError) as exc:
            raise ServeError(BAD_REQUEST, f"bad engine config: {exc}") from exc


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CountResponse:
    """A successful count, plus how it was produced.

    ``cached`` — served from the result cache without execution;
    ``coalesced`` — this waiter shared another request's execution;
    ``batch_size`` — how many requests the executing micro-batch held.
    """

    graph: str
    pattern: str
    count: int
    fingerprint: str
    engine: str
    elapsed_s: float
    cached: bool = False
    coalesced: bool = False
    batch_size: int = 1

    ok = True

    def to_json(self) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "graph": self.graph,
            "pattern": self.pattern,
            "count": str(self.count),  # big counts overflow double-based readers
            "fingerprint": self.fingerprint,
            "engine": self.engine,
            "elapsed_s": self.elapsed_s,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "batch_size": self.batch_size,
        }


@dataclass(frozen=True)
class ErrorResponse:
    """A typed failure; ``code`` is one of :data:`ERROR_CODES`."""

    code: str
    message: str
    details: Mapping[str, Any] = field(default_factory=dict)

    ok = False

    @property
    def http_status(self) -> int:
        return ERROR_HTTP_STATUS.get(self.code, 500)

    def to_json(self) -> dict:
        err: dict = {"code": self.code, "message": self.message}
        if self.details:
            err["details"] = dict(self.details)
        return {"v": PROTOCOL_VERSION, "ok": False, "error": err}


def response_from_json(obj: Any) -> CountResponse | ErrorResponse:
    """Parse a response body back into the typed form (client side)."""
    if not isinstance(obj, dict) or "ok" not in obj:
        raise ValueError("malformed response body")
    if obj["ok"]:
        return CountResponse(
            graph=obj["graph"],
            pattern=obj["pattern"],
            count=int(obj["count"]),
            fingerprint=obj["fingerprint"],
            engine=obj["engine"],
            elapsed_s=float(obj["elapsed_s"]),
            cached=bool(obj.get("cached", False)),
            coalesced=bool(obj.get("coalesced", False)),
            batch_size=int(obj.get("batch_size", 1)),
        )
    err = obj.get("error") or {}
    return ErrorResponse(
        code=err.get("code", INTERNAL),
        message=err.get("message", "unknown error"),
        details=err.get("details") or {},
    )
