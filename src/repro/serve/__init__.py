"""Online vetting service: durable queue, model registry, HTTP API.

The deployed APICHECKER is an *online* system — ~10K daily submissions
accepted continuously, vetted within hours, over a model that evolves
monthly without downtime (§6).  This package is that serving layer:

* :class:`SubmissionQueue` — write-ahead-logged, priority-laned,
  depth-bounded admission queue; a killed service replays its WAL on
  restart with no loss and no duplicate scoring.
* :class:`ModelRegistry` / :class:`RulesetRegistry` — one versioned,
  hash-verified artifact store with two codecs (pickled checker, ruleset
  JSON) and an RW-locked hot swap; models add shadow scoring and one
  promoter (:class:`PromotionPolicy`), rulesets the bundled version 0.
* :class:`ShadowPromotionGate` — turns
  :meth:`~repro.core.evolution.EvolutionLoop.run_month` retrains into
  promote-on-threshold decisions.
* :class:`OnlineVettingService` — queue → pipeline → verdict wiring
  on top of the batch engine stack.
* :func:`make_server` / :class:`VettingHTTPServer` — stdlib HTTP JSON
  API, all routes under ``/v1`` in one declarative route table
  (``/v1/submit``, ``/v1/result/<md5>``, ``/v1/healthz``,
  ``/v1/metrics``) with a unified error envelope (:data:`ERROR_CODES`).
* :class:`ShardRouter` / :func:`make_router_server` — the sharded
  multi-process tier: N worker processes, md5-routed
  (:func:`shard_of`), per-shard WAL segments, scatter/gather
  ``/v1/healthz`` and ``/v1/metrics`` at the front door.

See ``docs/serving.md`` for the durability model, promotion policy,
sharded topology, and API reference.
"""

from repro.serve.codec import apk_from_dict, apk_to_dict
from repro.serve.http import (
    API_PREFIX,
    ERROR_CODES,
    ROUTES,
    VettingHTTPServer,
    error_body,
    make_server,
)
from repro.serve.queue import (
    LANE_BULK,
    LANE_ESCALATED,
    LANE_RESUBMIT,
    LANES,
    QueueFullError,
    SubmissionQueue,
    SubmissionRecord,
    WrongShardError,
    shard_of,
)
from repro.serve.registry import (
    BUILTIN_RULESET_VERSION,
    IntegrityError,
    ModelRegistry,
    ModelVersion,
    PromotionDecision,
    PromotionPolicy,
    RulesetRegistry,
    RulesetVersion,
    RWLock,
    ShadowPromotionGate,
)
from repro.serve.service import DrainStatus, OnlineVettingService
from repro.serve.shard import (
    ShardRouter,
    ShardUnavailableError,
    make_router_server,
)

__all__ = [
    "API_PREFIX",
    "BUILTIN_RULESET_VERSION",
    "ERROR_CODES",
    "LANE_BULK",
    "LANE_ESCALATED",
    "LANE_RESUBMIT",
    "LANES",
    "ROUTES",
    "DrainStatus",
    "IntegrityError",
    "ModelRegistry",
    "ModelVersion",
    "OnlineVettingService",
    "PromotionDecision",
    "PromotionPolicy",
    "QueueFullError",
    "RWLock",
    "RulesetRegistry",
    "RulesetVersion",
    "ShadowPromotionGate",
    "ShardRouter",
    "ShardUnavailableError",
    "SubmissionQueue",
    "SubmissionRecord",
    "VettingHTTPServer",
    "WrongShardError",
    "apk_from_dict",
    "apk_to_dict",
    "error_body",
    "make_router_server",
    "make_server",
    "shard_of",
]
