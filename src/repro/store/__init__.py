"""Persistent content-addressed artifact store.

Every in-process cache the campaign engine has grown (reduction
oracle memo, per-config compile memo) dies with
the process; this package makes them durable.  :class:`ArtifactStore`
is a single SQLite file holding zlib-compressed program text keyed by
sha256 plus memo tables for compile results, ground-truth executions,
reduction oracle verdicts, and fully analyzed seeds — so a warm
campaign rerun replays recorded work instead of re-deriving it.

Determinism contract: the store only ever *skips* recomputation of
values that are pure functions of their keys, so a warm rerun produces
a byte-identical ``CampaignResult`` and event stream (modulo
timestamps) vs a cold one.  Corruption at any level degrades to a cold
run — the store disables itself and counts ``store.errors`` rather
than ever crashing a campaign.
"""

from .artifact import (
    ArtifactStore,
    StoreDelta,
    StoreSession,
    open_store,
    program_text_key,
    seed_scope_fingerprint,
)
from .sqlite import is_locked_error, retry_locked

__all__ = [
    "ArtifactStore",
    "StoreDelta",
    "StoreSession",
    "is_locked_error",
    "open_store",
    "program_text_key",
    "retry_locked",
    "seed_scope_fingerprint",
]
