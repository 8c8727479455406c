"""Long-running campaign service: daemon, job queue, case lifecycle.

The service turns the one-shot campaign engine into a supervised
daemon: seed submissions and campaign requests arrive over a small
JSON HTTP API, run through the existing parallel engine under a
supervisor with per-job timeouts and bounded backoff retries, and
fold their findings into a durable case-lifecycle table
(``found -> reduced -> bisected -> reported``).  Everything that
matters lives in SQLite (finished seeds in the artifact store), so the
daemon can be killed at any instant and resumed without losing or
duplicating work.
"""

from .core import CampaignService, ServiceDraining, validate_payload
from .http import ServiceHTTPServer, serve
from .jobs import JOB_STATUSES, JOB_TYPES, Job, JobStore, job_id_for
from .supervisor import Supervisor

__all__ = [
    "CampaignService",
    "ServiceDraining",
    "validate_payload",
    "ServiceHTTPServer",
    "serve",
    "JOB_STATUSES",
    "JOB_TYPES",
    "Job",
    "JobStore",
    "job_id_for",
    "Supervisor",
]
