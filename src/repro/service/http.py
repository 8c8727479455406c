"""JSON HTTP API + daemon entry point (stdlib only).

Endpoints (all JSON)::

    GET  /healthz                    liveness: queue depth, worker
                                     heartbeats, last-commit age
    GET  /readyz                     200 accepting work / 503 draining
    POST /api/v1/seeds               {"seeds": [..], "config": {..}, ...}
    POST /api/v1/campaigns           {"programs": N, "seed_base": B, ...}
    GET  /api/v1/jobs[?status=s]     the job queue
    GET  /api/v1/jobs/<id>           one job
    GET  /api/v1/cases[?state=s]     the case lifecycle table
    GET  /api/v1/cases/<fp>          one case (follows merge aliases)
    POST /api/v1/cases/<fp>/advance  {"state": "reported"}
    POST /api/v1/chaos               {"faults": ["site:kind", ..]}
                                     (only with --chaos-api; [] clears)

Submissions are idempotent: the job id is the content hash of the
payload, re-POSTing returns the existing job with 200 instead of 201.
While draining every POST is refused with 503 — clients resubmit
after restart and idempotency makes that safe.

The server is a stdlib :class:`ThreadingHTTPServer`; request handlers
only touch SQLite-backed state, so a handler crash (or an injected
``serve:handler`` fault) is contained to a 500 response and the
``service.handler_errors`` counter.  The health endpoints bypass the
chaos hook: liveness must stay truthful while everything else burns.

:func:`serve` wires the daemon: SIGTERM and SIGINT both trigger a
graceful drain — finish in-flight jobs, commit the ledger, stop
accepting — so a container stop is as survivable as a Ctrl-C.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from ..observability.ledger import CASE_STATES
from ..testing import chaos
from .core import CampaignService, ServiceDraining


class _ApiError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        service: CampaignService,
        *,
        chaos_api: bool = False,
        quiet: bool = True,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.chaos_api = chaos_api
        self.quiet = quiet


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    server_version = "dce-hunt-serve/1.0"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    def log_message(self, fmt: str, *args: Any) -> None:
        if not self.server.quiet:  # pragma: no cover - debug aid
            super().log_message(fmt, *args)

    def _send(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        try:
            payload = json.loads(self.rfile.read(length))
        except json.JSONDecodeError as error:
            raise _ApiError(400, f"bad JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise _ApiError(400, "body must be a JSON object")
        return payload

    def _dispatch(self, method: str) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = {
            key: values[-1] for key, values in parse_qs(url.query).items()
        }
        try:
            if parts and parts[0] in ("healthz", "readyz"):
                # health stays truthful: no chaos, no drain refusal
                self._route_health(parts[0])
                return
            # the serve:handler chaos site — a fault here must be
            # contained to one 500 response, never the daemon; the
            # chaos control endpoint is exempt so drills can always
            # clear the plan they installed
            if parts[2:3] != ["chaos"]:
                chaos.trigger("serve:handler")
            self._route_api(method, parts, query)
        except _ApiError as error:
            self._send(error.status, {"error": str(error)})
        except ServiceDraining as error:
            self._send(503, {"error": str(error)})
        except (KeyError, ValueError) as error:
            self._send(400, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - containment boundary
            service = self.server.service
            service.metrics.counter("service.handler_errors").inc()
            self._send(500, {"error": f"{type(error).__name__}: {error}"})

    # -- routes --------------------------------------------------------
    def _route_health(self, which: str) -> None:
        service = self.server.service
        if which == "healthz":
            self._send(200, service.health())
            return
        ready = service.ready()
        self._send(
            200 if ready else 503,
            {"ready": ready, "draining": service.draining},
        )

    def _route_api(
        self, method: str, parts: list[str], query: dict[str, str]
    ) -> None:
        if len(parts) < 3 or parts[0] != "api" or parts[1] != "v1":
            raise _ApiError(404, f"no such endpoint: {self.path}")
        service = self.server.service
        head, rest = parts[2], parts[3:]
        if method == "POST" and head in ("seeds", "campaigns") and not rest:
            job_type = "seeds" if head == "seeds" else "campaign"
            job, created = service.submit(job_type, self._body())
            self._send(
                201 if created else 200,
                {"job": job.to_dict(), "created": created},
            )
        elif method == "GET" and head == "jobs" and not rest:
            status = query.get("status")
            self._send(
                200,
                {"jobs": [j.to_dict() for j in service.jobs.jobs(status)]},
            )
        elif method == "GET" and head == "jobs" and len(rest) == 1:
            job = service.jobs.job(rest[0])
            if job is None:
                raise _ApiError(404, f"no job {rest[0]!r}")
            self._send(200, {"job": job.to_dict()})
        elif method == "GET" and head == "cases" and not rest:
            self._send(200, {"cases": service.cases(query.get("state"))})
        elif method == "GET" and head == "cases" and len(rest) == 1:
            case = service.case(rest[0])
            if case is None:
                raise _ApiError(404, f"no case {rest[0]!r}")
            self._send(200, {"case": case})
        elif (
            method == "POST" and head == "cases"
            and len(rest) == 2 and rest[1] == "advance"
        ):
            state = self._body().get("state")
            if state not in CASE_STATES[1:]:
                raise _ApiError(
                    400, f"'state' must be one of {CASE_STATES[1:]}"
                )
            try:
                case = service.advance_case(rest[0], state)
            except KeyError as error:
                raise _ApiError(404, str(error)) from None
            self._send(200, {"case": case})
        elif method == "POST" and head == "chaos" and not rest:
            self._route_chaos()
        else:
            raise _ApiError(404, f"no such endpoint: {self.path}")

    def _route_chaos(self) -> None:
        """Fault-injection control for tests/CI drills (opt-in)."""
        if not self.server.chaos_api:
            raise _ApiError(404, "chaos API not enabled (--chaos-api)")
        specs = self._body().get("faults", [])
        if not isinstance(specs, list):
            raise _ApiError(400, "'faults' must be a list of site:kind")
        try:
            faults = tuple(chaos.parse_fault(spec) for spec in specs)
        except ValueError as error:
            raise _ApiError(400, str(error)) from None
        if faults:
            chaos.install_plan(chaos.FaultPlan(faults))
        else:
            chaos.clear_plan()
        self._send(200, {"installed": [f.site for f in faults]})

    # -- verbs ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")


def serve(
    data_dir: str,
    *,
    host: str = "127.0.0.1",
    port: int = 8321,
    workers: int = 1,
    job_timeout: float | None = None,
    retry_cap: int = 3,
    backoff_base: float = 0.5,
    chaos_api: bool = False,
    events=None,
    on_ready=None,
) -> int:
    """Run the campaign daemon until SIGTERM/SIGINT, then drain.

    Must be called from the main thread (signal handlers).  Prints a
    ``listening on http://host:port`` line through ``on_ready`` so
    wrappers (CLI, tests) can discover an ephemeral port.
    """
    service = CampaignService(
        data_dir,
        workers=workers,
        job_timeout=job_timeout,
        retry_cap=retry_cap,
        backoff_base=backoff_base,
        events=events,
    )
    httpd = ServiceHTTPServer(
        (host, port), service, chaos_api=chaos_api,
    )
    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    previous = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    server_thread = threading.Thread(
        target=httpd.serve_forever, name="http-server", daemon=True
    )
    try:
        service.start()
        server_thread.start()
        if on_ready is not None:
            actual_host, actual_port = httpd.server_address[:2]
            on_ready(actual_host, actual_port)
        stop.wait()
        # graceful drain: stop claiming, finish in-flight, flush; the
        # HTTP server keeps answering (503 on submissions) meanwhile
        service.drain()
    finally:
        httpd.shutdown()
        server_thread.join(5.0)
        httpd.server_close()
        service.close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0
