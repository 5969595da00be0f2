"""The HTTP skin over :class:`CompileService` — stdlib only.

A :class:`~http.server.ThreadingHTTPServer` whose handler threads call
into the service's tiny locked critical sections; all heavy work
happens in the supervised worker processes.  Routes:

========  ==========================  ===================================
method    path                        meaning
========  ==========================  ===================================
POST      ``/v1/jobs``                submit a JobSpec body → 202 + id
GET       ``/v1/jobs/<id>``           job status document
GET       ``/v1/jobs/<id>/result``    artifacts (ok jobs only)
GET       ``/v1/config``              the live ServeConfig document
GET       ``/healthz``                liveness (green under overload)
GET       ``/readyz``                 readiness (503 when not admitting)
========  ==========================  ===================================

Every error is the frozen envelope from :mod:`repro.serve.errors`;
429/503 responses carry a ``Retry-After`` header.  Submissions are
identified by the ``X-Repro-Identity`` header when present, else the
client address — that key feeds the per-identity rate limiter.

:func:`run_server` is the CLI entry point: it blocks the main thread,
and SIGTERM/SIGINT flip the service into drain mode — stop admitting
(503 ``draining``), keep serving polls so clients can collect their
in-flight jobs, finish work, then stop; past ``drain_deadline`` the
remaining jobs are marked aborted and the exit code is non-zero.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import monotonic

from ..batch.cache import NullCache, ResultCache
from ..obs import active as _obs_active
from .config import ServeConfig
from .errors import ServeError
from .service import CompileService

#: Request bodies beyond this are refused unread (validation, not OOM).
MAX_BODY_BYTES = 64 * 1024


class _Server(ThreadingHTTPServer):
    """The stdlib threading server with a listen backlog sized for
    bursts.  socketserver's default of 5 overflows when many clients
    connect at once (an open-loop burst of submissions plus status
    polls), and an overflowing accept queue makes the kernel drop or
    reset connections: a client then sees a reset, not a 429."""

    request_queue_size = 128


class _Handler(BaseHTTPRequestHandler):
    """One request; dispatch, envelope errors, always Content-Length."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    sys_version = ""

    @property
    def service(self) -> CompileService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:
        """Quiet by default: per-request logging is the metrics' job."""

    def _send_json(
        self, status: int, document: dict, retry_after: float | None = None
    ) -> None:
        body = json.dumps(document).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            if retry_after is not None:
                self.send_header("Retry-After", f"{max(retry_after, 0.0):.3f}")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client gave up; nothing to salvage

    def _identity(self) -> str:
        header = self.headers.get("X-Repro-Identity")
        return header.strip() if header else self.client_address[0]

    def _read_body(self) -> dict:
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            # The body's extent is unknown: answer, then hang up.
            self.close_connection = True
            raise ServeError(
                "validation", f"malformed Content-Length header {header!r}"
            )
        length = int(header)
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # the body stays unread
            raise ServeError(
                "validation",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        raw = self.rfile.read(length) if length else b""
        try:
            document = json.loads(raw.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(
                "validation", f"request body is not valid JSON: {exc}"
            ) from exc
        if not isinstance(document, dict):
            raise ServeError(
                "validation",
                f"request body must be a JSON object, got "
                f"{type(document).__name__}",
            )
        return document

    # -- dispatch ------------------------------------------------------
    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    def _route(self, method: str) -> None:
        started = monotonic()
        try:
            status, document, retry_after = self._dispatch(method)
        except ServeError as err:
            status, document, retry_after = (
                err.http_status,
                err.envelope(),
                err.retry_after,
            )
        except Exception as exc:  # noqa: BLE001 - the handler must answer
            err = ServeError("internal", f"{type(exc).__name__}: {exc}")
            status, document, retry_after = (
                err.http_status,
                err.envelope(),
                None,
            )
        self._send_json(status, document, retry_after)
        obs = _obs_active()
        if obs is not None:
            obs.metrics.inc("serve.http.requests")
            obs.metrics.inc(f"serve.http.status.{status}")
            obs.metrics.observe(
                "serve.http.seconds", monotonic() - started
            )

    def _dispatch(self, method: str) -> tuple[int, dict, float | None]:
        path = self.path.rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            health = self.service.health()
            return (200 if health["ok"] else 500), health, None
        if method == "GET" and path == "/readyz":
            readiness = self.service.readiness()
            return (200 if readiness["ready"] else 503), readiness, None
        if method == "GET" and path == "/v1/config":
            return 200, self.service.config.to_dict(), None
        if method == "POST" and path == "/v1/jobs":
            record = self.service.submit(self._read_body(), self._identity())
            return 202, record.status_dict(), None
        if method == "GET" and path.startswith("/v1/jobs/"):
            tail = path[len("/v1/jobs/"):]
            if tail.endswith("/result"):
                return 200, self.service.artifacts(tail[: -len("/result")]), None
            if "/" not in tail:
                return 200, self.service.status(tail), None
        raise ServeError("not_found", f"no route for {method} {self.path}")


class ServerHandle:
    """A running server: the service plus its HTTP front end.

    Construct, :meth:`start`, talk to :attr:`url`; :meth:`drain` for a
    graceful stop (returns clean/dirty), :meth:`close` for teardown.
    Context manager for tests.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        cache: ResultCache | NullCache | None = None,
    ) -> None:
        self.service = CompileService(config, cache)
        self.httpd = _Server((host, port), _Handler)
        self.httpd.service = self.service  # type: ignore[attr-defined]
        self.httpd.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._drained: bool | None = None

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self.httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "ServerHandle":
        self.service.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def drain(self, deadline: float | None = None) -> bool:
        """Graceful stop: drain the service *while still serving HTTP*
        (clients poll their in-flight jobs), then stop the listener.
        Returns ``True`` when nothing was aborted.  Idempotent."""
        if self._drained is None:
            self._drained = self.service.drain(deadline)
            self.httpd.shutdown()
            if self._thread is not None:
                self._thread.join(timeout=5.0)
            self.httpd.server_close()
        return self._drained

    def close(self) -> None:
        self.drain()
        self.service.close()

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_server(
    config: ServeConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 8765,
    cache: ResultCache | NullCache | None = None,
    stream=None,
) -> int:
    """Serve until SIGTERM/SIGINT, then drain.  Returns the process
    exit code: 0 on a clean drain, 1 when jobs had to be aborted.

    Must run on the main thread (it installs signal handlers).  Prints
    one ``listening`` line (machine-greppable — the CI smoke job and
    subprocess tests wait for it) and one drain-summary line.
    """
    stream = stream if stream is not None else sys.stderr
    handle = ServerHandle(config, host, port, cache).start()
    stop = threading.Event()

    def _on_signal(signum, frame) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        print(
            f"repro serve: listening on {handle.url} "
            f"({handle.service.config.describe()})",
            file=stream,
            flush=True,
        )
        stop.wait()
        print(
            "repro serve: signal received, draining "
            f"(deadline {handle.service.config.drain_deadline:g}s)",
            file=stream,
            flush=True,
        )
        started = monotonic()
        clean = handle.drain()
        elapsed = monotonic() - started
        if clean:
            print(
                f"repro serve: drained clean in {elapsed:.2f}s",
                file=stream,
                flush=True,
            )
        else:
            print(
                f"repro serve: hard-stopped after {elapsed:.2f}s "
                "with jobs still in flight (aborted)",
                file=stream,
                flush=True,
            )
        handle.close()
        return 0 if clean else 1
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
