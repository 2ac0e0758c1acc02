"""Load generator for the ``serve-mixed`` workload.

Runs as its own process: ``python3 loadgen.py PLAN.json RESULT.json``.

After an unreported warm-up come the measured rounds, then the steps
of an open-loop ladder (if the plan has one).  Each round is a fixed
count of requests in two passes:

- closed loop: one request of the mix at a time, the next sent the
  moment the previous answer arrived, so latencies are bare round
  trips;
- saturated: HTTP requests sent as fast as the server answers them, up
  to a window pipelined on the connection, so the server alone bounds
  the pass.

The saturated pass's wall time and the server's CPU time over the
whole round (read from ``/proc/<server pid>``) are the workload's
``run_s`` and ``cpu_s``.

In a ladder step, requests are due on a fixed schedule
(constant spacing at each rate) whether or not earlier ones were
answered, and each request's latency runs from its due time to the end
of its response, so a stall is charged to every request queued behind
it.  Two connections at most are open at once:

- one HTTP/1.1 keep-alive connection, pipelined: a due request is
  written at once, responses come back in order;
- one classic port-43 whois connection per query (connect, send one
  line, read to EOF), one at a time; whois queries due while the
  previous one is still open wait for it.

Pacing does not trust a sleep to wake on time: the generator waits in
``select`` (microsecond timeouts) until just before a send is due and
polls ``time.perf_counter`` for the last stretch, so sends leave on
time instead of after a sleep's wake-up jitter.  How late each send
left is recorded; a step whose sends ran late is the generator's
fault, not the server's, and is reported invalid.
"""

from __future__ import annotations

import collections
import errno
import gc
import hashlib
import json
import pathlib
import random
import selectors
import socket
import sys
import time
from typing import Deque, List, Optional, Tuple

from common import percentile, process_cpu_s

#: Sleep in ``select`` (microsecond timeouts, unlike epoll's
#: milliseconds) until this long before the next send is due, then
#: poll: late enough to leave on time, early enough not to spin.
POLL_MARGIN = 0.0003


class Step:
    """Outcome accounting for one ladder rate."""

    def __init__(self, rate: float, count: int):
        self.rate = rate
        self.count = count
        #: (due time, latency) per answered request.
        self.answered: List[Tuple[float, float]] = []
        self.late: List[float] = []
        self.failed = 0
        self.failures: List[str] = []
        self.outstanding = 0
        self.backlog_max = 0
        self.backlog_at_end = 0
        self.first_due = 0.0
        self.last_done = 0.0

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.outstanding -= 1
        if len(self.failures) < 5:
            self.failures.append(reason)

    def done(self, due: float, now: float) -> None:
        self.answered.append((due, now - due))
        self.outstanding -= 1
        self.last_done = max(self.last_done, now)


class HttpConnection:
    """One pipelined keep-alive connection."""

    def __init__(self, address: Tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=2.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        #: (expected index, due time) per request written, in order.
        self.pending: Deque[Tuple[int, float]] = collections.deque()

    def flush(self) -> None:
        while self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:sent]

    def responses(self):
        """Yield complete ``(status, body)`` responses from the buffer."""
        while True:
            end = self.inbuf.find(b"\r\n\r\n")
            if end < 0:
                return
            head = bytes(self.inbuf[:end]).decode("latin-1").split("\r\n")
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            if len(self.inbuf) < end + 4 + length:
                return
            body = bytes(self.inbuf[end + 4:end + 4 + length])
            del self.inbuf[:end + 4 + length]
            yield int(head[0].split(" ", 2)[1]), body

    def close(self) -> None:
        self.sock.close()


class WhoisExchange:
    """One port-43 query: connect, send the line, read to EOF."""

    def __init__(self, address, index: int, due: float, line: bytes):
        self.index = index
        self.due = due
        self.line = line
        self.inbuf = bytearray()
        self.sent = False
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setblocking(False)
        code = self.sock.connect_ex(address)
        if code not in (0, errno.EINPROGRESS):
            self.sock.close()
            raise OSError(code, errno.errorcode.get(code, "connect"))


class Generator:
    def __init__(self, plan: dict):
        self.pool = plan["requests"]
        self.http_address = (plan["host"], plan["http_port"])
        self.whois_address = (plan["host"], plan["whois_port"])
        self.timeout = plan["timeout_seconds"]
        self.clients = [f"user-{n}" for n in range(plan["clients"])]
        self.selector = selectors.SelectSelector()
        self.http: Optional[HttpConnection] = None
        self.whois: Optional[WhoisExchange] = None
        self.whois_queue: Deque[Tuple[int, float]] = collections.deque()
        self._next_expiry = 0.0

    # -- connections ------------------------------------------------

    def _http(self, step: Step) -> Optional[HttpConnection]:
        if self.http is None:
            try:
                self.http = HttpConnection(self.http_address)
            except OSError:
                return None
            self.selector.register(self.http.sock, selectors.EVENT_READ,
                                   "http")
        return self.http

    def _drop_http(self, step: Step, reason: str) -> None:
        if self.http is None:
            return
        for _index, _due in self.http.pending:
            step.fail(reason)
        self.selector.unregister(self.http.sock)
        self.http.close()
        self.http = None

    def _start_whois(self, step: Step) -> None:
        while self.whois is None and self.whois_queue:
            index, due = self.whois_queue.popleft()
            line = self.pool[index]["wire"].encode("utf-8") + b"\r\n"
            try:
                self.whois = WhoisExchange(self.whois_address, index, due,
                                           line)
            except OSError as exc:
                step.fail(f"whois connect: {exc}")
                continue
            self.selector.register(self.whois.sock, selectors.EVENT_WRITE,
                                   "whois")

    def _end_whois(self) -> None:
        self.selector.unregister(self.whois.sock)
        self.whois.sock.close()
        self.whois = None

    # -- events -----------------------------------------------------

    def _on_http(self, step: Step) -> None:
        conn = self.http
        try:
            data = conn.sock.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError as exc:
            self._drop_http(step, f"http: {exc}")
            return
        if not data:
            self._drop_http(step, "http: connection closed")
            return
        conn.inbuf += data
        now = time.perf_counter()
        for status, body in conn.responses():
            index, due = conn.pending.popleft()
            expected = self.pool[index]
            if status != expected["status"]:
                step.fail(f"{expected['wire']}: status {status}, "
                          f"expected {expected['status']}")
            elif hashlib.sha256(body).hexdigest() != expected["sha256"]:
                step.fail(f"{expected['wire']}: wrong body")
            else:
                step.done(due, now)

    def _on_whois(self, step: Step) -> None:
        exchange = self.whois
        if not exchange.sent:
            code = exchange.sock.getsockopt(socket.SOL_SOCKET,
                                            socket.SO_ERROR)
            if code:
                step.fail(f"whois connect: {errno.errorcode.get(code)}")
                self._end_whois()
                return
            try:
                exchange.sock.send(exchange.line)
            except OSError as exc:
                step.fail(f"whois: {exc}")
                self._end_whois()
                return
            exchange.sent = True
            self.selector.modify(exchange.sock, selectors.EVENT_READ,
                                 "whois")
            return
        try:
            data = exchange.sock.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError as exc:
            step.fail(f"whois: {exc}")
            self._end_whois()
            return
        if data:
            exchange.inbuf += data
            return
        expected = self.pool[exchange.index]
        if hashlib.sha256(exchange.inbuf).hexdigest() != expected["sha256"]:
            step.fail(f"whois {expected['wire']}: wrong answer")
        else:
            step.done(exchange.due, time.perf_counter())
        self._end_whois()

    def _expire(self, step: Step, now: float) -> None:
        if self.http is not None and self.http.pending:
            if now - self.http.pending[0][1] > self.timeout:
                self._drop_http(step, "http: timed out")
        if self.whois is not None and now - self.whois.due > self.timeout:
            step.fail("whois: timed out")
            self._end_whois()
        while self.whois_queue and now - self.whois_queue[0][1] > self.timeout:
            self.whois_queue.popleft()
            step.fail("whois: timed out in queue")

    # -- sending ----------------------------------------------------

    def _send(self, step: Step, index: int, client: str,
              due: float) -> None:
        request = self.pool[index]
        step.outstanding += 1
        if request["kind"] == "whois":
            self.whois_queue.append((index, due))
        else:
            conn = self._http(step)
            if conn is None:
                step.fail("http: connect refused")
            else:
                conn.out += (
                    f"GET {request['wire']} HTTP/1.1\r\n"
                    f"Host: bench\r\n"
                    f"X-Client-Id: {client}\r\n\r\n"
                ).encode("latin-1")
                conn.pending.append((index, due))
                try:
                    conn.flush()
                except OSError as exc:
                    self._drop_http(step, f"http: {exc}")
        self._start_whois(step)
        step.late.append(time.perf_counter() - due)
        step.backlog_max = max(step.backlog_max, step.outstanding)

    def _poll(self, step: Step, timeout: float) -> None:
        if self.http is not None and self.http.out:
            try:
                self.http.flush()
            except OSError as exc:
                self._drop_http(step, f"http: {exc}")
        for key, _mask in self.selector.select(timeout):
            if key.data == "http" and self.http is not None:
                self._on_http(step)
            elif key.data == "whois" and self.whois is not None:
                self._on_whois(step)
        self._start_whois(step)
        now = time.perf_counter()
        if now >= self._next_expiry:
            self._expire(step, now)
            self._next_expiry = now + 0.05

    # -- the two loops ------------------------------------------------

    def run_open(self, rate: float, seconds: float, rng) -> Step:
        """Requests due every ``1/rate`` seconds, sent on time whether
        or not earlier ones were answered."""
        count = max(1, int(rate * seconds))
        picks = [rng.randrange(len(self.pool)) for _ in range(count)]
        clients = [rng.choice(self.clients) for _ in range(count)]
        step = Step(rate, count)
        start = time.perf_counter() + 0.05
        step.first_due = start
        self._next_expiry = start
        interval = 1.0 / rate
        sent = 0
        while sent < count or step.outstanding > 0:
            now = time.perf_counter()
            while sent < count and start + sent * interval <= now:
                self._send(step, picks[sent], clients[sent],
                           start + sent * interval)
                sent += 1
                if sent == count:
                    step.backlog_at_end = step.outstanding
            if sent < count:
                wait = start + sent * interval - time.perf_counter()
                timeout = wait - POLL_MARGIN if wait > POLL_MARGIN else 0
            else:
                timeout = 0.01
            self._poll(step, timeout)
        return step

    def run_closed(self, count: int, rng) -> Step:
        """One client at a time: each request is sent the moment the
        previous answer arrived, so latency is the bare round trip."""
        step = Step(0, count)
        step.first_due = self._next_expiry = time.perf_counter()
        sent = 0
        while sent < count or step.outstanding > 0:
            if step.outstanding <= 0:
                self._send(step, rng.randrange(len(self.pool)),
                           rng.choice(self.clients), time.perf_counter())
                sent += 1
            self._poll(step, 0.01)
        return step

    def run_saturated(self, count: int, window: int, rng) -> Step:
        """``count`` HTTP requests sent as fast as the server answers
        them, at most ``window`` in flight.  Whois stays out: one query
        per connection, one at a time, its chain would wait on wake-ups
        rather than on the server."""
        http = [n for n, request in enumerate(self.pool)
                if request["kind"] == "http"]
        picks = collections.deque(rng.choice(http) for _ in range(count))
        step = Step(0, count)
        step.first_due = self._next_expiry = time.perf_counter()
        while picks or step.outstanding > 0:
            while picks and (self.http is None
                             or len(self.http.pending) < window):
                self._send(step, picks.popleft(), rng.choice(self.clients),
                           time.perf_counter())
            self._poll(step, 0.01)
        return step


def summarize(step: Step, limit_ms: float, late_limit_ms: float) -> dict:
    latencies_ms = [latency * 1000.0 for _due, latency in step.answered]
    late_ms = [x * 1000.0 for x in step.late]
    p99 = percentile(latencies_ms, 99)
    late_p99 = percentile(late_ms, 99)
    span = step.last_done - step.first_due
    growing = step.backlog_at_end > max(10.0, step.rate * limit_ms / 1000.0)
    return {
        "rate": step.rate,
        "attempted": step.count,
        "failed": step.failed,
        "failures": step.failures,
        "p50_ms": percentile(latencies_ms, 50),
        "p99_ms": p99,
        "samples": len(latencies_ms),
        "late_p99_ms": late_p99,
        "backlog_max": step.backlog_max,
        "backlog_at_end": step.backlog_at_end,
        "achieved_rps": len(latencies_ms) / span if span > 0 else 0.0,
        "valid": late_p99 <= late_limit_ms,
        "sustained": (step.failed == 0 and p99 <= limit_ms
                      and not growing),
        "latencies_ms": latencies_ms,
    }


def main(argv: List[str]) -> int:
    plan = json.loads(pathlib.Path(argv[1]).read_text())
    generator = Generator(plan)
    rng = random.Random(plan["seed"])
    limits = (plan["latency_limit_ms"], plan["late_limit_ms"])
    server_pid = plan["server_pid"]
    rounds = []
    steps = []
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        warmup = summarize(generator.run_open(*plan["warmup"], rng), *limits)
        for _ in range(plan["rounds"]):
            time.sleep(plan["gap_seconds"])
            cpu_before = process_cpu_s(server_pid)
            closed = generator.run_closed(plan["closed_requests"], rng)
            started = time.perf_counter()
            saturated = generator.run_saturated(
                plan["saturated_requests"], plan["window"], rng)
            rounds.append({
                "wall_s": time.perf_counter() - started,
                "server_cpu_s": process_cpu_s(server_pid) - cpu_before,
                "closed": summarize(closed, *limits),
                "saturated": summarize(saturated, *limits),
            })
        for rate, seconds in plan["steps"]:
            time.sleep(plan["gap_seconds"])
            steps.append(summarize(generator.run_open(rate, seconds, rng),
                                   *limits))
    finally:
        gc.enable()
        if generator.http is not None:
            generator.http.close()
    pathlib.Path(argv[2]).write_text(json.dumps(
        {"warmup": warmup, "rounds": rounds, "steps": steps}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
