"""``serve``: ``repro serve`` on a fresh store, driven by closed-loop
callers that each wait for their answer.

Set-up boots the server, registers warm-up fleets and queries them
until every worker process has computed (so no measured cold query pays
a worker's first import), then materializes one fleet's event trace.
The measured phases share one keep-alive connection and take turns,
one round per fleet:

* cold — a fresh fleet answered q1 → q2 → q3, then q2 at another tail
  quantile on the now-warm fleet (``incremental``: only the answer
  stage recomputes, the simulation is read from the store);
* warm — the cached answers so far, cycled;
* pages — the materialized trace walked in 1000-event ``/events``
  pages.

Every response must be 200; cold answers say ``served_from: computed``,
warm ones ``cache`` with the cold payload; page ``seq`` values are
contiguous.  The workload is one process with at most ``nproc`` threads
or connections.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import pathlib
import resource
import signal
import subprocess
import sys
import threading
import time

from common import ROOT, Outcomes, median, peak_rss_mb, quantile, work_dir

NPROC = os.cpu_count() or 1
#: Fleets answered cold per run, and their size (small enough that a
#: cold q1+q2+q3 is about half a second, large enough to be non-trivial).
K_FLEETS = 16
FLEET_SCALE = 0.08
FLEET_DAYS = 120
QUERY_KINDS = ("q1", "q2", "q3")
#: The incremental query: q2 at a tail quantile other than the default
#: 0.999 (a re-ranking heavy enough to time steadily, unlike a q1 at
#: another SLA, which answers in a few milliseconds).
INCREMENTAL_QUERY = "q2?peak_quantile=0.99"
PAGE_EVENTS = 1000
#: Worker CPU seconds that show a worker has run a computation.
WORKER_WARM_CPU_S = 0.3
WARMUP_ROUNDS = 4
TIMEOUT_S = 120.0


def fleet_params(seed: int) -> dict:
    return {"seed": seed, "scale": FLEET_SCALE, "days": FLEET_DAYS}


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=TIMEOUT_S)

    def request(self, method: str, path: str, body: dict | None = None):
        """(status, body bytes, seconds); status 0 when the exchange
        failed (timeout, reset), after which the connection reopens."""
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        start = time.perf_counter()
        try:
            self.connection.request(method, path, body=data, headers=headers)
            response = self.connection.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as error:
            self.connection.close()
            raw, status = repr(error).encode(), 0
        return status, raw, time.perf_counter() - start

    def get_json(self, path: str):
        status, raw, seconds = self.request("GET", path)
        return status, json.loads(raw) if status else {}, seconds

    def close(self) -> None:
        self.connection.close()


class Server:
    """A ``repro serve`` process on an ephemeral port."""

    def __init__(self, store_dir: pathlib.Path):
        self.log_path = store_dir.parent / "server.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store-dir", str(store_dir), "--workers", str(NPROC),
             "--timeout", str(TIMEOUT_S)],
            env=env, stdout=subprocess.DEVNULL, stderr=self._log,
            cwd=str(ROOT))
        self.port = self._wait_for_banner()

    def _wait_for_banner(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            text = self.log_path.read_text()
            if "listening on http://" in text:
                address = text.split("listening on http://")[1].split()[0]
                return int(address.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"server failed to boot: {self.log_path.read_text()}")

    def worker_cpu_s(self) -> dict[int, float]:
        """CPU seconds of each worker process (Linux ``/proc``)."""
        pid = self.process.pid
        children: list[int] = []
        for task in pathlib.Path(f"/proc/{pid}/task").iterdir():
            text = (task / "children").read_text().split()
            children.extend(int(child) for child in text)
        ticks = os.sysconf("SC_CLK_TCK")
        cpu = {}
        for child in children:
            fields = pathlib.Path(f"/proc/{child}/stat").read_text()
            fields = fields.rsplit(")", 1)[1].split()
            cpu[child] = (int(fields[11]) + int(fields[12])) / ticks
        return cpu

    def stop(self) -> None:
        """SIGTERM (a graceful drain), killing after a minute; sets
        :attr:`returncode`."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.returncode = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            self.returncode = None
        finally:
            self._log.close()


def _strip_meta(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "meta"}


class ServeState:
    def __init__(self, seed: int):
        self.seed = seed
        self.outcomes = Outcomes()
        self._cleanup = contextlib.ExitStack()
        try:
            scratch = self._cleanup.enter_context(work_dir("serve"))
            self.server = Server(scratch / "store")
            self._cleanup.callback(self.server.stop)
            self.warmup_rounds = self._warm_up()
            self.pages_fleet, self.n_events = self._materialize_events()
        except BaseException:
            self._cleanup.close()
            raise

    def register(self, client: Client, name: str, seed: int) -> None:
        status, raw, _ = client.request(
            "POST", "/v1/fleets",
            {"name": name, "params": fleet_params(seed)})
        self.outcomes.record(status == 200,
                             f"register {name} -> {status}: {raw[:200]!r}")

    def _warm_up(self) -> int:
        """Cold-query warm-up fleets on ``NPROC`` connections at once until
        every worker process has computed."""
        for round_index in range(WARMUP_ROUNDS):
            def warm(slot: int) -> None:
                client = Client(self.server.port)
                try:
                    name = f"warmup-{round_index}-{slot}"
                    self.register(client, name, self.seed * 1000 + 500
                                   + round_index * NPROC + slot)
                    for kind in QUERY_KINDS:
                        status, _, _ = client.request(
                            "GET", f"/v1/fleets/{name}/{kind}")
                        self.outcomes.record(
                            status == 200, f"warm-up {name} {kind} {status}")
                finally:
                    client.close()

            threads = [threading.Thread(target=warm, args=(slot,))
                       for slot in range(NPROC)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            cpu = self.server.worker_cpu_s()
            if len(cpu) >= NPROC and min(cpu.values()) >= WORKER_WARM_CPU_S:
                return round_index + 1
        raise RuntimeError(f"workers never all computed: {cpu}")

    def _materialize_events(self):
        client = Client(self.server.port)
        try:
            fleet = "warmup-0-0"
            status, payload, _ = client.get_json(
                f"/v1/fleets/{fleet}/events?offset=0&limit=1")
            self.outcomes.record(status == 200, f"materialize events {status}")
            return fleet, int(payload["n_events"])
        finally:
            client.close()

    def metrics(self, client: Client | None = None) -> dict:
        """A ``/metrics`` snapshot (on ``client``'s connection if given)."""
        if client is not None:
            return client.get_json("/metrics")[1]
        client = Client(self.server.port)
        try:
            return client.get_json("/metrics")[1]
        finally:
            client.close()

    def close(self) -> float:
        """Stop the server; returns the peak RSS of its process tree."""
        self._cleanup.close()
        code = self.server.returncode
        self.outcomes.check(code == 0, f"server exited {code}")
        return peak_rss_mb(resource.RUSAGE_CHILDREN)


def setup(seed: int) -> ServeState:
    return ServeState(seed)


def teardown(state: ServeState) -> None:
    state.close()


class Session:
    """The measured phases on one keep-alive connection, interleaved in
    ``K_FLEETS`` rounds (cold fleet, then warm answers, then event
    pages) so that every phase samples the whole run."""

    def __init__(self, state: ServeState, outcomes: Outcomes):
        self.state = state
        self.outcomes = outcomes
        self.client = Client(state.server.port)
        self.cold: list[float] = []
        self.by_kind: dict[str, list[float]] = {k: [] for k in QUERY_KINDS}
        self.incremental: list[float] = []
        self.answers: dict[tuple[str, str], dict] = {}
        self.warm: list[float] = []
        self.pages: list[float] = []
        self.page_bytes: list[int] = []
        self.offset = 0
        self.warm_server = [0, 0.0]  # requests, seconds per /metrics

    def cold_fleet(self, index: int) -> None:
        self.outcomes.phase = "cold"
        name = f"fleet-{index}"
        self.state.register(self.client, name, self.state.seed * 1000 + index)
        total = 0.0
        for kind in QUERY_KINDS:
            status, payload, seconds = self.client.get_json(
                f"/v1/fleets/{name}/{kind}")
            served = payload.get("meta", {}).get("served_from")
            self.outcomes.record(status == 200 and served == "computed",
                                 f"{name} {kind}: {status} {served}")
            total += seconds
            self.by_kind[kind].append(seconds)
            self.answers[(name, kind)] = _strip_meta(payload)
        self.cold.append(total)
        self.outcomes.phase = "incremental"
        status, payload, seconds = self.client.get_json(
            f"/v1/fleets/{name}/{INCREMENTAL_QUERY}")
        served = payload.get("meta", {}).get("served_from")
        self.outcomes.record(status == 200 and served == "computed",
                             f"{name} {INCREMENTAL_QUERY}: {status} {served}")
        self.incremental.append(seconds)

    def warm_answers(self, seconds: float) -> None:
        self.outcomes.phase = "warm"
        keys = list(self.answers)
        before = _endpoint_totals(self.state.metrics(self.client))
        deadline = time.perf_counter() + seconds
        done = 0
        while done < 40 or time.perf_counter() < deadline:
            name, kind = keys[done % len(keys)]
            status, payload, elapsed = self.client.get_json(
                f"/v1/fleets/{name}/{kind}")
            self.warm.append(elapsed)
            done += 1
            self.outcomes.record(
                status == 200
                and payload.get("meta", {}).get("served_from") == "cache"
                and _strip_meta(payload) == self.answers[(name, kind)],
                f"{name} {kind}: {status} or payload differs")
        after = _endpoint_totals(self.state.metrics(self.client))
        self.warm_server[0] += after[0] - before[0]
        self.warm_server[1] += after[1] - before[1]

    def event_pages(self, seconds: float) -> None:
        self.outcomes.phase = "pages"
        n_events = self.state.n_events
        deadline = time.perf_counter() + seconds
        done = 0
        while done < 3 or time.perf_counter() < deadline:
            offset = self.offset
            status, raw, elapsed = self.client.request(
                "GET", f"/v1/fleets/{self.state.pages_fleet}/events"
                       f"?offset={offset}&limit={PAGE_EVENTS}")
            payload = json.loads(raw) if status == 200 else {}
            seqs = [event["seq"] for event in payload.get("events", ())]
            want = min(PAGE_EVENTS, n_events - offset)
            self.outcomes.record(
                status == 200 and seqs == list(range(offset, offset + want)),
                f"page at {offset}: {status}, seq not contiguous")
            self.pages.append(elapsed)
            self.page_bytes.append(len(raw))
            self.offset = 0 if offset + want >= n_events else offset + want
            done += 1


def measure(state: ServeState, seconds: float, tracer=None) -> dict:
    outcomes = state.outcomes
    try:
        before = state.metrics()
        session = Session(state, outcomes)
        try:
            for index in range(K_FLEETS):
                session.cold_fleet(index)
                session.warm_answers(seconds / 8 / K_FLEETS)
                session.event_pages(seconds / 2 / K_FLEETS)
        finally:
            session.client.close()
        after = state.metrics()
        layers = None
        if tracer is not None:
            outcomes.phase = "throughput"
            per_s = _throughput(state, session.answers,
                                min(seconds / 4, 3.0), outcomes)
            layers = _serve_layers(session, before, after, per_s)
    finally:
        outcomes.phase = "shutdown"
        rss = state.close()
    metrics = {
        "cold_s": median(session.cold),
        "incremental_s": median(session.incremental),
        "events_per_s": PAGE_EVENTS / median(session.pages),
        "peak_rss_mb": rss,
    }
    return {
        "metrics": metrics, "layers": layers, "outcomes": outcomes,
        "samples": {"cold_s": len(session.cold),
                    "incremental_s": len(session.incremental),
                    "events_per_s": len(session.pages)},
        "diagnostics": {"warmup_rounds": state.warmup_rounds,
                        "page_fleet_events": state.n_events},
    }


def _throughput(state, answers, seconds, outcomes) -> float:
    """Warm answers per second at ``NPROC`` keep-alive connections."""
    keys = list(answers)
    done = [0] * NPROC
    deadline = time.perf_counter() + seconds

    def caller(slot: int) -> None:
        client = Client(state.server.port)
        try:
            while time.perf_counter() < deadline:
                name, kind = keys[(slot + done[slot]) % len(keys)]
                status, _, _ = client.request("GET", f"/v1/fleets/{name}/{kind}")
                outcomes.record(status == 200, f"{name} {kind}: {status}")
                done[slot] += 1
        finally:
            client.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=caller, args=(slot,))
               for slot in range(NPROC)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(done) / (time.perf_counter() - start)


def _endpoint_totals(snapshot: dict) -> tuple[int, float, int, int]:
    """(requests, latency seconds, hits, misses) over the query kinds."""
    requests = seconds = hits = misses = 0
    for kind in QUERY_KINDS:
        endpoint = snapshot.get("endpoints", {}).get(kind)
        if not endpoint:
            continue
        count = endpoint["latency"]["count"]
        requests += count
        seconds += (endpoint["latency"]["mean_ms"] or 0.0) * count / 1e3
        hits += endpoint["cache"]["hits"]
        misses += endpoint["cache"]["misses"]
    return requests, seconds, hits, misses


def _serve_layers(session: Session, before: dict, after: dict,
                  per_s: float) -> dict:
    _, _, hits0, misses0 = _endpoint_totals(before)
    _, _, hits1, misses1 = _endpoint_totals(after)
    looked_up = (hits1 - hits0) + (misses1 - misses0)
    requests, server_s = session.warm_server
    server_ms = 1e3 * server_s / max(1, requests)
    warm = session.warm
    return {
        "serve.cold_q1_ms": 1e3 * median(session.by_kind["q1"]),
        "serve.cold_q2_ms": 1e3 * median(session.by_kind["q2"]),
        "serve.cold_q3_ms": 1e3 * median(session.by_kind["q3"]),
        "serve.handler_ms": server_ms,
        "serve.transport_ms": 1e3 * sum(warm) / len(warm) - server_ms,
        "serve.hit_ratio": (hits1 - hits0) / looked_up if looked_up else 0.0,
        "serve.coalesced": int(after.get("coalesced_requests", 0)
                               - before.get("coalesced_requests", 0)),
        "serve.warm_p50_ms": 1e3 * median(warm),
        "serve.warm_p99_ms": 1e3 * quantile(warm, 0.99),
        "serve.warm_per_s": per_s,
        "serve.page_p50_ms": 1e3 * median(session.pages),
        "serve.page_p95_ms": 1e3 * quantile(session.pages, 0.95),
        "serve.page_bytes": median(session.page_bytes),
    }
