"""End-to-end service smoke: the acceptance demo, runnable in CI.

Spawns the daemon as a real subprocess, then from 8 concurrent client
threads submits 4 *unique* suite configurations (each submitted twice).
Asserts the whole contract in one pass:

* exactly 4 pool executions — the single-flight/dedup counters on
  ``/metrics`` prove the other 4 submissions were absorbed;
* every returned result document is byte-identical to a direct
  in-process ``run_suite`` + ``dump_json`` of the same configuration;
* ``/metrics`` exposes the ``service.*`` series and ``/metrics.json``
  validates as a ``repro.obs/metrics`` v1 document;
* one traced request (``"trace": true``, a fresh seed) yields a merged
  cross-process timeline on ``/v1/jobs/<id>/trace`` — HTTP accept,
  queue wait, pool gang and worker-side experiment spans under one
  trace id — while its result stays byte-identical to an untraced
  direct run (tracing observes, never perturbs), and the shipped
  ``repro-zen2 obs validate`` CLI accepts the trace (it lands in
  ``$REPRO_SMOKE_ARTIFACT_DIR`` when set, so CI can upload it);
* SIGTERM drains gracefully: the process exits 0 on its own.

Run it via ``make service-smoke`` or ``python -m repro.service smoke``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import urllib.error
import urllib.request

from repro.core.experiment import ExperimentConfig
from repro.core.suite import run_suite, suite_to_dict
from repro.obs import validate_metrics_document, validate_trace_document

#: Two fast registry entries keep the smoke under a CI minute.
ENTRIES = ["sec5a_idle_sibling", "sec7_rapl_update_rate"]
SCALE = 0.02
SEEDS = [0, 1, 2, 3]  # 4 unique configs
CLIENTS = 8  # each config submitted twice
TRACE_SEED = 4  # the traced request uses its own config (5th execution)


def _request(port: int, path: str, body: dict | None = None) -> tuple[int, bytes]:
    url = f"http://127.0.0.1:{port}{path}"
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def _client(port: int, seed: int, out: dict[int, bytes], lock: threading.Lock):
    body = {
        "tenant": f"smoke-{seed % 2}",
        "entries": ENTRIES,
        "config": {"seed": seed, "scale": SCALE},
    }
    status, payload = _request(port, "/v1/jobs", body)
    assert status in (200, 202), (status, payload)
    job_id = json.loads(payload)["id"]
    while True:
        status, payload = _request(port, f"/v1/jobs/{job_id}?wait_s=30")
        assert status == 200, (status, payload)
        doc = json.loads(payload)
        if doc["state"] in ("done", "failed"):
            break
    assert doc["state"] == "done", doc
    status, payload = _request(port, f"/v1/jobs/{job_id}/result")
    assert status == 200, (status, payload)
    with lock:
        out[seed] = payload


def _parse_prometheus(text: str) -> dict[str, float]:
    series = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        series[name] = float(value)
    return series


def run_smoke() -> int:
    workdir = tempfile.mkdtemp(prefix="repro-service-smoke-")
    env = dict(os.environ, REPRO_CACHE_DIR=os.path.join(workdir, "cache"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    try:
        assert proc.stdout is not None
        banner = proc.stdout.readline()
        assert "listening on" in banner, banner
        port = int(banner.rsplit(":", 1)[1])
        print(f"smoke: daemon up on port {port}")

        results: dict[int, bytes] = {}
        lock = threading.Lock()
        threads = [
            threading.Thread(target=_client, args=(port, seed, results, lock))
            for seed in SEEDS
            for _ in range(CLIENTS // len(SEEDS))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads), "client thread hung"
        assert sorted(results) == SEEDS, sorted(results)
        print(f"smoke: {CLIENTS} clients done, {len(results)} unique configs")

        # Exactly one pool execution per unique config: the dedup proof.
        status, payload = _request(port, "/metrics")
        assert status == 200
        series = _parse_prometheus(payload.decode())
        executions = series.get("repro_service_executions", 0.0)
        assert executions == len(SEEDS), (
            f"expected exactly {len(SEEDS)} executions, metrics say "
            f"{executions}"
        )
        assert any(n.startswith("repro_service_") for n in series), series
        deduped = sum(
            v for n, v in series.items() if n.startswith("repro_service_dedup")
        )
        assert deduped >= CLIENTS - len(SEEDS), series
        print(f"smoke: executions={executions:g} dedup-absorbed={deduped:g}")

        status, payload = _request(port, "/metrics.json")
        assert status == 200
        problems = validate_metrics_document(json.loads(payload))
        assert problems == [], problems

        # Byte-identical to a direct in-process run of the same config.
        for seed in SEEDS:
            direct = suite_to_dict(
                run_suite(
                    ExperimentConfig(seed=seed, scale=SCALE), only=ENTRIES
                )
            )
            expected = (
                json.dumps(direct, indent=2, sort_keys=True) + "\n"
            ).encode()
            assert results[seed] == expected, (
                f"seed {seed}: service document differs from direct run"
            )
        print("smoke: all 4 result documents byte-identical to direct runs")

        artifact_dir = os.environ.get("REPRO_SMOKE_ARTIFACT_DIR") or (
            os.path.join(workdir, "artifacts")
        )
        os.makedirs(artifact_dir, exist_ok=True)

        # One traced request end to end: same entries, a fresh seed, so
        # the executions==4 dedup proof above stays untouched.
        body = {
            "tenant": "smoke-trace",
            "entries": ENTRIES,
            "config": {"seed": TRACE_SEED, "scale": SCALE},
            "trace": True,
        }
        status, payload = _request(port, "/v1/jobs", body)
        assert status in (200, 202), (status, payload)
        job_id = json.loads(payload)["id"]
        while True:
            status, payload = _request(port, f"/v1/jobs/{job_id}?wait_s=30")
            assert status == 200, (status, payload)
            job_doc = json.loads(payload)
            if job_doc["state"] in ("done", "failed"):
                break
        assert job_doc["state"] == "done", job_doc
        assert job_doc["trace_id"], job_doc

        # Tracing observes, never perturbs: the traced result is still
        # byte-identical to an *untraced* direct run.
        status, payload = _request(port, f"/v1/jobs/{job_id}/result")
        assert status == 200, (status, payload)
        direct = suite_to_dict(
            run_suite(
                ExperimentConfig(seed=TRACE_SEED, scale=SCALE), only=ENTRIES
            )
        )
        expected = (
            json.dumps(direct, indent=2, sort_keys=True) + "\n"
        ).encode()
        assert payload == expected, (
            "traced result differs from untraced direct run"
        )

        status, payload = _request(port, f"/v1/jobs/{job_id}/trace")
        assert status == 200, (status, payload)
        trace = json.loads(payload)
        problems = validate_trace_document(trace)
        assert problems == [], problems
        assert trace["otherData"]["trace_id"] == job_doc["trace_id"], (
            trace["otherData"]
        )
        spans = {
            e["name"] for e in trace["traceEvents"] if e.get("ph") == "X"
        }
        assert {"http.accept", "queue.wait", "pool.gang", "suite"} <= spans, (
            sorted(spans)
        )
        cats = {
            e.get("cat") for e in trace["traceEvents"] if e.get("ph") == "X"
        }
        assert "experiment" in cats, sorted(c for c in cats if c)
        trace_path = os.path.join(artifact_dir, "smoke-trace.json")
        with open(trace_path, "w") as fh:
            fh.write(json.dumps(trace, indent=2, sort_keys=True) + "\n")
        print(
            f"smoke: traced request merged "
            f"{trace['otherData']['merged']} process timelines under "
            f"trace_id {job_doc['trace_id']}"
        )

        # The shipped inspector CLI accepts the trace artifact.
        inspect = subprocess.run(
            [sys.executable, "-m", "repro.obs", "validate", trace_path],
            capture_output=True,
            text=True,
        )
        assert inspect.returncode == 0, (inspect.stdout, inspect.stderr)
        print("smoke: trace validates via obs validate")

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, (proc.returncode, out)
        assert "drained" in out, out
        print("smoke: SIGTERM drained cleanly, exit 0")
        print("service smoke OK")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run_smoke())
