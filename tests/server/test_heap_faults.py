"""``repro-serve`` keeps the model pass's memory mapped between batches.

With glibc's default malloc thresholds a 32-row RoBERTa pass faults about
1,900 fresh zeroed pages back in on every request.  ``repro.server.cli.main``
raises the thresholds once at start-up, and ``/healthz`` reports the
process's ``minor_faults`` so the per-request cost can be read off a live
server.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.data.splits import train_val_test_split
from repro.models.registry import create_model
from repro.models.transformer_classifier import TransformerClassifierConfig
from repro.server import cli as serve_cli
from tests.cluster.conftest import wait_until
from tests.server.conftest import ServerClient

REQUESTS = 50
BATCH = 32
#: Per-request budget; glibc's default thresholds cost about 1,900.
MAX_FAULTS_PER_REQUEST = 100


@pytest.fixture(scope="module")
def roberta_export_dir(tiny_corpus, tmp_path_factory):
    """The benchmark's RoBERTa: default encoder size, one fine-tuning epoch."""
    path = tmp_path_factory.mktemp("roberta-bundle")
    splits = train_val_test_split(tiny_corpus, seed=11)
    model = create_model(
        "roberta",
        label_space=tuple(sorted(set(tiny_corpus.cuisines))),
        transformer_config=TransformerClassifierConfig(pretrain_epochs=0, epochs=1),
    )
    model.fit(splits.train, splits.validation)
    model.save_bundle(path / "roberta")
    return path


def _read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):  # not written yet, or mid-write
        return None


@pytest.mark.skipif(
    serve_cli._libc_mallopt() is None, reason="libc has no mallopt"
)
def test_roberta_requests_do_not_refault_the_heap(
    roberta_export_dir, tiny_corpus, tmp_path
):
    ready = tmp_path / "ready.json"
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.server.cli",
            "--export-dir", str(roberta_export_dir), "--route", "cuisine",
            "--port", "0", "--ready-file", str(ready), "--log-level", "WARNING",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    sequences = [list(recipe.sequence) for recipe in tiny_corpus.recipes]

    def batch(index: int) -> list[list[str]]:
        # A distinct extra item per row: every row misses the result cache.
        return [
            sequences[(index * BATCH + row) % len(sequences)] + [f"item-{index}-{row}"]
            for row in range(BATCH)
        ]

    try:
        wait_until(lambda: ready.exists() or process.poll() is not None, timeout=120)
        assert process.poll() is None, process.stdout.read()
        info = wait_until(lambda: _read_json(ready))
        client = ServerClient(info["port"])
        try:
            def predict(index: int) -> None:
                status, body = client.request(
                    "POST", "/routes/cuisine/predict", {"sequences": batch(index)}
                )
                assert status == 200 and body["count"] == BATCH, body

            def minor_faults() -> int:
                status, health = client.request("GET", "/healthz")
                assert status == 200
                faults = health["process"]["minor_faults"]
                assert isinstance(faults, int)
                return faults

            for index in range(5):  # warm-up: first-touch pages are expected
                predict(index)
            before = minor_faults()
            for index in range(5, 5 + REQUESTS):
                predict(index)
            per_request = (minor_faults() - before) / REQUESTS
        finally:
            client.close()
    finally:
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=60)
    assert process.returncode == 0, output
    assert per_request <= MAX_FAULTS_PER_REQUEST, per_request


class _LibcWithoutMallopt:
    pass


def _unloadable_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize(
    "cdll", [lambda name: _LibcWithoutMallopt(), _unloadable_libc],
    ids=["no-mallopt", "no-libc"],
)
def test_missing_mallopt_is_a_no_op(monkeypatch, cdll):
    monkeypatch.setattr(serve_cli.ctypes, "CDLL", cdll)
    assert serve_cli._libc_mallopt() is None
    assert serve_cli.keep_heap_mapped() is False


def test_heap_is_set_before_any_bundle_loads(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(serve_cli, "keep_heap_mapped", lambda: calls.append("heap"))

    def load(*args, **kwargs):
        calls.append("load")
        raise SystemExit("stop before serving")

    monkeypatch.setattr(serve_cli, "_export_gateway", load)
    with pytest.raises(SystemExit):
        serve_cli.main(["--export-dir", str(tmp_path), "--log-level", "WARNING"])
    assert calls == ["heap", "load"]
