"""Set-up of one workload: corpus, training, bundle export, server, warm-up.

Every step runs the repository's own code from ``src/``; the benchmark
only times it.  The server is the shipped ``repro-serve`` in its own
process with its shipped defaults (or the same command under
``traced_server.py`` for the traced run).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from loadgen import HttpConnection, post

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The training corpus is fixed (the ``repro-serve --demo`` corpus), so
#: every seed serves the same model and only the request stream varies.
TRAIN_SCALE = 0.004
TRAIN_SEED = 11
ROUTE = "cuisine"
READY_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0


def model_factory(name: str):
    """The registry model of a workload, on a small fixed training budget."""
    from repro.models.registry import create_model
    from repro.models.transformer_classifier import TransformerClassifierConfig

    if name == "logreg":
        return lambda labels: create_model("logreg", label_space=labels, max_iter=40)
    if name == "roberta":
        # Fine-tuning only: MLM pretraining would add set-up time without
        # changing the forward pass that is served.
        config = TransformerClassifierConfig(pretrain_epochs=0, epochs=1)
        return lambda labels: create_model(
            "roberta", label_space=labels, transformer_config=config
        )
    raise ValueError(f"no training recipe for model {name!r}")


def train_and_export(model_name: str, export_dir: Path) -> tuple[Path, dict[str, float], list]:
    """Generate the corpus, train, export; return (bundle, timings, warm-up sequences)."""
    from repro.data import generate_recipedb
    from repro.data.splits import train_val_test_split

    started = time.perf_counter()
    corpus = generate_recipedb(scale=TRAIN_SCALE, seed=TRAIN_SEED)
    splits = train_val_test_split(corpus, seed=TRAIN_SEED)
    labels = tuple(sorted(set(corpus.cuisines)))
    corpus_done = time.perf_counter()
    model = model_factory(model_name)(labels)
    model.fit(splits.train, splits.validation)
    trained = time.perf_counter()
    bundle = model.save_bundle(export_dir / model_name)
    exported = time.perf_counter()
    timings = {
        "corpus_s": corpus_done - started,
        "train_s": trained - corpus_done,
        "export_s": exported - trained,
    }
    warm = list(dict.fromkeys(tuple(s) for s in splits.test.sequences))
    return Path(bundle), timings, warm


class ServerProcess:
    """``repro-serve`` on an ephemeral port, serving one bundle as ``cuisine``."""

    def __init__(self, export_dir: Path, workdir: Path, span_file: Path | None = None) -> None:
        self.workdir = workdir
        self.ready_file = workdir / f"ready-{time.monotonic_ns()}.json"
        self.log_path = self.ready_file.with_suffix(".log")
        serve_args = [
            "--export-dir", str(export_dir), "--route", ROUTE,
            "--port", "0", "--ready-file", str(self.ready_file),
        ]
        if span_file is None:
            self.argv = [sys.executable, "-m", "repro.server.cli", *serve_args]
        else:
            launcher = Path(__file__).resolve().parent / "traced_server.py"
            self.argv = [sys.executable, str(launcher), str(span_file), "--", *serve_args]
        self.process: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait until the socket is bound; returns seconds taken."""
        started = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                self.argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        while not self.ready_file.exists():
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}:\n{self.log()}")
            if time.perf_counter() - started > READY_TIMEOUT:
                raise RuntimeError(f"server not ready after {READY_TIMEOUT}s:\n{self.log()}")
            time.sleep(0.005)
        # The ready file is written in one call; re-read until it parses.
        while True:
            try:
                self.port = int(json.loads(self.ready_file.read_text())["port"])
                break
            except (ValueError, KeyError):
                time.sleep(0.001)
        return time.perf_counter() - started

    def connect(self) -> HttpConnection:
        return HttpConnection("127.0.0.1", self.port)

    def health(self) -> dict:
        """The server's ``/healthz`` document."""
        connection = self.connect()
        try:
            return connection.get_json("/healthz")
        finally:
            connection.close()

    def log(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-4000:]
        except OSError:
            return ""

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if the drain hangs."""
        process = self.process
        if process is None or process.poll() is not None:
            return
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        if process.returncode != 0:
            raise RuntimeError(f"server exited with {process.returncode}:\n{self.log()}")


def warm_up(server: ServerProcess, sequences: list, batch: int) -> None:
    """Prime the server with distinct training-corpus requests (all misses)."""
    connection = server.connect()
    try:
        if batch == 1:
            requests = [post(f"/routes/{ROUTE}/predict", {"sequence": list(s)}) for s in sequences[:64]]
        else:
            requests = [
                post(f"/routes/{ROUTE}/predict", {"sequences": [list(s) for s in sequences[i:i + batch]]})
                for i in range(0, min(len(sequences), 3 * batch), batch)
            ]
        for request in requests:
            status, body, _ = connection.exchange(request)
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}: {body[:200]!r}")
    finally:
        connection.close()
