"""Durable sweep checkpoint store: a manifest plus append-only JSONL shards.

Paper-scale sweeps average (protocol × degree × seed) grids that take minutes
to simulate; losing a whole campaign to a crash, an OOM-killed worker, or a
Ctrl-C is not acceptable at that scale.  The store makes sweeps durable:

* ``manifest.json`` — the sweep's identity: results format version, the
  configuration (and its content hash), and the full task grid.  Written
  atomically once, when the store is first opened.
* ``shards.jsonl`` — one JSON record per completed task, appended and flushed
  as each seed finishes.  A record is either a full v3 scenario dict
  (``{"kind": "run", ...}``) or a recorded failure
  (``{"kind": "failure", ...}``).

Resume semantics: reopening the store with the *same* configuration (checked
by content hash — see :meth:`ExperimentConfig.fingerprint`) yields the set of
already-completed tasks; the executor re-runs only what is missing.  Because
every seed is deterministic in (protocol, degree, seed, config) and the v3
format round-trips losslessly, a killed-and-resumed sweep is bit-identical
to an uninterrupted one.

Crash tolerance: a process killed mid-append can leave a torn final line;
:meth:`SweepStore.open` repairs the shard file by truncating it back to the
last complete record before any new append, so the file never accretes
garbage between two valid records.  Both files go through :mod:`repro.records`.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from ..records import ArtifactError, JsonlWriter, read_json, read_jsonl, write_json
from .config import ExperimentConfig
from .persistence import (
    FORMAT_VERSION,
    failure_from_dict,
    failure_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)
from .runner import SweepFailure
from .scenario import ScenarioResult

__all__ = ["SweepStore", "StoreMismatchError", "Task", "Outcome"]

#: One grid cell: (protocol, degree, seed).
Task = tuple[str, int, int]
#: What a completed task produced.
Outcome = Union[ScenarioResult, SweepFailure]

MANIFEST_NAME = "manifest.json"
SHARDS_NAME = "shards.jsonl"


class StoreMismatchError(ArtifactError):
    """The store on disk belongs to a different sweep configuration."""


def _outcome_key(outcome: Outcome) -> Task:
    return (outcome.protocol, outcome.degree, outcome.seed)


class SweepStore:
    """Append-only checkpoint store for one sweep directory.

    Typical lifecycle::

        store = SweepStore("campaign/")
        store.open(config)            # create or validate the manifest
        done = store.load_outcomes()  # {} on a fresh store
        ... run missing tasks, calling store.append(outcome) per task ...
        store.close()

    ``append`` flushes each record, so at most the in-flight record is lost
    to a hard kill — and the torn-tail repair in :meth:`open` cleans that up
    on the next resume.
    """

    def __init__(self, directory: Union[str, os.PathLike]) -> None:
        self.directory = os.fspath(directory)
        self._manifest: Optional[dict] = None
        self._shards: Optional[JsonlWriter] = None

    # ------------------------------------------------------------- paths

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    @property
    def shards_path(self) -> str:
        return os.path.join(self.directory, SHARDS_NAME)

    def exists(self) -> bool:
        """True if this directory already holds a sweep manifest."""
        return os.path.exists(self.manifest_path)

    # ---------------------------------------------------------- manifest

    def open(self, config: ExperimentConfig) -> None:
        """Create the store for ``config``, or validate an existing one.

        Raises :class:`StoreMismatchError` if the directory already holds a
        manifest for a different configuration — resuming a sweep under
        changed parameters would silently mix incompatible results.
        """
        os.makedirs(self.directory, exist_ok=True)
        if self.exists():
            manifest = self._read_manifest()
            recorded = manifest.get("config_hash")
            if recorded != config.fingerprint():
                raise StoreMismatchError(
                    f"checkpoint at {self.directory!r} was created with a "
                    f"different configuration (hash {recorded!r} != "
                    f"{config.fingerprint()!r}); use a fresh directory or "
                    "the manifest's own config"
                )
        else:
            manifest = {
                "format_version": FORMAT_VERSION,
                "config_hash": config.fingerprint(),
                "config": config.to_dict(),
                "grid": [list(task) for task in config.grid()],
            }
            # Atomic: a crash during creation leaves either no manifest
            # (fresh start next time) or a complete one.
            write_json(manifest, self.manifest_path)
            self._manifest = manifest
        # Truncate a torn trailing record left by a hard kill mid-append.
        read_jsonl(self.shards_path, repair=True)

    def _read_manifest(self) -> dict:
        return read_json(
            self.manifest_path, "sweep manifest", "format_version", FORMAT_VERSION
        )

    def load_config(self) -> ExperimentConfig:
        """The configuration recorded in the manifest (for ``--resume``)."""
        manifest = self._manifest or self._read_manifest()
        try:
            config = ExperimentConfig.from_dict(manifest["config"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreMismatchError(
                f"checkpoint at {self.directory!r} was created by a different "
                f"version/configuration ({exc}); use a fresh directory"
            ) from exc
        if config.fingerprint() != manifest.get("config_hash"):
            raise ArtifactError(
                f"{self.manifest_path!r}: 'config' does not hash to the "
                "recorded 'config_hash'"
            )
        return config

    def grid(self) -> list[Task]:
        """The full task grid: the hash-checked configuration's, which the
        manifest's own ``grid`` list restates for readers outside Python."""
        return self.load_config().grid()

    # ------------------------------------------------------------ shards

    def load_outcomes(self) -> dict[Task, Outcome]:
        """All durably recorded outcomes, keyed by (protocol, degree, seed).

        A record is ``{"kind": kind, kind: payload}``; reading stops at a
        torn tail, and any other shape is an :class:`ArtifactError`.
        Duplicate records for the same task are tolerated (first record
        wins — it is the one a previous run completed and may already have
        reported).
        """
        out: dict[Task, Outcome] = {}
        for n, record in enumerate(read_jsonl(self.shards_path), start=1):
            where = f"{self.shards_path!r} record {n}"
            kind = record.get("kind") if isinstance(record, dict) else None
            if kind not in ("run", "failure"):
                raise ArtifactError(
                    f"{where}: unknown shard record kind in {repr(record)[:80]}"
                )
            if not isinstance(record.get(kind), dict):
                raise ArtifactError(f"{where}: lacks its {kind!r} object")
            decode = scenario_from_dict if kind == "run" else failure_from_dict
            try:
                outcome = decode(record[kind])
            except ArtifactError as exc:
                raise ArtifactError(f"{where}: {exc}") from exc
            out.setdefault(_outcome_key(outcome), outcome)
        return out

    def append(self, outcome: Outcome) -> None:
        """Durably record one completed task (flushed immediately)."""
        if isinstance(outcome, SweepFailure):
            record = {"kind": "failure", "failure": failure_to_dict(outcome)}
        else:
            record = {"kind": "run", "run": scenario_to_dict(outcome)}
        if self._shards is None:
            self._shards = JsonlWriter(self.shards_path, "a")
        self._shards.write(record)

    def completed_tasks(self) -> set[Task]:
        """Tasks with a durable outcome (run or recorded failure)."""
        return set(self.load_outcomes())

    def close(self) -> None:
        """Flush and fsync the shard file (safe to call repeatedly)."""
        if self._shards is not None:
            self._shards.close()
            self._shards = None

    # ----------------------------------------------------- context manager

    def __enter__(self) -> "SweepStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
