"""``resume DIR`` replays a ``--run-dir`` manifest from an older writer.

Manifests written before the ``--no-coalesce`` flag was removed carry a
``"no_coalesce"`` key, and manifests written before ``--task-retries``
and ``--backoff-base`` were removed carry ``"task_retries"`` and
``"backoff_base"``.  Every manifest written before the HTTP broker
transport was removed carries ``"broker_url"`` (``--broker-url`` is no
longer a flag), every manifest written before the store tier chain
was removed carries ``"store_url"`` and ``"store_dir"``, and every
manifest written before the multi-host broker options were removed
carries ``"broker_dir"``, ``"priority"`` and ``"lease_ttl"``.
``resume`` reads only the keys it knows, so such run directories still
resume, with the same stdout as a fresh invocation.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: A manifest exactly as the writer with ``--no-coalesce`` produced it.
LEGACY_MANIFEST = {
    "names": ["open_system"],
    "jobs": 1,
    "log": False,
    "cache_dir": None,
    "store_url": None,
    "store_dir": None,
    "no_coalesce": True,
    "trace_out": None,
    "trace_categories": None,
    "checkpoint_interval": None,
    "task_timeout": None,
    "task_retries": None,
    "backoff_base": None,
    "lease_ttl": None,
    "broker_dir": None,
    "broker_url": None,
    "priority": None,
}

#: A manifest as the writer with ``--task-retries``/``--backoff-base``
#: produced it, with both flags given.
RETRIES_MANIFEST = {
    key: value for key, value in LEGACY_MANIFEST.items()
    if key != "no_coalesce"
}
RETRIES_MANIFEST.update(task_retries=5, backoff_base=2.0)

#: The keys the writer with the store-tier flags produced.
STORE_MANIFEST_KEYS = (
    "names", "jobs", "log", "cache_dir", "store_url", "store_dir",
    "trace_out", "trace_categories", "checkpoint_interval", "task_timeout",
    "lease_ttl", "broker_dir", "priority",
)


def _cli(*argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-m", "repro.experiments", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_legacy_manifest_with_no_coalesce_resumes(tmp_path):
    fresh = _cli("--jobs", "1", "open_system", cwd=tmp_path)
    assert fresh.strip()
    for name, manifest in [
        ("no-coalesce", LEGACY_MANIFEST),
        ("retries", RETRIES_MANIFEST),
    ]:
        run_dir = tmp_path / name
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True)
        )
        resumed = _cli("resume", str(run_dir), cwd=tmp_path)
        assert resumed == fresh, name


def test_manifest_with_store_keys_resumes(tmp_path):
    """A run directory written with the store-tier and multi-host broker
    flags (its manifest holds ``store_url``/``store_dir`` and
    ``broker_dir``/``priority``/``lease_ttl``) resumes with fresh
    stdout; the named directories are ignored, so nothing is created
    there, and the sweeps run through the run dir's own queue."""
    fresh = _cli("--jobs", "1", "open_system", cwd=tmp_path)
    manifest = {key: None for key in STORE_MANIFEST_KEYS}
    manifest.update(
        names=["open_system"], jobs=1, log=False,
        store_url=str(tmp_path / "shared-store"),
        store_dir=str(tmp_path / "local-store"),
        broker_dir=str(tmp_path / "shared-queue"),
        priority=5,
        lease_ttl=5.0,
    )
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True)
    )
    assert _cli("resume", str(run_dir), cwd=tmp_path) == fresh
    assert not (tmp_path / "shared-store").exists()
    assert not (tmp_path / "local-store").exists()
    assert not (tmp_path / "shared-queue").exists()
    assert (run_dir / "broker" / "queue.db").exists()
