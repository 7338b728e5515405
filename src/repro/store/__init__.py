"""Content-addressed artifact store (see :mod:`repro.store.cas`).

The pipeline cache's ``--cache-dir`` is the one store directory.
``python -m repro.store`` reports on it (``stats``) and collects it
(``gc``).
"""

from repro.store.cas import LocalStore, atomic_publish, object_digest

__all__ = ["LocalStore", "atomic_publish", "object_digest"]
