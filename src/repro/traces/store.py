"""Content-addressed binary trace store: capture once, replay many.

The MIPS-X cache and branch studies were trace-driven: an address trace
was captured once per workload and then swept against every candidate
organization (the ATUM/A. J. Smith methodology).  :class:`TraceStore`
gives the repo the same shape.  A *descriptor* -- a small JSON-able dict
that names everything the captured streams depend on (workload or
synthetic-program parameters, trace length, reorganization scheme,
capture format version) -- is canonicalised and hashed, together with
a digest of the ``repro`` package source that produces the captures,
into a content-addressed key; the captured streams live in one ``.npz``
per key under ``.trace_cache/``.  Change any input, or edit any code
that could shape a capture, and the key changes, so stale traces can
never be replayed silently.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import logging
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

from repro.store import (
    REPO_ROOT,
    IntegrityError,
    get_verified,
    pid_lock,
    put_verified,
    sidecar_path,
    sweep_stale_tmp,
    write_durable,
)

logger = logging.getLogger(__name__)

#: bump when the capture format or stream semantics change -- it is part
#: of every cache key, so old .npz files are simply never matched again
FORMAT = 1

DEFAULT_ROOT = REPO_ROOT / ".trace_cache"

#: the package whose source produces every capture (compiler,
#: reorganizer, pipeline, synthetic generators)
PACKAGE_ROOT = Path(__file__).resolve().parents[1]

_META_KEY = "__meta__"


@dataclasses.dataclass
class CapturedTrace:
    """Named event-stream arrays plus their JSON-able capture metadata."""

    arrays: Dict[str, np.ndarray]
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.arrays.values())

    def to_bytes(self) -> bytes:
        """The compressed ``.npz`` archive of arrays plus metadata."""
        meta_blob = np.frombuffer(
            json.dumps(self.meta, sort_keys=True).encode(), dtype=np.uint8)
        payload = dict(self.arrays)
        payload[_META_KEY] = meta_blob
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **payload)
        return buffer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "CapturedTrace":
        with np.load(io.BytesIO(data)) as npz:
            meta = json.loads(bytes(npz[_META_KEY]).decode())
            arrays = {name: npz[name] for name in npz.files
                      if name != _META_KEY}
        return cls(arrays=arrays, meta=meta)

    def save(self, path: Path) -> None:
        write_durable(path, self.to_bytes())

    @classmethod
    def load(cls, path: Path) -> "CapturedTrace":
        return cls.from_bytes(Path(path).read_bytes())


def canonical_json(material: object) -> str:
    """The canonical JSON text of a JSON-able value.

    Key-sorted, minimal separators, no whitespace variance: two
    structurally equal values (whatever their dict insertion order, and
    with tuples and lists interchangeable) canonicalise to the same
    text.  The trace-store descriptor keys derive their sha256 content
    addresses from it.
    """
    return json.dumps(material, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """sha256 of the :data:`PACKAGE_ROOT` source, once per process.

    Covers every ``.py`` file's relative path and bytes, in sorted path
    order.  Part of every cache key: a capture depends on the compiler,
    the reorganizer, the cycle-exact pipeline and the synthetic
    generators, and a descriptor cannot name them all, so any edit to
    the package source retires every stored trace.
    """
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        for part in (path.relative_to(PACKAGE_ROOT).as_posix().encode(),
                     path.read_bytes()):
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
    return digest.hexdigest()[:24]


def descriptor_key(descriptor: Dict[str, object]) -> str:
    """The content-addressed key of a capture descriptor."""
    material = {"descriptor": descriptor, "format": FORMAT,
                "code": code_version()}
    return hashlib.sha256(canonical_json(material).encode()).hexdigest()[:24]


class TraceStore:
    """On-disk cache of captured traces keyed by capture descriptor.

    Entries are written and verified through :mod:`repro.store`: every
    ``.npz`` is durable and carries a ``.sha256`` sidecar.  :meth:`get`
    verifies it -- a corrupt, truncated, or sidecar-less entry is a
    counted-and-logged **miss** (``integrity_failures``), never a silent
    wrong replay -- and a cold miss sweeps the temp files of writers
    killed mid-save.  :meth:`put` holds a per-entry pid lock so two
    concurrent producers (Runner workers racing on a cold store) cannot
    interleave the payload and its digest, and :meth:`get` waits for
    that lock before it calls an entry corrupt, so a reader that lands
    between a writer's payload and its digest reads the finished entry.
    """

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else DEFAULT_ROOT
        self.hits = 0
        self.misses = 0
        self.integrity_failures = 0

    def path_for(self, descriptor: Dict[str, object]) -> Path:
        return self.root / f"{descriptor_key(descriptor)}.npz"

    def digest_path_for(self, descriptor: Dict[str, object]) -> Path:
        return sidecar_path(self.path_for(descriptor))

    def get(self, descriptor: Dict[str, object]) -> Optional[CapturedTrace]:
        path = self.path_for(descriptor)
        if not path.exists():
            self.misses += 1
            sweep_stale_tmp(self.root)
            return None
        try:
            trace = CapturedTrace.from_bytes(self._verified(path))
        except IntegrityError as exc:
            reason = str(exc)
        except (OSError, ValueError, KeyError):
            # digest matched but the archive does not parse: a corrupt
            # payload was stored wholesale (writer bug, not bit rot)
            reason = f"undecodable entry {path}"
        else:
            self.hits += 1
            return trace
        self.integrity_failures += 1
        self.misses += 1
        logger.warning("trace store: %s; treating as a miss", reason)
        return None

    @staticmethod
    def _verified(path: Path) -> bytes:
        try:
            return get_verified(path)
        except IntegrityError:
            # a concurrent put() may stand between the payload and its
            # sidecar: judge the entry once that writer's lock is free
            with pid_lock(path.with_suffix(".lock")):
                return get_verified(path)

    def put(self, descriptor: Dict[str, object],
            trace: CapturedTrace) -> Path:
        path = self.path_for(descriptor)
        with pid_lock(path.with_suffix(".lock")):
            put_verified(path, trace.to_bytes())
        return path

    def get_or_capture(self, descriptor: Dict[str, object],
                       capture: Callable[[], CapturedTrace]
                       ) -> CapturedTrace:
        """The stored trace for ``descriptor``; on a miss, run
        ``capture`` and store its result first."""
        trace = self.get(descriptor)
        if trace is None:
            trace = capture()
            self.put(descriptor, trace)
        return trace


# ------------------------------------------------- synthetic-trace capture
def synthetic_fetch_descriptor(program, length: int) -> Dict[str, object]:
    return {"kind": "synthetic-fetch",
            "program": dataclasses.asdict(program),
            "length": int(length)}


def capture_synthetic_fetch(program, length: int) -> CapturedTrace:
    addresses = np.fromiter(program.instruction_trace(length),
                            dtype=np.int64, count=length)
    return CapturedTrace(
        arrays={"addresses": addresses},
        meta={"kind": "synthetic-fetch", "length": int(length)})


def synthetic_data_descriptor(program, references: int) -> Dict[str, object]:
    return {"kind": "synthetic-data",
            "program": dataclasses.asdict(program),
            "references": int(references)}


def capture_synthetic_data(program, references: int) -> CapturedTrace:
    addresses = np.empty(references, dtype=np.int64)
    is_store = np.empty(references, dtype=np.int8)
    for i, (address, store) in enumerate(program.data_trace(references)):
        addresses[i] = address
        is_store[i] = store
    return CapturedTrace(
        arrays={"addresses": addresses, "is_store": is_store},
        meta={"kind": "synthetic-data", "references": int(references)})
