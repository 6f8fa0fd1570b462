"""In-memory span tracer that wraps the toolkit from the benchmark's side.

:func:`install` replaces every public function of the traced modules,
in every ``minifskit`` module that holds a reference to it (functions
imported by name included), with a wrapper that records one span per
call: name, start, end and parent.  Spans live in flat arrays and are
written out once, when the run ends.  A few boundaries also record
counts (bytes decompressed, magic hits, files re-read during
extraction).

Self time of a span is its duration minus the time its direct children
cover; summed over a subtree it equals the root's duration, so the
per-module self times of a command add up to its traced wall time.
"""

from __future__ import annotations

import inspect
import json
import pathlib
import sys
import time
from array import array

import numpy as np

MODULES = ("cli", "scanner", "structs", "codec", "extractor", "packer")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # (span index, counter name, amount)
        self.counts: list[tuple[int, str, int]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        tracer, name_id = self, self.intern(name)

        class _Span:
            def __enter__(self):
                self.index = tracer.open(name_id)
                return self

            def __exit__(self, *exc):
                tracer.close(self.index)

        return _Span()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts.append((self._stack[-1] if self._stack else -1, name, amount))

    def wrap(self, qualname: str, fn, counter=None):
        name_id = self.intern(qualname)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                counter(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # --- analysis ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=len(start))
        root = np.where(has_parent, parent, np.arange(len(start)))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": parent,
            "start": start,
            "duration": duration,
            "self": duration - child_time,
            "root": root,
        }

    def write(self, path: pathlib.Path) -> None:
        """Spans as a compressed numpy archive plus names and counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(json.dumps(self.names)),
            counts=np.array(json.dumps(self.counts)),
        )


def _count_len(counter_name: str):
    def counter(tracer: Tracer, result) -> None:
        tracer.count(counter_name, len(result))
    return counter


def _count_instances(tracer: Tracer, report) -> None:
    tracer.count("scanner.valid_instances", len(report.instances))


_COUNTERS = {
    "codec.decompress_chunk": _count_len("codec.decompressed_bytes"),
    "scanner.find_magic": _count_len("scanner.magic_hits"),
    "scanner.dump_report": _count_instances,
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the traced modules, everywhere they are bound."""
    modules = [m for name, m in sys.modules.items()
               if name == "minifskit" or name.startswith("minifskit.")]
    for short in MODULES:
        module = sys.modules[f"minifskit.{short}"]
        for name, fn in list(vars(module).items()):
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            qualname = f"{short}.{name}"
            traced = tracer.wrap(qualname, fn, _COUNTERS.get(qualname))
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, traced)

    # Files read back from disk while an extraction runs are the
    # re-reads done for classification.
    read_bytes = pathlib.Path.read_bytes
    extract_id = tracer.intern("extractor.extract_all")

    def counted_read_bytes(self):
        if any(tracer.name_id[i] == extract_id for i in tracer._stack):
            tracer.count("extractor.file_rereads")
        return read_bytes(self)

    pathlib.Path.read_bytes = counted_read_bytes
