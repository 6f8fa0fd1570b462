"""Correctness checks on command outputs, computed apart from the toolkit.

Each check compares one output with the record that the workload
generator kept (see ``emitter.py``) and returns a list of failures; an
empty list means the output is right.  Nothing here imports
``minifskit``.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from emitter import read_image


def machine_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key] = value
    return fields


def check_scan(text: str, record: dict) -> list[str]:
    """One valid instance at the constructed offset; hit count; region labels."""
    fields = machine_fields(text)
    errors = []
    if fields.get("hits") != str(record["hits"]):
        errors.append(f"scan hits={fields.get('hits')}, dump holds {record['hits']}")
    bases = [k[:-len(".minifs.base")] for k, v in fields.items() if k.endswith(".minifs.base")]
    if len(bases) != 1 or fields[f"{bases[0]}.minifs.base"] != str(record["base"]):
        errors.append(f"scan instances at {[fields[b + '.minifs.base'] for b in bases]}, "
                      f"expected one at {record['base']}")
    else:
        for key, want in (("files", len(record["files"])), ("chunks", record["chunks"])):
            got = fields.get(f"{bases[0]}.minifs.{key}")
            if got != str(want):
                errors.append(f"scan instance {key}={got}, expected {want}")
    sections = [(int(fields[f"section.{i}.start"]), int(fields[f"section.{i}.end"]),
                 fields[f"section.{i}.label"]) for i in range(int(fields.get("sections", 0)))]
    edges = [0] + [edge for s in sections for edge in s[:2]] + [record["length"]]
    if edges[::2] != edges[1::2]:
        errors.append(f"scan sections do not tile [0, {record['length']}): "
                      f"{[s[:2] for s in sections]}")
    for start, end, label in record["regions"]:
        wrong = [s for s in sections if s[0] < end and start < s[1] and s[2] != label]
        covered = sum(min(end, s[1]) - max(start, s[0]) for s in sections
                      if s[0] < end and start < s[1] and s[2] == label)
        if wrong or covered != end - start:
            errors.append(f"region [{start}, {end}) is {label}, scan labels {covered} bytes "
                          f"of it so and reports {wrong}")
    return errors


def check_verify(text: str, record: dict) -> list[str]:
    fields = machine_fields(text)
    want = {"chunks": str(record["chunks"]), "failed": "0", "result": "ok"}
    return [f"verify {k}={fields.get(k)}, expected {v}" for k, v in want.items()
            if fields.get(k) != v]


def check_extract_report(text: str, record: dict) -> list[str]:
    fields = machine_fields(text)
    want = {"written": str(len(record["files"])), "failed": "0"}
    return [f"extract {k}={fields.get(k)}, expected {v}" for k, v in want.items()
            if fields.get(k) != v]


def check_digest(data: bytes, expected: str, what: str) -> list[str]:
    got = hashlib.sha256(data).hexdigest()
    return [] if got == expected else [f"{what}: sha256 {got[:16]}…, expected {expected[:16]}…"]


def check_tree(root: Path, record: dict) -> list[str]:
    """The tree holds exactly the constructed paths, each with its digest."""
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = Path(directory, name)
            found[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    expected = dict(record["files"])
    errors = [f"extracted tree lacks {p}" for p in sorted(expected.keys() - found.keys())]
    errors += [f"extracted tree has unexpected {p}" for p in sorted(found.keys() - expected.keys())]
    errors += [f"extracted {p} has the wrong sha256" for p in sorted(expected.keys() & found.keys())
               if found[p] != expected[p]]
    return errors


def check_packed(image: bytes, record: dict) -> list[str]:
    """The image decodes cleanly with lzma and holds the tree in path order."""
    try:
        files = read_image(image)
    except ValueError as exc:
        return [f"packed image: {exc}"]
    want = sorted(record["files"])
    got = [[path, hashlib.sha256(data).hexdigest()] for path, data in files]
    for i, expected in enumerate(want):
        if i >= len(got) or got[i] != expected:
            return [f"packed image entry {i} is {got[i] if i < len(got) else None}, "
                    f"expected {expected}"]
    return [] if len(got) == len(want) else [f"packed image holds {len(got)} entries, "
                                              f"expected {len(want)}"]
