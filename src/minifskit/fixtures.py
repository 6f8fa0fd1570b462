"""Deterministic synthetic dumps for testing and demos.

No vendor firmware ships with this repository, so the test suite works
against dumps it can rebuild byte-for-byte from a seed.  Each shape also
returns a manifest describing what a correct parser must find — the
manifest is produced by construction, never by parsing.

Randomness comes from xorshift64* with fixed constants (shifts 12/25/27,
multiplier 0x2545F4914F6CDD1D); the byte stream is the little-endian
concatenation of successive 64-bit outputs.  Any language can reproduce
it, which keeps these fixtures portable as golden data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownShape
from .packer import PackOptions, pack, plan_chunks
from .scanner import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_HIGH_THRESHOLD,
    LABEL_EMPTY,
    LABEL_HIGH,
    LABEL_LOW,
)

_MASK64 = (1 << 64) - 1
_SEED_FALLBACK = 0x9E3779B97F4A7C15    # xorshift state must never be zero

SHAPES = ("minimal", "multi-chunk", "five-region")


class XorShift64Star:
    """xorshift64* — tiny, seedable, reproducible across languages."""

    def __init__(self, seed: int):
        self.state = (seed & _MASK64) or _SEED_FALLBACK

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def bytes(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            out += self.next_u64().to_bytes(8, "little")
        return bytes(out[:n])

    def randrange(self, n: int) -> int:
        # Modulo bias is irrelevant at fixture scale.
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


@dataclass(frozen=True)
class FixtureSpec:
    """A (seed, shape) pair; equal specs yield byte-identical fixtures."""

    seed: int
    shape: str


@dataclass
class FixtureManifest:
    """Ground truth for one generated dump."""

    shape: str
    seed: int
    length: int
    magic_offset: int
    files: list[tuple[str, int]]
    chunk_count: int
    # (start, end, label) under the given block size and threshold;
    # only shapes built block-aligned carry these.
    sections: list[tuple[int, int, str]] | None = None
    block_size: int = DEFAULT_BLOCK_SIZE
    high_threshold: float = DEFAULT_HIGH_THRESHOLD
    minifs_section: int | None = None

    def to_machine(self) -> str:
        lines = [
            f"shape={self.shape}",
            f"seed={self.seed}",
            f"length={self.length}",
            f"magic_offset={self.magic_offset}",
            f"chunks={self.chunk_count}",
            f"files={len(self.files)}",
        ]
        for i, (path, size) in enumerate(self.files):
            lines.append(f"file.{i}.path={path}")
            lines.append(f"file.{i}.size={size}")
        if self.sections is not None:
            lines.append(f"block_size={self.block_size}")
            lines.append(f"threshold={self.high_threshold:.6f}")
            lines.append(f"sections={len(self.sections)}")
            for i, (start, end, label) in enumerate(self.sections):
                lines.append(f"section.{i}.start={start}")
                lines.append(f"section.{i}.end={end}")
                lines.append(f"section.{i}.label={label}")
            if self.minifs_section is not None:
                lines.append(f"minifs_section={self.minifs_section}")
        return "\n".join(lines) + "\n"


def _config_text(rng: XorShift64Star, size: int) -> bytes:
    """Low-entropy ASCII in the style of device config files."""
    words = ("wlan", "radio", "ssid", "channel", "power", "mode", "rate", "key")
    lines = []
    total = 0
    while total < size:
        line = f"{rng.choice(words)}{rng.randrange(100)}={rng.randrange(65536):x}\n"
        lines.append(line)
        total += len(line)
    return "".join(lines).encode("ascii")[:size]


def _file_entries(rng: XorShift64Star, names: list[str], sizes: list[int]):
    return [(name, rng.bytes(size)) for name, size in zip(names, sizes)]


def make_fixture(spec: FixtureSpec) -> tuple[bytes, FixtureManifest]:
    """Build the dump and its manifest for one spec.

    Shapes:

    * ``minimal`` — a bare image holding one small text file.
    * ``multi-chunk`` — a bare image whose files straddle a small chunk
      cap, so chunk count inference has something to infer.
    * ``five-region`` — padding, high-entropy blob, embedded image,
      erased run, config text: the anatomy real flash dumps segment
      into.
    """
    if spec.shape == "minimal":
        return _make_minimal(spec)
    if spec.shape == "multi-chunk":
        return _make_multi_chunk(spec)
    if spec.shape == "five-region":
        return _make_five_region(spec)
    raise UnknownShape(f"unknown fixture shape {spec.shape!r}; known: {', '.join(SHAPES)}")


def _make_minimal(spec: FixtureSpec) -> tuple[bytes, FixtureManifest]:
    rng = XorShift64Star(spec.seed)
    content = _config_text(rng, 96 + rng.randrange(64))
    entries = [("a/b.txt", content)]
    image = pack(entries)
    manifest = FixtureManifest(
        shape=spec.shape,
        seed=spec.seed,
        length=len(image),
        magic_offset=0,
        files=[("a/b.txt", len(content))],
        chunk_count=1,
    )
    return image, manifest


def _make_multi_chunk(spec: FixtureSpec) -> tuple[bytes, FixtureManifest]:
    rng = XorShift64Star(spec.seed)
    cap = 2048
    names = [f"data/f{i}.bin" for i in range(5)]
    sizes = [1000, 900, 800, 700, 600]
    entries = _file_entries(rng, names, sizes)
    image = pack(entries, PackOptions(max_chunk_decompressed=cap, sort_entries=False))
    manifest = FixtureManifest(
        shape=spec.shape,
        seed=spec.seed,
        length=len(image),
        magic_offset=0,
        files=[(n, s) for n, s in zip(names, sizes)],
        chunk_count=len(plan_chunks(sizes, cap)),
    )
    return image, manifest


def _make_five_region(spec: FixtureSpec) -> tuple[bytes, FixtureManifest]:
    rng = XorShift64Star(spec.seed)
    block = DEFAULT_BLOCK_SIZE

    files = [
        ("fw/mtk/base.css", _config_text(rng, 120)),
        ("fw/mtk/app.js", _config_text(rng, 100)),
    ]
    image = pack(files, PackOptions(sort_entries=False))
    if len(image) > block:
        raise AssertionError(f"embedded image grew to {len(image)} bytes, over one block")

    regions = [
        (b"\xff" * (4 * block), LABEL_EMPTY),
        (rng.bytes(4 * block), LABEL_HIGH),
        (image + b"\xff" * (block - len(image)), LABEL_LOW),
        (b"\xff" * (4 * block), LABEL_EMPTY),
        (_config_text(rng, 2 * block), LABEL_LOW),
    ]
    dump = b"".join(data for data, _ in regions)

    sections = []
    cursor = 0
    for data, label in regions:
        sections.append((cursor, cursor + len(data), label))
        cursor += len(data)
    manifest = FixtureManifest(
        shape=spec.shape,
        seed=spec.seed,
        length=len(dump),
        magic_offset=8 * block,
        files=[(path, len(content)) for path, content in files],
        chunk_count=1,
        sections=sections,
        minifs_section=2,
    )
    return dump, manifest
