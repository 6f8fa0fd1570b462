"""Toolkit for the MiniFS v2 read-only file system found in router flash dumps.

The package splits along the natural seams of the problem:

* :mod:`minifskit.structs` — on-disk structures and layout arithmetic
* :mod:`minifskit.codec` — LZMA chunk compression and decompression
* :mod:`minifskit.scanner` — magic search and entropy segmentation of dumps
* :mod:`minifskit.extractor` — opening, listing, reading, extracting
* :mod:`minifskit.packer` — building images from file trees
* :mod:`minifskit.fixtures` — deterministic synthetic dumps for tests
* :mod:`minifskit.cli` — the ``minifs`` command
"""

from . import errors
from .codec import (
    V1_CONFIG_WORD,
    V2_CONFIG_WORD,
    Version,
    check_config_word,
    compress_chunk,
    decompress_chunk,
)
from .extractor import (
    ExtractReport,
    FileEntry,
    FileResult,
    MiniFsView,
    extract_all,
    list_files,
    open_view,
    read_file,
)
from .fixtures import FixtureManifest, FixtureSpec, XorShift64Star, make_fixture
from .packer import PackOptions, pack
from .scanner import (
    DumpReport,
    MagicHit,
    MinifsSummary,
    Section,
    SectionProfile,
    dump_report,
    entropy_profile,
    find_magic,
    segment_sections,
)
from .structs import MiniFsHeader, Violation

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Version", "V1_CONFIG_WORD", "V2_CONFIG_WORD",
    "check_config_word", "compress_chunk", "decompress_chunk",
    "MiniFsHeader", "Violation",
    "MagicHit", "MinifsSummary", "Section", "SectionProfile", "DumpReport",
    "find_magic", "entropy_profile", "segment_sections", "dump_report",
    "MiniFsView", "FileEntry", "FileResult", "ExtractReport",
    "open_view", "list_files", "read_file", "extract_all",
    "PackOptions", "pack",
    "FixtureSpec", "FixtureManifest", "XorShift64Star", "make_fixture",
    "__version__",
]
