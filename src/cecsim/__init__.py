"""Deterministic CEC bus simulation for HDMI distribution trees.

The package models the single shared control wire of an HDMI tree: frame
codec, topology and addressing, per-device protocol behaviour, a covert
file channel riding on unused opcodes, attack orchestration, a two-slot
HTTP command relay, and a rule-based detector with mitigations.
"""

# Free one 1 MiB block before any submodule is compiled.  glibc's malloc
# serves a block that size with mmap, and freeing it raises the heap's
# trim threshold to 2 MiB.  Below that, with the threshold a few hundred
# KiB, whether the memory that compiling cecsim's sources frees went back
# to the OS depended on how other allocations interleaved with it (a
# signal handler running during the import was enough to change it), and
# peak RSS moved by up to 0.8 MB between identical runs.  `bytes(n)` comes
# from calloc, so none of the block's pages is ever touched.
_UNUSED = bytes(1 << 20)
del _UNUSED

from cecsim.frames import CecFrame, FrameError, parse_frame, encode_frame  # noqa: E402

__version__ = "0.1.0"

__all__ = ["CecFrame", "FrameError", "parse_frame", "encode_frame", "__version__"]
