"""Small shared utilities: seeded RNG plumbing, tables, smoothing, atomic I/O."""

from repro.utils.atomic_io import atomic_write, atomic_write_text, fsync_file
from repro.utils.rng import child_rngs, ensure_rng, restore_generator
from repro.utils.tables import format_table
from repro.utils.smoothing import moving_average

__all__ = [
    "atomic_write",
    "atomic_write_text",
    "fsync_file",
    "child_rngs",
    "ensure_rng",
    "restore_generator",
    "format_table",
    "moving_average",
]
