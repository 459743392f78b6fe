"""Run the suite under the allocator policy the command line sets."""

from collapsim.cli import _keep_freed_arrays_resident

_keep_freed_arrays_resident()
