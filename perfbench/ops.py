"""What every workload's ops share: the op record, its result, the tolerance."""

from __future__ import annotations

from dataclasses import dataclass

# The package's deflating-pair tolerance (TAU_DEFL), fixed here so that the
# benchmark's output checks do not move when the package changes it.
TAU_DEFL = 1e-9


@dataclass
class Op:
    label: str
    stratum: str  # ops are summarized per stratum: a size, or a command
    steps: object  # CLI steps, or the in-process call


@dataclass
class OpResult:
    label: str
    stratum: str
    seconds: float
    legs: list  # (command or call name, seconds) for each part of the op
    error: str | None  # why the output is wrong, or None
    rss_mb: float  # peak resident set of the op's processes (0 when in-process)
