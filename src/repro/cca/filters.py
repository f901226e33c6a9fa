"""Windowed min/max filters used by rate-based CCAs."""

from __future__ import annotations

from collections import deque


class WindowedExtremum:
    """Track the min or max of samples over a sliding window.

    Samples arrive as ``(key, value)`` where ``key`` is a monotonically
    non-decreasing position (time, or round count).  Query cost is
    O(1); update is amortized O(1) via the monotonic-deque trick.

    Args:
        window: width of the window in key units.
        mode: "max" or "min".
    """

    def __init__(self, window: float, mode: str = "max"):
        if mode not in ("max", "min"):
            raise ValueError(f"mode must be 'max' or 'min': {mode!r}")
        self.window = window
        self.mode = mode
        self._deque: deque[tuple[float, float]] = deque()

    def update(self, key: float, value: float) -> None:
        """Insert a sample and expire anything older than the window."""
        samples = self._deque
        if self.mode == "max":
            while samples and value >= samples[-1][1]:
                samples.pop()
        else:
            while samples and value <= samples[-1][1]:
                samples.pop()
        samples.append((key, value))
        horizon = key - self.window
        while samples and samples[0][0] < horizon:
            samples.popleft()

    @property
    def value(self) -> float | None:
        """Current windowed extremum, or None if no samples survive."""
        return self._deque[0][1] if self._deque else None

    def reset(self) -> None:
        self._deque.clear()
