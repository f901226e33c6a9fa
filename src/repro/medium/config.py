"""The ``medium`` scenario axis: grammar, MAC classes, timing constants.

A scenario's ``medium`` field is a compact string so it serializes,
fingerprints, and mutates like every other axis:

* ``"queue"`` -- the default: the bottleneck is a qdisc-fronted link
  (everything this repo did before the medium subsystem existed).
  Fingerprints omit the field at this value, so every pre-existing
  scenario is byte-identical.
* ``"csma-<n>"`` -- a CSMA/CA shared medium with ``n`` stations, all
  best-effort class (the homogeneous Bianchi setting).
* ``"csma-<n>-prio"`` -- same, but odd-indexed stations run the voice
  access class (smaller contention window, shorter AIFS), modelling an
  EDCA priority mix.

Timing constants are 802.11b-flavoured DSSS numbers; they are model
parameters, not a claim of standards fidelity.  What matters is that
the packet DES and the Bianchi closed form use *the same* constants,
so the validation tests pin real agreement rather than two free fits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import ConfigError

#: The default medium: a plain queue-fronted link (no contention).
MEDIUM_DEFAULT = "queue"

#: Contention slot time (seconds).
SLOT_TIME = 20e-6

#: Short inter-frame space (seconds): the fixed gap before each
#: contention round's slot countdown begins.
SIFS = 10e-6

#: Fixed per-transmission MAC overhead beyond payload serialization
#: (the SIFS-before-ACK plus the ACK frame at the base rate).  Charged
#: to every transmission, successful or colliding.
PER_TX_OVERHEAD = 60e-6

#: Station counts a ``csma-<n>`` medium may use.
MIN_STATIONS = 2
MAX_STATIONS = 64

_MEDIUM_RE = re.compile(r"^csma-(\d+)(-prio)?$")


@dataclass(frozen=True)
class MacClass:
    """One EDCA-style access class.

    Attributes:
        name: class label ("voice", "best_effort", "background").
        aifsn: arbitration inter-frame slots added before the backoff
            countdown (smaller = higher priority).
        cw_min / cw_max: contention-window bounds.  The backoff counter
            is drawn uniformly from ``[0, cw]``; collisions double
            ``cw`` as ``min(2*cw + 1, cw_max)`` and success resets it
            to ``cw_min`` -- the ``ca_decision`` busy/idle rule.
    """

    name: str
    aifsn: int
    cw_min: int
    cw_max: int

    def __post_init__(self):
        if self.aifsn < 1:
            raise ConfigError(f"aifsn must be >= 1: {self.aifsn}")
        if not 0 < self.cw_min <= self.cw_max:
            raise ConfigError(
                f"need 0 < cw_min <= cw_max: {self.cw_min}/{self.cw_max}")


#: The access classes stations can run.  Voice gets the tight window
#: and short AIFS (NR-U "high priority" in the ca_decision rules);
#: best-effort is the classic DCF/Bianchi setting.
ACCESS_CLASSES: dict[str, MacClass] = {
    "voice": MacClass("voice", aifsn=2, cw_min=7, cw_max=15),
    "best_effort": MacClass("best_effort", aifsn=3, cw_min=31, cw_max=1023),
    "background": MacClass("background", aifsn=7, cw_min=31, cw_max=1023),
}


@dataclass(frozen=True)
class MediumSpec:
    """A parsed non-default medium: station count plus priority layout.

    Attributes:
        n_stations: contending stations on the medium.
        priority: "uniform" (all best-effort) or "mixed" (odd-indexed
            stations run the voice class).
    """

    n_stations: int
    priority: str = "uniform"

    def __post_init__(self):
        if not MIN_STATIONS <= self.n_stations <= MAX_STATIONS:
            raise ConfigError(
                f"n_stations must be in [{MIN_STATIONS}, {MAX_STATIONS}]: "
                f"{self.n_stations}")
        if self.priority not in ("uniform", "mixed"):
            raise ConfigError(f"unknown priority layout {self.priority!r}")

    def station_class(self, index: int) -> MacClass:
        """The access class station ``index`` runs."""
        if self.priority == "mixed" and index % 2 == 1:
            return ACCESS_CLASSES["voice"]
        return ACCESS_CLASSES["best_effort"]

    def name(self) -> str:
        """The axis string this spec parses back from."""
        tail = "-prio" if self.priority == "mixed" else ""
        return f"csma-{self.n_stations}{tail}"


def parse_medium(value: str) -> MediumSpec | None:
    """Parse a ``medium`` axis value.

    Returns None for the default ``"queue"`` (no contention), a
    :class:`MediumSpec` for ``csma-<n>[-prio]``, and raises
    :class:`~repro.errors.ConfigError` for anything else.
    """
    if value == MEDIUM_DEFAULT:
        return None
    match = _MEDIUM_RE.match(value)
    if match is None:
        raise ConfigError(
            f"unknown medium {value!r}; expected {MEDIUM_DEFAULT!r}, "
            f"'csma-<n>', or 'csma-<n>-prio'")
    return MediumSpec(n_stations=int(match.group(1)),
                      priority="mixed" if match.group(2) else "uniform")


def medium_names() -> tuple[str, ...]:
    """A canonical sweep of medium axis values: the queue, then 2, 4
    and 8 stations without and with a priority class."""
    counts = (2, 4, 8)
    return (MEDIUM_DEFAULT, *(f"csma-{n}" for n in counts),
            *(f"csma-{n}-prio" for n in counts))
