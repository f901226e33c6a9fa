"""The late scenario axes, each declared once.

``backend``, ``timing_jitter`` and ``medium`` were added after scenario
fingerprints, campaign store keys and the regression corpus already
existed.  Every such axis therefore obeys the same rules everywhere it
appears: it has a default that means "as before the axis existed", a
value at that default is left out of every dict and fingerprint (so
old keys stay addressable), any other value is validated the same way
whether it arrives as a dataclass field, a ``Campaign`` keyword, a
serve/cluster JSON param or a CLI flag.  Those rules live in
:data:`AXES`; ``Scenario``, ``PathSpec``, ``Campaign``, the serve and
cluster param handling and the CLI read them from here (DESIGN.md,
"Describing a path", has the recipe for adding one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigError
from ..medium.config import MEDIUM_DEFAULT, parse_medium
from ..sim.jitter import MAX_AMPLITUDE

#: Simulation backends: the event-driven reference and the rate-based
#: fast path (:mod:`repro.fluid`).
BACKENDS = ("packet", "fluid")


def preload_backend(backend: str) -> None:
    """Import ``backend``'s simulator now (the packet engine is always
    loaded).  A caller about to fork a process pool calls this first,
    so that no worker imports it again (the warm-fork contract of
    :mod:`repro.runtime.pool`)."""
    if backend == "fluid":
        from .. import fluid  # noqa: F401


@dataclass(frozen=True)
class Axis:
    """One late axis.

    Attributes:
        name: the dataclass field, ``Campaign`` keyword, serve/cluster
            param, dict key and (as ``--name``) CLI flag.
        level: how far down it reaches.  ``"scenario"``: a
            :class:`~repro.qa.scenario.Scenario` field only.  ``"run"``:
            also one value for a whole campaign or experiment
            (``Campaign`` keyword, serve/cluster param, flag on
            ``run``/``trace``/``metrics``).  ``"path"``: all of that,
            and a :class:`~repro.core.campaign.PathSpec` field and
            ``quicklook`` flag as well.
        default: the pre-axis behaviour; omitted wherever it appears.
        tag: the axis's name in ``Scenario.label()``.
        choices: the closed set of values, if there is one.
        check: raises :class:`ConfigError` for a well-typed value that
            is out of range or malformed.
        help: CLI help text.
    """

    name: str
    level: str
    default: object
    tag: str
    choices: tuple | None = None
    check: Callable | None = None
    help: str = ""

    def validate(self, value):
        """``value`` if it is valid for this axis, else ConfigError."""
        kind = type(self.default)
        accepted = (int, float) if kind is float else kind
        if not isinstance(value, accepted) or isinstance(value, bool):
            raise ConfigError(f"{self.name} must be a {kind.__name__}: "
                              f"{value!r}")
        if self.choices is not None and value not in self.choices:
            raise ConfigError(f"unknown {self.name} {value!r}; "
                              f"known: {', '.join(self.choices)}")
        if self.check is not None:
            self.check(value)
        return value

    def add_flag(self, parser) -> None:
        """Add ``--name`` to an argparse parser (unset parses as None)."""
        kind = type(self.default)
        shape = ({"choices": self.choices} if self.choices is not None
                 else {"metavar": self.name.upper()})
        parser.add_argument("--" + self.name.replace("_", "-"),
                            dest=self.name, help=self.help,
                            type=kind, **shape)


def _check_jitter(value: float) -> None:
    if not 0.0 <= value <= MAX_AMPLITUDE:
        raise ConfigError(
            f"timing_jitter must be in [0, {MAX_AMPLITUDE}]: {value}")


#: Every late axis by name, in the order labels list them.
AXES: dict[str, Axis] = {axis.name: axis for axis in (
    Axis("backend", "run", "packet", tag="backend", choices=BACKENDS,
         help="simulation backend for experiments that accept one "
              "(fluid = rate-based fast path; see DESIGN.md)"),
    Axis("timing_jitter", "scenario", 0.0, tag="jitter",
         check=_check_jitter),
    Axis("medium", "path", MEDIUM_DEFAULT, tag="medium",
         check=parse_medium,
         help="bottleneck access regime: 'queue' (default) or "
              "'csma-<n>[-prio]' for a CSMA/CA shared medium with n "
              "stations (see DESIGN.md)"),
)}


def declared(*levels: str) -> list[Axis]:
    """The declared axes at ``levels`` (every axis when none given)."""
    return [axis for axis in AXES.values()
            if not levels or axis.level in levels]


def axis_values(obj, *levels: str) -> dict:
    """``obj``'s value for each axis at ``levels``; an object built
    before an axis existed reads as that axis's default."""
    return {axis.name: getattr(obj, axis.name, axis.default)
            for axis in declared(*levels)}


def resolve_axes(given: dict, *levels: str) -> dict:
    """Validated values for every axis at ``levels``, defaults filled
    in; a name in ``given`` that is not such an axis is an error."""
    known = {axis.name: axis for axis in declared(*levels)}
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ConfigError(f"unknown axis {', '.join(unknown)}; "
                          f"known: {', '.join(known)}")
    return {name: axis.validate(given.get(name, axis.default))
            for name, axis in known.items()}


def drop_defaults(doc: dict) -> dict:
    """``doc`` without the axes that sit at their default (in place).

    The one omission rule: ``value == default``, never truthiness.
    """
    for axis in AXES.values():
        if axis.name in doc and doc[axis.name] == axis.default:
            del doc[axis.name]
    return doc
