"""§3.1 flow filters.

"We attempt to remove flows from the dataset that we know were unlikely
to have experienced contention: application- or receiver-limited flows
and flows we infer to use cellular links.  [...] We categorized flows
as application-limited if the AppLimited field was greater than zero,
and similarly we categorized a flow as receiver-limited if the
RWndLimited field was greater than zero."

Filters use only fields observable in real NDT data (never the
synthetic ground truth), so the pipeline exercises exactly the
inference the paper performs.
"""

from __future__ import annotations

import enum

import numpy as np

from .schema import NdtRecord, throughput_rows


class FlowCategory(enum.Enum):
    """§3.1 categorization of an NDT flow."""

    APP_LIMITED = "app_limited"
    RWND_LIMITED = "rwnd_limited"
    CELLULAR = "cellular"
    REMAINING = "remaining"


#: Access types M-Lab tags as cellular or satellite.
CELLULAR_ACCESS = ("cellular", "satellite")

#: Coefficient of variation above which an untagged flow is inferred
#: to be on a cellular link.
VARIABILITY_THRESHOLD = 0.25


def is_app_limited(record: NdtRecord) -> bool:
    """AppLimited > 0, per §3.1."""
    return record.app_limited_us > 0


def is_rwnd_limited(record: NdtRecord) -> bool:
    """RWndLimited > 0, per §3.1."""
    return record.rwnd_limited_us > 0


def _variable(series: np.ndarray) -> np.ndarray:
    """Per row of a ``(flows, n)`` throughput array: does its steady
    tail vary like a cellular link's?"""
    # Judge the steady tail: the first quarter of any TCP test is slow
    # start and loss recovery, which looks wild on every access type.
    tail = series[:, series.shape[1] // 4:]
    if tail.shape[1] < 4:
        return np.zeros(len(series), dtype=bool)
    mean = tail.mean(axis=1)
    positive = mean > 0
    # Coefficient of variation of short-term differences.
    cv = np.divide(np.std(np.diff(tail, axis=1), axis=1), mean,
                   out=np.zeros_like(mean), where=positive)
    return positive & (cv > VARIABILITY_THRESHOLD)


def infer_cellular(record: NdtRecord) -> bool:
    """Infer a cellular/satellite path.

    M-Lab infers access type from client network metadata; we use that
    tag when present and fall back to a throughput-variability
    heuristic (cellular links show large short-term rate variance even
    when saturated) -- the kind of inference §3.1 alludes to.  The
    heuristic is the one :func:`categorize_records` runs over a batch.
    """
    if record.access_type in CELLULAR_ACCESS:
        return True
    return bool(_variable(throughput_rows([record]))[0])


def categorize_records(records):
    """Apply the §3.1 filters, in the paper's order, to a batch.

    The AppLimited, RWndLimited and access-type tests read one counter
    or tag per record.  The records they leave undecided are grouped by
    length, and each group's throughput is computed once, as one
    ``(flows, n)`` array that the variability heuristic judges row by
    row; its ``REMAINING`` rows are what the change-point detector
    searches.

    Returns:
        ``(categories, remaining)``: one :class:`FlowCategory` per
        record, and one ``(positions, series)`` pair per length group
        with ``REMAINING`` records -- their positions in ``records``
        and their throughput rows.
    """
    categories = []
    undecided: dict[int, list[int]] = {}
    for i, record in enumerate(records):
        if is_app_limited(record):
            category = FlowCategory.APP_LIMITED
        elif is_rwnd_limited(record):
            category = FlowCategory.RWND_LIMITED
        elif record.access_type in CELLULAR_ACCESS:
            category = FlowCategory.CELLULAR
        else:
            category = FlowCategory.REMAINING
            undecided.setdefault(record.n_snapshots, []).append(i)
        categories.append(category)
    remaining = []
    for group in undecided.values():
        series = throughput_rows([records[i] for i in group])
        cellular = _variable(series)
        for i, flag in zip(group, cellular):
            if flag:
                categories[i] = FlowCategory.CELLULAR
        if not cellular.all():
            remaining.append(([i for i, flag in zip(group, cellular)
                               if not flag], series[~cellular]))
    return categories, remaining


def categorize(record: NdtRecord) -> FlowCategory:
    """Apply the §3.1 filters in the paper's order: a
    :func:`categorize_records` batch of one."""
    return categorize_records([record])[0][0]
