"""CRAM without the fused kernel: the reference the kernel is exact against.

With no kernel every closeness evaluation walks the per-publisher
``BitVector`` dicts, every bin keeps ``BrokerBin`` bookkeeping, and
every probe flattens, sorts and first-fits unit by unit — the path
production takes for a pool ``ClosenessKernel.for_pool`` declines, and
the one FBF, BIN PACKING and Phase 3 always run.  The equivalence
suites run it on the same input and demand the same placements, the
same counters and the same spans.

:func:`scan_best_pair` is the other reference here: a full scan of
every partner entry, the oracle of the lazy heap ``_CramState.best_pair``
takes pairs from.  ``NaiveCramAllocator`` shares ``best_pair`` with
production, so only a check against this scan can see a change in pair
order.
"""

from repro.core.cram import CramAllocator
from repro.core.gif import Gif


class NaiveCramAllocator(CramAllocator):
    def _build_kernel(self, units, directory):
        return None


def scan_best_pair(state):
    """The highest non-zero closeness pair of ``state``, by a full scan.

    Recomputes the dirty entries first, exactly as ``best_pair`` does,
    then walks every entry: highest value wins, ties go to the lower
    ``gif_id``.  An entry of an empty GIF, or one naming an emptied
    partner, is skipped (the partner's entry is marked dirty and the
    scan repeats if nothing else qualified).
    """
    while state._dirty:
        gif_id = state._dirty.pop()
        gif = state.gifs.get(gif_id)
        if gif is None or gif.is_empty():
            continue
        state._set_entry(gif_id, state._compute_entry(gif))
    best = None
    for gif_id, entry in state._entries.items():
        if entry.partner is None or entry.value <= 0:
            continue
        gif = state.gifs.get(gif_id)
        if gif is None or gif.is_empty():
            continue
        if isinstance(entry.partner, Gif) and entry.partner.is_empty():
            state._dirty.add(gif_id)
            continue
        if best is None or entry.value > best[2] or (
            entry.value == best[2] and gif.gif_id < best[0].gif_id
        ):
            best = (gif, entry.partner, entry.value)
    if best is None and state._dirty:
        return scan_best_pair(state)
    return best
