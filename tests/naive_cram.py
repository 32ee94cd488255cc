"""CRAM without the fused kernel: the reference the kernel is exact against.

Production CRAM packs every pool it is given (each gather is aligned by
``Croc._assemble``), so the kernel-less CRAM lives here only.  It runs
the production clustering loop and ``_CramState`` over two unpacked
stand-ins: :class:`Unpacked` in the kernel's place (closeness,
relationships, coverage tests, the one-to-many cover's gain and merges
walk the per-publisher ``BitVector`` dicts through :mod:`profile_oracle`)
and :class:`UnpackedOrder` in the standing order's (every
BIN PACKING pass flattens, sorts and first-fits unit by unit over
:mod:`first_fit_oracle`'s ``BitVector`` dict bins).  The equivalence
suites run it on the same input and demand the same placements, the
same counters and the same spans.

:func:`scan_best_pair` is the other reference here: a full scan of
every partner entry, the oracle of the lazy heap ``_CramState.best_pair``
takes pairs from.  ``NaiveCramAllocator`` shares ``best_pair`` with
production, so only a check against this scan can see a change in pair
order.
"""

from types import SimpleNamespace

from repro.core.cram import CramAllocator, CramStats
from repro.core.gif import Gif
from repro.core.profiles import merge_profiles
from repro.obs import recorder as obs

import first_fit_oracle
import profile_oracle


class Unpacked:
    """What CRAM and PAIRWISE ask of a kernel, answered on the profiles."""

    def __init__(self):
        self._index = {}  # (publisher, message ID) -> bit of pack()'s ints

    def closeness(self, name, first, second):
        return profile_oracle.closeness(name, first, second)

    def closeness_row(self, name, first, others):
        return [profile_oracle.closeness(name, first, other) for other in others]

    def relationship(self, first, second):
        return profile_oracle.relationship(first, second)

    def covers(self, first, second):
        return profile_oracle.covers(first, second)

    def pack(self, profile):
        """The one-to-many cover ORs and popcounts ``bits``."""
        return SimpleNamespace(bits=profile_oracle.id_bits(profile, self._index))

    def merge_profiles(self, profiles):
        return merge_profiles(profiles)

    def forget(self, profile):
        pass


class UnpackedOrder:
    """The standing order's interface over a plain list of units."""

    def __init__(self, units, pool, directory):
        self.units = list(units)
        self.pool = pool
        self.directory = directory

    def first_fit(self, stop_above=None):
        """Every pass runs out: ``stop_above`` is accepted and ignored, so
        the equivalence suites hold the cut probes against full ones.
        Opens the span ``StandingOrder.first_fit`` opens."""
        with obs.span("binpacking.first_fit", units=len(self.units)):
            return first_fit_oracle.binpacking(self.units, self.pool, self.directory)

    def after_merge(self, merge_units, merged):
        gone = {unit.unit_id for unit in merge_units}
        kept = [unit for unit in self.units if unit.unit_id not in gone]
        return UnpackedOrder(kept + [merged], self.pool, self.directory)


class NaiveCramAllocator(CramAllocator):
    def allocate(self, units, pool, directory):
        stats = CramStats(
            subscriptions=sum(unit.subscription_count for unit in units),
            initial_units=len(units),
        )
        self.last_stats = stats
        self.metric.reset_counter()
        with obs.span("cram.clustering", metric=self.metric.name, units=len(units)):
            order = UnpackedOrder(units, list(pool), directory)
            return self._clustering_run(units, order, directory, stats, Unpacked())


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
