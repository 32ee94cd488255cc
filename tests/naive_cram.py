"""CRAM without the fused kernel: the reference the kernel is exact against.

With no kernel every closeness evaluation walks the per-publisher
``BitVector`` dicts, every bin keeps ``BrokerBin`` bookkeeping, and
every probe flattens, sorts and first-fits unit by unit — the path
production takes for a pool ``ClosenessKernel.for_pool`` declines, and
the one FBF, BIN PACKING and Phase 3 always run.  The equivalence
suites run it on the same input and demand the same placements, the
same counters and the same spans.
"""

from repro.core.cram import CramAllocator


class NaiveCramAllocator(CramAllocator):
    def _build_kernel(self, units, directory):
        return None
