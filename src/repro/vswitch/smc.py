"""The signature-match cache (SMC): OVS-DPDK's second-level lookup.

Sits between the EMC and the tuple-space classifier.  Where the EMC
stores the full resolution per exact flow key (expensive per entry, so
it thrashes at high flow counts), the SMC only remembers *which subtable
matched* a key's hash — 16 bits per flow in real OVS, a single mask
signature reference here — so it stays effective with orders of
magnitude more flows than EMC slots.

The cache is a direct-mapped hash table: ``hash(key)`` picks the slot,
collisions simply overwrite.  A hit is only ever a *hint*: the datapath
hands it to :meth:`TupleSpaceClassifier.lookup_hinted`, which probes the
hinted subtable first and then verifies against every subtable that
could outrank the candidate — a stale or colliding slot costs time,
never correctness.  That mirrors real OVS, where an SMC hit still runs
the subtable's rule-match before being believed.
"""

from typing import Dict, Optional

from repro.packet.flowkey import FlowKey
from repro.vswitch.classifier import MaskSignature


class SignatureMatchCache:
    """Direct-mapped FlowKey-hash -> subtable-signature cache."""

    def __init__(self, capacity: int = 1 << 13) -> None:
        if capacity <= 0 or capacity & (capacity - 1):
            raise ValueError("SMC capacity must be a positive power of two")
        self.capacity = capacity
        self._slots: Dict[int, MaskSignature] = {}
        self.hits = 0        # probes whose hint was validated by dpcls
        self.misses = 0      # empty slot, or hint failed validation
        self.insertions = 0
        self.replacements = 0  # collision/update overwrote a live slot

    def _slot(self, key: FlowKey) -> int:
        # FlowKey is a NamedTuple of ints, so hash() is deterministic
        # across runs (PYTHONHASHSEED only perturbs str/bytes).
        return hash(key) & (self.capacity - 1)

    def probe(self, key: FlowKey) -> Optional[MaskSignature]:
        """The hinted subtable signature for ``key``, or None.

        Pure read — the caller reports the validation outcome through
        :meth:`account` once the classifier has confirmed or refuted
        the hint.
        """
        return self._slots.get(self._slot(key))

    def account(self, validated: bool) -> None:
        """Record one probe outcome (hit = hint survived validation)."""
        if validated:
            self.hits += 1
        else:
            self.misses += 1

    def insert(self, key: FlowKey, signature: MaskSignature) -> None:
        """Remember that ``key`` matched in ``signature``'s subtable."""
        slot = self._slots
        index = self._slot(key)
        previous = slot.get(index)
        if previous is not None and previous != signature:
            self.replacements += 1
        slot[index] = signature
        self.insertions += 1

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
