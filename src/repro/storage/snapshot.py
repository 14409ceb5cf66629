"""Copy-on-write snapshots and snapshot groups (§III-A2).

A :class:`Snapshot` freezes the image of one volume at creation time:
subsequent base-volume writes first preserve the block's pre-image into
the snapshot store (the COW hook lives in
:meth:`repro.storage.volume.Volume.write_block`).  Snapshots are
*writable* (like Hitachi Thin Image): writes land in a private overlay,
so a database can replay its log against a snapshot without touching the
base volume.

A :class:`SnapshotGroup` snapshots several volumes **at one instant with
restore quiesced**, so the set of images is crash-consistent across
volumes — the property that lets the backup site run analytics on a
usable multi-volume image while replication continues.  Per-volume
snapshots taken at different instants do not have this property, which
experiment E4 demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import SnapshotError
from repro.storage.journal import payload_checksum
from repro.storage.volume import BlockValue, SnapshotView, Volume

#: Snapshot views expose ids in a disjoint range from real volumes so that
#: history lookups and CSI handles can never confuse the two.
SNAPSHOT_VIEW_ID_BASE = 1_000_000


class Snapshot:
    """A copy-on-write, writable point-in-time image of one volume."""

    def __init__(self, snapshot_id: int, base: Volume,
                 created_at: float, name: str = "") -> None:
        self.snapshot_id = snapshot_id
        self.base = base
        self.created_at = created_at
        self.name = name or f"snap-{snapshot_id}"
        self.view_volume_id = SNAPSHOT_VIEW_ID_BASE + snapshot_id
        self.deleted = False
        # Pre-images preserved by the COW hook.  The stored value is the
        # BlockValue the base held at snapshot time, or None when the
        # block was unallocated then.
        self._preimages: Dict[int, Optional[BlockValue]] = {}
        # Writes issued against the snapshot view.
        self._overlay: Dict[int, BlockValue] = {}
        self._overlay_version = 0
        # Memoized materializations of image_blocks()/frozen_version_map()
        # guarded by a mutation generation (bumped on overlay writes;
        # preimage saves keep both views stable — see image_blocks()).
        self._mutation_gen = 0
        self._image_cache: Optional[Dict[int, bytes]] = None
        self._image_cache_gen = -1
        self._frozen_cache: Optional[Dict[int, int]] = None
        #: the sequence point of the group quiesce, when group-created
        self.group_sequence: Optional[int] = None
        base.attach_snapshot(self)

    # -- COW hook interface (called by Volume.write_block) ------------------

    def has_preimage(self, block: int) -> bool:
        """True when the block's pre-image is already preserved."""
        return block in self._preimages

    def save_preimage(self, block: int,
                      value: Optional[BlockValue]) -> None:
        """Preserve the base volume's current content of ``block``."""
        if self.deleted:
            raise SnapshotError(f"{self.name}: save_preimage after delete")
        if block not in self._preimages:
            self._preimages[block] = value

    @property
    def cow_blocks(self) -> int:
        """Number of preserved pre-images (snapshot store usage)."""
        return len(self._preimages)

    # -- image access --------------------------------------------------------

    def read_current(self, block: int) -> Optional[bytes]:
        """Content of ``block`` as the snapshot view sees it."""
        self._check_live()
        if block in self._overlay:
            return self._overlay[block].payload
        if block in self._preimages:
            value = self._preimages[block]
            return value.payload if value is not None else None
        value = self.base.peek(block)
        return value.payload if value is not None else None

    def version_of(self, block: int) -> int:
        """Version of the block as the snapshot view sees it (0 if empty)."""
        self._check_live()
        if block in self._overlay:
            return self._overlay[block].version
        if block in self._preimages:
            value = self._preimages[block]
            return value.version if value is not None else 0
        value = self.base.peek(block)
        return value.version if value is not None else 0

    def write_overlay(self, block: int, payload: bytes) -> int:
        """Write into the snapshot's private overlay; returns a version."""
        self._check_live()
        self._overlay_version += 1
        self._mutation_gen += 1
        version = self.base.version_counter + self._overlay_version
        data = bytes(payload)
        self._overlay[block] = BlockValue(
            data, version, checksum=payload_checksum(data))
        if self._image_cache is not None:
            # keep the memoized image hot instead of invalidating it
            self._image_cache[block] = data
            self._image_cache_gen = self._mutation_gen
        return version

    def image_blocks(self) -> Dict[int, bytes]:
        """The full current image of the snapshot view (checker use).

        Memoized: the merge of base ∪ pre-images is the *frozen* view,
        which is immutable after creation — every base mutation routes
        through the COW hook first, so the pre-image it preserves equals
        exactly the value this cache already holds for that block, and
        all later base values are masked by it.  Only overlay writes
        change the image, and they update the cache in place (guarded by
        the mutation generation).  The returned dict is the cache —
        callers treat it as read-only.
        """
        self._check_live()
        if self._image_cache is None \
                or self._image_cache_gen != self._mutation_gen:
            image: Dict[int, bytes] = {}
            for block, value in self.base.block_map().items():
                image[block] = value.payload
            for block, value in self._preimages.items():
                if value is None:
                    image.pop(block, None)
                else:
                    image[block] = value.payload
            for block, value in self._overlay.items():
                image[block] = value.payload
            self._image_cache = image
            self._image_cache_gen = self._mutation_gen
        return self._image_cache

    def frozen_version_map(self) -> Dict[int, int]:
        """block → version of the *frozen* image (ignores the overlay).

        This is what consistency checking compares against history: the
        state of the base volume at snapshot-creation time.  Memoized:
        the frozen view never changes after the first materialization
        (same COW-ordering argument as :meth:`image_blocks`, and the
        overlay is ignored here).  The returned dict is the cache —
        callers treat it as read-only.
        """
        self._check_live()
        if self._frozen_cache is None:
            versions: Dict[int, int] = {}
            for block, value in self.base.block_map().items():
                versions[block] = value.version
            for block, value in self._preimages.items():
                if value is None:
                    versions.pop(block, None)
                else:
                    versions[block] = value.version
            self._frozen_cache = versions
        return self._frozen_cache

    def view(self) -> SnapshotView:
        """A volume-like read/write handle over this snapshot."""
        self._check_live()
        return SnapshotView(self)

    # -- lifecycle -----------------------------------------------------------

    def delete(self) -> None:
        """Release the snapshot (pre-images dropped, COW hook detached)."""
        if self.deleted:
            return
        self.deleted = True
        self.base.detach_snapshot(self)
        self._preimages.clear()
        self._overlay.clear()
        self._image_cache = None
        self._frozen_cache = None

    def _check_live(self) -> None:
        if self.deleted:
            raise SnapshotError(f"{self.name} has been deleted")

    def __repr__(self) -> str:
        state = "deleted" if self.deleted else "live"
        return (f"<Snapshot {self.name!r} of {self.base.name!r} "
                f"t={self.created_at:g} cow={self.cow_blocks} {state}>")


@dataclass
class SnapshotGroup:
    """Snapshots of several volumes taken at a single quiesced instant."""

    group_id: str
    created_at: float
    snapshots: List[Snapshot] = field(default_factory=list)
    #: True when created under restore quiesce (consistent across members)
    quiesced: bool = True

    def member_ids(self) -> List[int]:
        """Snapshot ids of the members."""
        return [snap.snapshot_id for snap in self.snapshots]

    def by_base_volume(self) -> Dict[int, Snapshot]:
        """Map base volume id → member snapshot."""
        return {snap.base.volume_id: snap for snap in self.snapshots}

    def views(self) -> Dict[int, SnapshotView]:
        """Volume-like views keyed by base volume id."""
        return {snap.base.volume_id: snap.view() for snap in self.snapshots}

    def delete(self) -> None:
        """Delete every member snapshot."""
        for snap in self.snapshots:
            snap.delete()

    def frozen_versions(self) -> Dict[int, Dict[int, int]]:
        """base volume id → (block → frozen version), for the checker."""
        return {snap.base.volume_id: snap.frozen_version_map()
                for snap in self.snapshots}
