"""Write-ahead log of MiniDB.

One WAL record occupies one block of the log volume; the LSN is the
block index, so the storage layer's per-volume write ordering directly
gives the classic WAL prefix property: a crash image of the log volume is
always a record-aligned prefix.

Record types (redo-only ARIES-lite plus the 2PC records):

* ``update`` — one key change of one transaction (redo information);
* ``commit`` / ``abort`` — local transaction outcome;
* ``prepare`` — participant vote in two-phase commit, carrying the
  global transaction id;
* ``coord-commit`` / ``coord-abort`` — the coordinator's durable global
  decision (written into the coordinator database's WAL);
* ``checkpoint`` — all dirty pages flushed up to this LSN; recovery can
  start redo here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Generator, List, Optional

from repro.errors import DatabaseError, RecoveryError
from repro.apps.minidb.device import BlockDevice

UPDATE = "update"
COMMIT = "commit"
ABORT = "abort"
PREPARE = "prepare"
COORD_COMMIT = "coord-commit"
COORD_ABORT = "coord-abort"
CHECKPOINT = "checkpoint"

_VALID_TYPES = {UPDATE, COMMIT, ABORT, PREPARE, COORD_COMMIT, COORD_ABORT,
                CHECKPOINT}


@dataclass(frozen=True)
class WalRecord:
    """One write-ahead log record (one block on the log volume)."""

    type: str
    txn_id: str = ""
    #: global transaction id (2PC records)
    gtid: str = ""
    key: str = ""
    #: None encodes a delete
    value: Optional[str] = None
    #: redo start hint (checkpoint records)
    checkpoint_lsn: int = -1
    #: assigned when the record is written
    lsn: int = -1

    def __post_init__(self) -> None:
        if self.type not in _VALID_TYPES:
            raise DatabaseError(f"unknown WAL record type {self.type!r}")

    def to_bytes(self) -> bytes:
        """Serialise for one log block.

        Byte-identical to ``json.dumps`` of the record's fields with
        ``sort_keys=True, separators=(",", ":")``, but formatted
        directly: the keys are written in sorted order and the strings
        quoted by the same ASCII escaper ``json.dumps`` uses.  Every
        field is a ``str`` or an ``int`` (``value`` may be ``None``, a
        delete) — :meth:`MiniDB.put` rejects any other value.
        """
        value = "null" if self.value is None else _quote(self.value)
        return (f'{{"checkpoint_lsn":{self.checkpoint_lsn:d},'
                f'"gtid":{_quote(self.gtid)},"key":{_quote(self.key)},'
                f'"lsn":{self.lsn:d},"txn_id":{_quote(self.txn_id)},'
                f'"type":{_quote(self.type)},"value":{value}}}'
                ).encode()

    @classmethod
    def from_bytes(cls, payload: bytes, lsn: int) -> "WalRecord":
        """Deserialise a log block; validates the embedded LSN."""
        try:
            decoded = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise RecoveryError(f"WAL block {lsn}: undecodable") from exc
        record = cls(type=decoded["type"], txn_id=decoded["txn_id"],
                     gtid=decoded["gtid"], key=decoded["key"],
                     value=decoded["value"],
                     checkpoint_lsn=decoded["checkpoint_lsn"],
                     lsn=decoded["lsn"])
        if record.lsn != lsn:
            raise RecoveryError(
                f"WAL block {lsn} claims LSN {record.lsn}")
        return record


class _NullLatch:
    """No-op latch for devices without a simulator (in-memory devices
    complete writes without yielding, so appends cannot interleave)."""

    def acquire(self):
        return None

    def release(self) -> None:
        return None


class WalWriter:
    """Appends records to the log volume, one block per record.

    Appends are serialised by an internal latch: the LSN is assigned and
    the block written atomically with respect to other appenders, so
    concurrent transactions (e.g. parallel 2PC prepares) can never stamp
    the same LSN or leave holes in the log.
    """

    def __init__(self, device: BlockDevice) -> None:
        self.device = device
        self._next_lsn = 0
        self._latch = None  # created lazily; needs a Simulator

    @property
    def next_lsn(self) -> int:
        """LSN the next record will receive."""
        return self._next_lsn

    def _ensure_latch(self):
        if self._latch is None:
            from repro.simulation.resources import Lock
            sim = getattr(self.device, "sim", None) or \
                getattr(getattr(self.device, "array", None), "sim", None)
            if sim is None:
                self._latch = _NullLatch()
            else:
                self._latch = Lock(sim, name="wal-append-latch")
        return self._latch

    def append(self, record: WalRecord,
               ) -> Generator[object, object, WalRecord]:
        """Durably write one record; returns it with its LSN assigned.

        The write is *forced*: when this generator completes, the record
        is on (simulated) stable storage and inside the replication
        pipeline.
        """
        latch = self._ensure_latch()
        yield latch.acquire()
        try:
            if self._next_lsn >= self.device.capacity_blocks:
                raise DatabaseError(
                    f"WAL volume full at LSN {self._next_lsn}; size the "
                    "log volume for the workload")
            stamped = WalRecord(
                type=record.type, txn_id=record.txn_id, gtid=record.gtid,
                key=record.key, value=record.value,
                checkpoint_lsn=record.checkpoint_lsn, lsn=self._next_lsn)
            tag = f"wal:{stamped.type}:{stamped.txn_id or stamped.gtid}"
            yield from self.device.write_block(
                stamped.lsn, stamped.to_bytes(), tag=tag)
            self._next_lsn += 1
        finally:
            self._latch.release()
        return stamped

    def append_many(self, records: List[WalRecord],
                    ) -> Generator[object, object, List[WalRecord]]:
        """Durably write several records under one latch acquisition and
        one batched device flush; returns them with their LSNs assigned.

        LSNs are contiguous and stamped in input order, and the device
        flush preserves that order, so the WAL prefix property holds
        exactly as with serial :meth:`append` calls — a crash image is
        still a record-aligned prefix of the log.
        """
        if not records:
            return []
        latch = self._ensure_latch()
        yield latch.acquire()
        try:
            if self._next_lsn + len(records) > self.device.capacity_blocks:
                raise DatabaseError(
                    f"WAL volume full at LSN {self._next_lsn}; size the "
                    "log volume for the workload")
            stamped = [
                WalRecord(
                    type=record.type, txn_id=record.txn_id,
                    gtid=record.gtid, key=record.key, value=record.value,
                    checkpoint_lsn=record.checkpoint_lsn,
                    lsn=self._next_lsn + offset)
                for offset, record in enumerate(records)]
            yield from self.device.write_blocks(
                [(record.lsn, record.to_bytes(),
                  f"wal:{record.type}:{record.txn_id or record.gtid}")
                 for record in stamped])
            self._next_lsn += len(stamped)
        finally:
            self._latch.release()
        return stamped

    def resume_from(self, lsn: int) -> None:
        """Continue appending after ``lsn`` (post-recovery reuse)."""
        if lsn < 0:
            raise DatabaseError(f"cannot resume from LSN {lsn}")
        self._next_lsn = lsn


def read_log(device: BlockDevice,
             ) -> Generator[object, object, List[WalRecord]]:
    """Read the entire log from a device (process generator).

    Scans forward until the first unallocated block — valid because the
    log is written strictly sequentially and storage preserves per-volume
    write order, so the crash image is always a dense prefix.
    """
    records: List[WalRecord] = []
    for lsn in range(device.capacity_blocks):
        payload = yield from device.read_block(lsn)
        if payload is None:
            break
        records.append(WalRecord.from_bytes(payload, lsn))
    return records
