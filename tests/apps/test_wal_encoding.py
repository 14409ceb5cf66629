"""WAL record encoding: ``WalRecord.to_bytes`` formats the record
directly, and must stay byte-identical to the ``json.dumps`` form it
replaced (sorted keys, compact separators, ASCII escapes), so logs
written before and after the change read the same and replicate the
same bytes."""

import dataclasses
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.minidb import wal
from repro.apps.minidb.wal import WalRecord


def json_form(record: WalRecord) -> bytes:
    """The reference encoding: ``json.dumps`` of the record's fields."""
    return json.dumps({
        "type": record.type, "txn_id": record.txn_id, "gtid": record.gtid,
        "key": record.key, "value": record.value,
        "checkpoint_lsn": record.checkpoint_lsn, "lsn": record.lsn,
    }, sort_keys=True, separators=(",", ":")).encode()


def json_text(text: str) -> str:
    """``text`` as JSON reads it back: a high surrogate escaped right
    before a low one decodes as the pair's one code point, even when
    the string held them as two lone surrogates (the old encoding did
    the same)."""
    return text.encode("utf-16-le", "surrogatepass").decode(
        "utf-16-le", "surrogatepass")


#: characters JSON must escape or that stress the ASCII escaper: quote,
#: backslash, control characters, DEL, non-ASCII in and beyond the BMP,
#: the JS line separators and lone surrogates
_TRICKY = st.sampled_from(
    ['"', "\\", "/", "\x00", "\b", "\t", "\n", "\r", "\x1f", "\x7f",
     "\u00e9", "\u2028", "\u2029", "\ufeff", "\U0001f600", "\ud800",
     "\udfff"])

#: any code point, surrogates included, mixed with the tricky ones
_STRINGS = st.text(
    alphabet=st.one_of(_TRICKY, st.characters(exclude_categories=())),
    max_size=24)

_RECORDS = st.builds(
    WalRecord,
    type=st.sampled_from([wal.UPDATE, wal.COMMIT, wal.ABORT, wal.PREPARE,
                          wal.COORD_COMMIT, wal.COORD_ABORT,
                          wal.CHECKPOINT]),
    txn_id=_STRINGS, gtid=_STRINGS, key=_STRINGS,
    value=st.none() | _STRINGS,
    checkpoint_lsn=st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    lsn=st.integers(min_value=-1, max_value=2 ** 40))


class TestWalEncoding:
    @settings(max_examples=400, deadline=None)
    @given(record=_RECORDS)
    @example(record=WalRecord(type=wal.COMMIT))
    @example(record=WalRecord(type=wal.UPDATE, txn_id="", key="",
                              value=None, checkpoint_lsn=-7, lsn=0))
    @example(record=WalRecord(type=wal.UPDATE, txn_id="t\"1\\",
                              key="\ud800\x01", value="", lsn=3))
    @example(record=WalRecord(type=wal.UPDATE, key="\ud800\udfff",
                              value="\udfff\ud800", lsn=4))
    def test_bytes_match_json_and_round_trip(self, record):
        encoded = record.to_bytes()
        assert encoded == json_form(record)
        assert WalRecord.from_bytes(encoded, record.lsn) == \
            dataclasses.replace(
                record, txn_id=json_text(record.txn_id),
                gtid=json_text(record.gtid), key=json_text(record.key),
                value=None if record.value is None
                else json_text(record.value))
