"""Hypothesis fuzz tests of the service's two input parsers.

* ``EventJournal.load`` drops a malformed *final* line (a crash can tear
  the last write) and raises :class:`JournalError` for a malformed line
  anywhere else -- whether the line is torn, not JSON, not UTF-8, valid
  JSON that is not an object, or an object with wrong-typed fields.
* ``protocol.parse_client_line`` returns a message whose op and fields
  validate, or raises :class:`ProtocolError`; nothing else escapes.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.service import protocol
from repro.service.journal import (
    RECORD_KINDS,
    EventJournal,
    JournalError,
    JournalRecord,
)

FUZZ = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: The line separators of ``bytes.splitlines``: a generated line holding
#: one would be two lines.
LINE_BREAKS = "\n\r"

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)

records = st.builds(
    JournalRecord,
    seq=st.integers(min_value=0, max_value=10**9),
    kind=st.sampled_from(RECORD_KINDS),
    request_id=st.text(max_size=8),
    fingerprint=st.text(alphabet="0123456789abcdef", max_size=8),
    payload=st.dictionaries(st.text(max_size=4), json_values, max_size=3),
)


def encode(record):
    """One journal line, exactly as ``EventJournal.append`` writes it."""
    return json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))


@st.composite
def torn_lines(draw):
    line = encode(draw(records))
    return line[: draw(st.integers(min_value=1, max_value=len(line) - 1))]


@st.composite
def wrong_typed_records(draw):
    data = draw(records).to_dict()
    key = draw(st.sampled_from(["seq", "kind", "id", "fingerprint", "payload"]))
    if key == "seq":
        bad = json_values.filter(
            lambda value: isinstance(value, bool) or not isinstance(value, int)
        )
    elif key == "payload":
        bad = json_values.filter(lambda value: value is not None and not isinstance(value, dict))
    else:
        bad = json_values.filter(lambda value: not isinstance(value, str))
    data[key] = draw(bad)
    return json.dumps(data)


#: Lines that can never load as a record.
malformed_lines = st.one_of(
    torn_lines(),
    json_values.filter(lambda value: not isinstance(value, dict)).map(json.dumps),
    wrong_typed_records(),
)

#: Anything on one line: the line may or may not happen to be a record.
arbitrary_lines = st.one_of(
    st.text(alphabet=st.characters(blacklist_characters=LINE_BREAKS), max_size=40),
    st.binary(max_size=40).filter(lambda raw: b"\n" not in raw and b"\r" not in raw),
)

#: The cases found on the loader before it checked record shapes.
NON_OBJECT_EXAMPLES = ["5", '"x"', "null", "[]", '{"seq": "a", "kind": "acked"}']
WRONG_PAYLOAD_EXAMPLES = [
    '{"seq": 1, "kind": "acked", "payload": [1, 2]}',
    '{"seq": 1, "kind": "acked", "payload": "text"}',
]
DEEP_EXAMPLE = "[" * 100_000


def write_journal(path, valid, last, trailing_newline=False):
    lines = [encode(record).encode("utf-8") for record in valid]
    lines.append(last if isinstance(last, bytes) else last.encode("utf-8"))
    path.write_bytes(b"\n".join(lines) + (b"\n" if trailing_newline else b""))


class TestJournalLoadFuzz:
    @FUZZ
    @given(valid=st.lists(records, max_size=4))
    def test_valid_records_round_trip(self, tmp_path, valid):
        path = tmp_path / "journal.jsonl"
        path.write_text("".join(encode(record) + "\n" for record in valid))
        assert EventJournal.load(path) == valid

    @FUZZ
    @given(
        valid=st.lists(records, max_size=3),
        last=malformed_lines,
        trailing_newline=st.booleans(),
    )
    @example(valid=[], last=NON_OBJECT_EXAMPLES[0], trailing_newline=False)
    @example(valid=[], last=NON_OBJECT_EXAMPLES[1], trailing_newline=True)
    @example(valid=[], last=NON_OBJECT_EXAMPLES[2], trailing_newline=False)
    @example(valid=[], last=NON_OBJECT_EXAMPLES[3], trailing_newline=False)
    @example(valid=[], last=NON_OBJECT_EXAMPLES[4], trailing_newline=False)
    @example(valid=[], last=WRONG_PAYLOAD_EXAMPLES[0], trailing_newline=False)
    @example(valid=[], last=WRONG_PAYLOAD_EXAMPLES[1], trailing_newline=False)
    @example(valid=[], last=DEEP_EXAMPLE, trailing_newline=False)
    def test_malformed_final_line_is_dropped(self, tmp_path, valid, last, trailing_newline):
        path = tmp_path / "journal.jsonl"
        write_journal(path, valid, last, trailing_newline)
        assert EventJournal.load(path) == valid

    @FUZZ
    @given(valid=st.lists(records, min_size=1, max_size=3), bad=malformed_lines)
    @example(valid=[JournalRecord(1, "acked", "r1")], bad=NON_OBJECT_EXAMPLES[0])
    @example(valid=[JournalRecord(1, "acked", "r1")], bad=NON_OBJECT_EXAMPLES[4])
    @example(valid=[JournalRecord(1, "acked", "r1")], bad=WRONG_PAYLOAD_EXAMPLES[0])
    @example(valid=[JournalRecord(1, "acked", "r1")], bad=DEEP_EXAMPLE)
    def test_malformed_line_before_the_last_raises(self, tmp_path, valid, bad):
        path = tmp_path / "journal.jsonl"
        write_journal(path, [], bad)
        with open(path, "ab") as handle:
            handle.write(b"\n" + "\n".join(encode(record) for record in valid).encode())
        with pytest.raises(JournalError, match="corrupt journal line 1"):
            EventJournal.load(path)

    @FUZZ
    @given(valid=st.lists(records, max_size=2), line=arbitrary_lines, last=st.booleans())
    def test_arbitrary_line_loads_or_raises_journal_error(self, tmp_path, valid, line, last):
        path = tmp_path / "journal.jsonl"
        if last:
            write_journal(path, valid, line)
            loaded = EventJournal.load(path)  # a final line never raises
            assert loaded[: len(valid)] == valid and len(loaded) - len(valid) in (0, 1)
            return
        write_journal(path, [], line)
        with open(path, "ab") as handle:
            handle.write(b"".join(b"\n" + encode(record).encode() for record in valid))
        try:
            loaded = EventJournal.load(path)
        except JournalError:
            return
        assert loaded[len(loaded) - len(valid):] == valid


# ----------------------------------------------------------------------
# Client protocol
# ----------------------------------------------------------------------
VALID_MESSAGES = [
    {"op": "solve", "id": "r1", "request": {"soc": "d695", "total_width": 16}},
    {"op": "solve", "id": "r2", "request": {}, "deadline": 2.5},
    {"op": "ack", "id": "r1"},
    {"op": "cancel", "id": "r1"},
    {"op": "stats"},
    {"op": "shutdown"},
]


def assert_valid_message(message):
    """The documented shape of every message ``parse_client_line`` returns."""
    assert isinstance(message, dict)
    assert message["op"] in protocol.CLIENT_OPS
    if message["op"] in (protocol.OP_SOLVE, protocol.OP_ACK, protocol.OP_CANCEL):
        assert isinstance(message["id"], str) and message["id"]
    if message["op"] == protocol.OP_SOLVE:
        assert isinstance(message["request"], dict)
        deadline = message.get("deadline")
        if deadline is not None:
            assert not isinstance(deadline, bool)
            assert isinstance(deadline, (int, float))
            assert math.isfinite(deadline) and deadline > 0


def parse_outcome(line):
    try:
        message = protocol.parse_client_line(line)
    except protocol.ProtocolError:
        return None
    assert_valid_message(message)
    return message


@st.composite
def mutated_messages(draw):
    message = dict(draw(st.sampled_from(VALID_MESSAGES)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        action = draw(st.sampled_from(["drop", "set", "add"]))
        if action == "drop" and message:
            del message[draw(st.sampled_from(sorted(message)))]
        elif action == "set" and message:
            message[draw(st.sampled_from(sorted(message)))] = draw(json_values)
        else:
            message[draw(st.sampled_from(["op", "id", "request", "deadline", "x"]))] = draw(
                json_values
            )
    return message


class TestClientProtocolFuzz:
    @FUZZ
    @given(line=st.text(max_size=60))
    @example(line=DEEP_EXAMPLE)
    def test_arbitrary_text_parses_or_raises_protocol_error(self, line):
        parse_outcome(line)

    @FUZZ
    @given(message=st.sampled_from(VALID_MESSAGES))
    def test_valid_messages_parse_unchanged(self, message):
        assert parse_outcome(json.dumps(message)) == message

    @FUZZ
    @given(message=mutated_messages())
    def test_mutated_messages_parse_or_raise_protocol_error(self, message):
        parse_outcome(json.dumps(message))

    @FUZZ
    @given(message=st.sampled_from(VALID_MESSAGES), data=st.data())
    def test_truncated_messages_raise_protocol_error(self, message, data):
        line = json.dumps(message)
        cut = data.draw(st.integers(min_value=0, max_value=len(line) - 1))
        assert parse_outcome(line[:cut]) is None
