"""Wire round-trips for the whole message taxonomy -- auto-enumerated.

The message list is NOT written down here: it is recomputed from the
protolint taxonomy rule's registry (:func:`repro.lint.taxonomy.
message_names` over ``src/repro``), the same scan that enforces
handlers + docs rows.  Adding a new message dataclass therefore fails
this suite until it both registers with the codec (automatic for frozen
dataclasses in scanned modules) and gets a wire sample below -- a new
message can never silently lack wire support.

Also pins the header contract (magic + version rejection), the
canonical-bytes property for unordered containers, the decode contract
(malformed input raises ``CodecError`` and nothing else, checked on
hand-made payloads and on seeded truncations and bit flips of every
sample) and golden bytes for three frames of wire version 2.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro.net.node  # noqa: F401  (registers the Ctl* control messages)
from repro.core.messages import (
    ANY,
    CatchUp,
    Learned,
    Nack,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2aDelta,
    Phase2b,
    Phase2bDelta,
    Propose,
    ProposeBatch,
    ResyncRequest,
    VoteStamp,
)
from repro.core.checkpoint import (
    ICheckpoint,
    ISnapshotChunk,
    ISnapshotOffer,
    ISnapshotRequest,
    ITruncated,
)
from repro.core.liveness import Heartbeat
from repro.core.rounds import RoundId
from repro.cstruct.commands import Command
from repro.cstruct.history import CommandHistory
from repro.cstruct.seq import CommandSequence
from repro.lint.engine import Module, collect_files
from repro.lint.taxonomy import message_names
from repro.net import codec
from repro.net.codec import CodecContext, CodecError
from repro.net.node import (
    CtlHello,
    CtlKeyOrders,
    CtlKeyOrdersReply,
    CtlOrders,
    CtlOrdersReply,
    CtlShutdown,
    CtlStart,
    CtlWelcome,
)
from repro.protocols.classic import C1a, C1b, C2a, C2b, CNack, CPropose
from repro.protocols.fast import F_ANY, F1a, F1b, F2a, F2b, FPropose
from repro.smr.instances import (
    Batch,
    I1a,
    I1b,
    I2a,
    I2b,
    IAck,
    ICatchUp,
    IDecided,
    IDecidedDelta,
    IGossip,
    INack,
    IPropose,
)
from repro.smr.machine import kv_conflict

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MESSAGES = sorted(
    message_names([Module.load(path) for path in collect_files([SRC])])
)

CMD = Command("wire-1", "put", "key", 41)
CMD2 = Command("wire-2", "get", "key", None)
RND = RoundId(mcount=0, count=3, coord=1, rtype=2)
HIGHER = RoundId(mcount=0, count=4, coord=2, rtype=1)
CONTEXT = CodecContext(conflict=kv_conflict())

# One representative instance per message, exercising every field --
# nested values, sentinels, optional quorums, batches.  A new message
# class must add its sample here (test_sample_exists fails otherwise).
MESSAGE_SAMPLES = {
    # core single-value protocol
    "Propose": Propose(CMD, frozenset({0, 1}), frozenset({"a0", "a1"})),
    "ProposeBatch": ProposeBatch((CMD, CMD2), frozenset({0}), None),
    "Phase1a": Phase1a(RND),
    "Phase1b": Phase1b(RND, RoundId(), CMD, "a0"),
    "Phase2a": Phase2a(RND, ANY, 1, frozenset({"a0", "a2"})),
    "Phase2b": Phase2b(RND, CMD, "a1", fresh=(CMD, CMD2)),
    "Nack": Nack(RND, HIGHER, "a2"),
    "Learned": Learned((CMD,), "l0"),
    "CatchUp": CatchUp(seen=7, rnd=RND, size=7, digest=0x1F2F3F4F5F6F7F),
    "Heartbeat": Heartbeat(sender=1),
    # delta wire protocol
    "Phase2aDelta": Phase2aDelta(RND, 3, 0xA1B2C3, (CMD, CMD2), 1),
    "Phase2bDelta": Phase2bDelta(RND, 3, 0xA1B2C3, (CMD,), "a1"),
    "VoteStamp": VoteStamp(RND, 5, 0xD4E5F6, "a2"),
    "ResyncRequest": ResyncRequest(RND, 3),
    # shared checkpoint / state transfer
    "ICheckpoint": ICheckpoint(12, frozenset({"learn0", "learn1"})),
    "ITruncated": ITruncated(5),
    "ISnapshotOffer": ISnapshotOffer(8),
    "ISnapshotRequest": ISnapshotRequest(8, (0, 2)),
    "ISnapshotChunk": ISnapshotChunk(8, 1, 3, (CMD, CMD2), (("key", 41),)),
    # multi-instance engine
    "IPropose": IPropose(CMD, frozenset({0, 1}), frozenset({"acc0"}), retry=True),
    "I1a": I1a(RND),
    "I1b": I1b(RND, "acc0", ((4, RND, CMD),), floor=2),
    "I2a": I2a(RND, 7, Batch((CMD, CMD2)), 1, reannounce=True),
    "I2b": I2b(RND, 7, CMD, "acc2"),
    "INack": INack(RND, HIGHER),
    "IAck": IAck(Batch((CMD,)), 9),
    "IDecided": IDecided(3, CMD),
    "IGossip": IGossip((CMD,), (2, 5)),
    "ICatchUp": ICatchUp((1, 2, 3), frontier=4, digest=0x5A5A5A),
    "IDecidedDelta": IDecidedDelta(((4, CMD), (5, Batch((CMD2,))))),
    # net control plane
    "CtlHello": CtlHello("acc0"),
    "CtlWelcome": CtlWelcome(),
    "CtlStart": CtlStart(0),
    "CtlOrders": CtlOrders(),
    "CtlOrdersReply": CtlOrdersReply("learn0", (("learn0", (CMD, CMD2)),)),
    "CtlKeyOrders": CtlKeyOrders(),
    "CtlKeyOrdersReply": CtlKeyOrdersReply(
        "site0", ((0, 0, (("key", ("wire-1", "wire-2")),)),)
    ),
    "CtlShutdown": CtlShutdown(),
    # classic baseline
    "CPropose": CPropose(CMD),
    "C1a": C1a(2),
    "C1b": C1b(2, "acc0", ((0, 1, CMD),)),
    "C2a": C2a(2, 5, CMD),
    "C2b": C2b(2, 5, CMD, "acc0"),
    "CNack": CNack(2, 4),
    # fast baseline
    "FPropose": FPropose(CMD),
    "F1a": F1a(3),
    "F1b": F1b(3, 1, CMD, "acc0"),
    "F2a": F2a(3, F_ANY),
    "F2b": F2b(3, CMD, "acc1"),
}


def test_taxonomy_enumeration_found_the_vocabulary():
    # Guard against the scan silently matching nothing (wrong path, rule
    # refactor): the engine's core messages must be among the results.
    assert {"Phase1a", "IPropose", "CtlHello"} <= set(MESSAGES)


@pytest.mark.parametrize("name", MESSAGES)
def test_message_is_codec_registered(name):
    assert name in codec.registered_names(), (
        f"message {name} is not wire-registered: its module must be scanned "
        f"by repro.net.codec (register_module) at import time"
    )


@pytest.mark.parametrize("name", MESSAGES)
def test_message_has_wire_sample(name):
    assert name in MESSAGE_SAMPLES, (
        f"new message {name}: add a representative instance to "
        f"MESSAGE_SAMPLES so its wire round-trip is covered"
    )


@pytest.mark.parametrize("name", sorted(MESSAGE_SAMPLES))
def test_message_roundtrips(name):
    sample = MESSAGE_SAMPLES[name]
    decoded = codec.decode(codec.encode(sample), CONTEXT)
    assert decoded == sample
    assert type(decoded) is type(sample)


def test_no_stale_samples():
    assert set(MESSAGE_SAMPLES) <= set(MESSAGES), (
        "samples for classes that are no longer messages: "
        f"{sorted(set(MESSAGE_SAMPLES) - set(MESSAGES))}"
    )


def test_command_history_rides_the_wire():
    history = CommandHistory.of(kv_conflict(), CMD, CMD2, Command("w3", "put", "z", 3))
    msg = Phase2a(RND, history, 0, None)
    decoded = codec.decode(codec.encode(msg), CONTEXT)
    assert decoded.val == history
    with pytest.raises(CodecError):
        codec.decode(codec.encode(msg))  # no conflict relation provided


def test_sentinels_decode_by_identity():
    assert codec.decode(codec.encode(Phase2a(RND, ANY, 0, None))).val is ANY
    assert codec.decode(codec.encode(F2a(3, F_ANY))).val is F_ANY


def test_header_rejects_foreign_and_future_frames():
    frame = codec.encode(Phase1a(RND))
    with pytest.raises(CodecError):
        codec.decode(b"XX" + frame[2:])  # wrong magic
    with pytest.raises(CodecError):
        codec.decode(frame[:2] + bytes([codec.WIRE_VERSION + 1]) + frame[3:])
    with pytest.raises(CodecError):
        codec.decode(frame[:3] + b"{not json")


def test_unordered_containers_have_canonical_bytes():
    a = Propose(CMD, frozenset({2, 0, 1}), frozenset({"a1", "a0"}))
    b = Propose(CMD, frozenset({1, 2, 0}), frozenset({"a0", "a1"}))
    assert codec.encode(a) == codec.encode(b)


# -- wire version 2: decode contract, fuzzing, byte stability ------------------

HEADER = codec.MAGIC + bytes([codec.WIRE_VERSION])
HEADER_BITS = len(HEADER) * 8


MALFORMED = {
    "empty": b"",
    "truncated varint": bytes([codec.T_INT]),
    "string past the end": bytes([codec.T_STR, 5]) + b"abc",
    "unknown tag": bytes([99]),
    "unknown class": bytes([codec.T_MSG, 5]) + b"Nope!" + bytes([0]),
    "name length lies": bytes([codec.T_MSG, 9]) + b"Phase1a" + bytes([0]),
    "wrong field count": bytes([codec.T_MSG, 7]) + b"Phase1a" + bytes([2, 0, 0]),
    "count past the end": bytes([codec.T_TUPLE, 100, codec.T_NONE]),
    "overlong varint": bytes([codec.T_TUPLE] + [0xFF] * 11),
    "trailing bytes": bytes([codec.T_NONE, codec.T_NONE]),
    "nesting bomb": bytes([codec.T_TUPLE, 1]) * 5_000 + bytes([codec.T_NONE]),
    "dict key without value": bytes([codec.T_DICT, 1, codec.T_NONE]),
    "unhashable set member": bytes([codec.T_FROZENSET, 1, codec.T_LIST, 0]),
    "truncated double": bytes([codec.T_FLOAT, 0, 0]),
    "version-1 JSON payload": b'{"t":"Command","v":[1]}',
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_payloads_raise_only_codec_error(case):
    with pytest.raises(CodecError):
        codec.decode(HEADER + MALFORMED[case], CONTEXT)


def test_decode_runs_constructor_validation():
    # CommandSequence.__post_init__ refuses duplicates; so must decode.
    empty = codec.encode(CommandSequence(()))  # ends in the tuple count 0
    duplicated = empty[:-1] + bytes([2]) + codec.encode(CMD)[3:] * 2
    with pytest.raises(CodecError):
        codec.decode(duplicated)


def test_history_decode_validates_commands():
    # CommandHistory.of needs commands; an int in the linear extension fails.
    with pytest.raises(CodecError):
        codec.decode(HEADER + bytes([codec.T_HISTORY, 1, codec.T_INT, 2]), CONTEXT)


@pytest.mark.parametrize("name", sorted(MESSAGE_SAMPLES))
def test_fuzzed_frames_decode_or_raise_codec_error(name):
    rng = random.Random(f"fuzz-{name}")
    frame = codec.encode(("src", "dst", MESSAGE_SAMPLES[name]))
    variants = [frame[:cut] for cut in range(len(frame))]
    for _ in range(64):
        bit = rng.randrange(HEADER_BITS, len(frame) * 8)
        flipped = bytearray(frame)
        flipped[bit // 8] ^= 1 << (bit % 8)
        variants.append(bytes(flipped))
    for variant in variants:
        try:
            codec.decode(variant, CONTEXT)
        except CodecError:
            pass

# Golden v2 frames.  A change to any of these bytes is a wire-format
# change: bump WIRE_VERSION with it, then update the goldens.
GOLDEN = {
    "I2b envelope": (
        ("acc0", "learn1", I2b(RND, 7, CMD, "acc0")),
        "525002" "0803" "050461636330" "05066c6561726e31"
        "0e03493262" "04"
        "0e07526f756e644964" "04" "0300" "0306" "0302" "0304"
        "030e"
        "0e07436f6d6d616e64" "04" "0506776972652d31" "0503707574" "05036b6579" "0352"
        "050461636330",
    ),
    "Propose with frozensets": (
        Propose(CMD, frozenset({1, 0}), frozenset({"a1", "a0"})),
        "525002" "0e0750726f706f7365" "03"
        "0e07436f6d6d616e64" "04" "0506776972652d31" "0503707574" "05036b6579" "0352"
        "0a02" "0300" "0302"
        "0a02" "05026130" "05026131",
    ),
    "Phase2a with CommandHistory": (
        Phase2a(RND, CommandHistory.of(kv_conflict(), CMD, CMD2), 1, None),
        "525002" "0e0750686173653261" "04"
        "0e07526f756e644964" "04" "0300" "0306" "0302" "0304"
        "0d02"
        "0e07436f6d6d616e64" "04" "0506776972652d31" "0503707574" "05036b6579" "0352"
        "0e07436f6d6d616e64" "04" "0506776972652d32" "0503676574" "05036b6579" "00"
        "0302" "00",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_frames_are_stable(name):
    value, golden = GOLDEN[name]
    assert codec.WIRE_VERSION == 2, "wire version bumped: regenerate the goldens"
    assert codec.encode(value).hex() == golden
    assert codec.decode(bytes.fromhex(golden), CONTEXT) == value


def test_frames_survive_late_ctl_registration():
    # Ctl* messages register only when repro.net.node is imported, so
    # processes register classes in different orders.  Names on the wire
    # make that harmless: a frame encoded before the registration decodes
    # after it, re-encodes to the same bytes, and equals the bytes this
    # process (which imported repro.net.node first) produces.
    script = (
        "from repro.core.rounds import RoundId\n"
        "from repro.cstruct.commands import Command\n"
        "from repro.net import codec\n"
        "from repro.smr.instances import I2b\n"
        "value = ('acc0', 'learn1', I2b(RoundId(0, 3, 1, 2), 7,\n"
        "         Command('wire-1', 'put', 'key', 41), 'acc0'))\n"
        "assert 'CtlHello' not in codec.registered_names()\n"
        "frame = codec.encode(value)\n"
        "import repro.net.node\n"
        "assert 'CtlHello' in codec.registered_names()\n"
        "assert codec.decode(frame) == value\n"
        "assert codec.encode(codec.decode(frame)) == frame\n"
        "print(frame.hex())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == codec.encode(GOLDEN["I2b envelope"][0]).hex()
