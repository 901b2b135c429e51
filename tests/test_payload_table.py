"""The payload table: one definition per payload type drives its binary
encoding, its decoding and its JSON op entry."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from testingplus.cli import build_parser
from testingplus.codec import InputError, Reader, enc_bytes, enc_u64, hash256, uint
from testingplus.tx import (
    CompleteTest,
    DeployAcceptanceTest,
    DeployCustomerAgreement,
    DeployDeveloperAgreement,
    InitiateTest,
    PAYLOAD_TYPES,
    PostFeedback,
    RecordExecution,
    RegisterTestCase,
    SetReward,
    SetTestingFee,
    decode_payload,
    payload_from_json,
)
from testingplus.vm import created_id

from oracles import manual_created_id

B = st.binary(max_size=40)
U = st.integers(0, 2**64 - 1)
# written out per class, not derived from the table under test
PAYLOADS = st.one_of(
    st.builds(DeployCustomerAgreement),
    st.builds(SetTestingFee, B, U),
    st.builds(DeployDeveloperAgreement),
    st.builds(SetReward, B, U),
    st.builds(DeployAcceptanceTest, B, B, U),
    st.builds(InitiateTest, B),
    st.builds(CompleteTest, B),
    st.builds(RegisterTestCase, B, B, B, B),
    st.builds(RecordExecution, B, B),
    st.builds(PostFeedback, B, B),
)


def reference_encoding(payload) -> bytes:
    """Tag byte, then each dataclass field in declaration order."""
    body = b""
    for f in dataclasses.fields(payload):
        v = getattr(payload, f.name)
        body += enc_bytes(v) if isinstance(v, bytes) else enc_u64(v)
    return bytes([payload.TAG]) + body


@given(PAYLOADS, st.binary(min_size=20, max_size=20), U)
def test_created_id_matches_the_oracle_for_every_payload_type(payload, sender, nonce):
    expected = manual_created_id(payload, sender, nonce)
    assert created_id(payload, sender, nonce) == expected
    # the three deploy ops and the three history records create one; the rest none
    creates_none = (SetTestingFee, SetReward, InitiateTest, CompleteTest)
    assert (expected is None) == isinstance(payload, creates_none)


@given(PAYLOADS)
def test_encode_decode_roundtrip_every_payload_type(payload):
    encoded = payload.encoded
    assert encoded == reference_encoding(payload)
    r = Reader(encoded)
    assert decode_payload(r) == payload
    r.expect_end()


def test_strategy_covers_every_payload_type():
    assert len(PAYLOAD_TYPES) == 10
    assert len({cls.TAG for cls in PAYLOAD_TYPES}) == len({cls.OP for cls in PAYLOAD_TYPES}) == 10


# one encoding per type, computed with the hand-written encoders the table replaced
PINNED = [
    (DeployCustomerAgreement(), "01"),
    (SetTestingFee(b"\x01" * 32, 25), "02" + "00000020" + "01" * 32 + "0000000000000019"),
    (DeployDeveloperAgreement(), "03"),
    (SetReward(b"\x02" * 32, 2**64 - 1), "04" + "00000020" + "02" * 32 + "ff" * 8),
    (
        DeployAcceptanceTest(b"\x03" * 20, b"\x04" * 20, 7),
        "05" + "00000014" + "03" * 20 + "00000014" + "04" * 20 + "0000000000000007",
    ),
    (InitiateTest(b"\x05" * 32), "06" + "00000020" + "05" * 32),
    (CompleteTest(b"\x06" * 32), "07" + "00000020" + "06" * 32),
    (
        RegisterTestCase(b"\x07" * 32, b"login", b"\x08" * 32, b"\x09" * 32),
        "10" + "00000020" + "07" * 32 + "00000005" + "6c6f67696e"
        + "00000020" + "08" * 32 + "00000020" + "09" * 32,
    ),
    (RecordExecution(b"\x0a" * 32, b"\x0b" * 32), "11" + "00000020" + "0a" * 32 + "00000020" + "0b" * 32),
    (PostFeedback(b"\x0c" * 32, b"looks good"), "12" + "00000020" + "0c" * 32 + "0000000a" + "6c6f6f6b7320676f6f64"),
]


@pytest.mark.parametrize("payload,hex_", PINNED, ids=[type(p).__name__ for p, _ in PINNED])
def test_pinned_encoding(payload, hex_):
    assert payload.encoded.hex() == hex_


# the JSON op entry of each pinned payload, as the CLI and scenarios spell it
ENTRIES = [
    {"op": "deploy_customer_agreement"},
    {"op": "set_testing_fee", "contract": "01" * 32, "fee": 25},
    {"op": "deploy_developer_agreement"},
    {"op": "set_reward", "contract": "02" * 32, "amount": 2**64 - 1},
    {"op": "deploy_acceptance_test", "customer": "03" * 20, "developer": "04" * 20, "fee": 7},
    {"op": "initiate_test", "contract": "05" * 32},
    {"op": "complete_test", "contract": "06" * 32},
    {"op": "register_test_case", "contract": "07" * 32, "description": "login",
     "input_digest": "08" * 32, "expected_output_digest": "09" * 32},
    {"op": "record_execution", "case": "0a" * 32, "actual_output_digest": "0b" * 32},
    {"op": "post_feedback", "subject": "0c" * 32, "body": "looks good"},
]


@pytest.mark.parametrize("entry,pinned", zip(ENTRIES, PINNED), ids=[e["op"] for e in ENTRIES])
def test_op_entry_builds_the_payload(entry, pinned):
    assert payload_from_json(entry, hash256) == pinned[0]


def test_text_fields_go_through_the_digest_resolver():
    seen = []

    def digest(data):
        seen.append(data)
        return hash256(data)

    p = payload_from_json({"op": "register_test_case", "contract": "07" * 32, "input": "in",
                           "expected_output": "out"}, digest)
    assert seen == [b"in", b"out"]
    assert (p.description, p.expected_output_digest) == (b"", hash256(b"out"))


def cli_u64(arg: str) -> int:
    """A u64 as the command line reads it, in the height of `query block`."""
    return build_parser().parse_args(["query", "--store", "s", "block", arg]).height


# one u64 rule: a JSON integer in JSON, ASCII decimal digits on the command line
@pytest.mark.parametrize("value,parsed", [(0, 0), (25, 25), ("25", 25), (2**64 - 1, 2**64 - 1)])
def test_u64_accepts_integers_and_decimal_strings(value, parsed):
    if isinstance(value, str):
        assert cli_u64(value) == parsed
        with pytest.raises(InputError,
                           match=r"^fee: must be a non-negative integer below 2\*\*64, not '25'$"):
            uint(value, "fee")  # never a string in JSON
    else:
        assert uint(value, "fee") == parsed
        assert cli_u64(str(value)) == parsed


@pytest.mark.parametrize("value", [-5, 2**64, "abc", "-5", "", None, True, 2.5, [1]])
def test_u64_rejects_everything_else(value, capsys):
    with pytest.raises(InputError, match="^fee: must be "):
        uint(value, "fee")
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        with pytest.raises(SystemExit):
            cli_u64(str(value))
        assert f"argument height: invalid u64 value: '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    {"op": "mint_money"},
    {"contract": "00"},
    {"op": "set_testing_fee", "fee": 1},
    {"op": "set_testing_fee", "contract": 5, "fee": 1},
    {"op": "set_testing_fee", "contract": "0", "fee": 1},
    {"op": "set_testing_fee", "contract": "01" * 32, "fee": None},
])
def test_malformed_entries_raise_value_error(entry):
    with pytest.raises(InputError):
        payload_from_json(entry, hash256)


@pytest.mark.parametrize("entry,size", [
    ({"op": "set_testing_fee", "contract": "00", "fee": 1}, 32),
    ({"op": "set_reward", "contract": "", "amount": 1}, 32),
    ({"op": "complete_test", "contract": "06" * 33}, 32),
    ({"op": "post_feedback", "subject": "0c" * 20, "body": "x"}, 32),
    ({"op": "deploy_acceptance_test", "customer": "03" * 32, "developer": "04" * 20, "fee": 7}, 20),
    ({"op": "deploy_acceptance_test", "customer": "03" * 20, "developer": "04", "fee": 7}, 20),
    ({"op": "record_execution", "case": "0a" * 32, "actual_output_digest": "0b"}, 32),
    ({"op": "register_test_case", "contract": "07" * 32, "input_digest": "08" * 31}, 32),
])
def test_ids_accounts_and_digests_must_have_their_length(entry, size):
    with pytest.raises(InputError, match=f": must be {size} bytes of hex, not "):
        payload_from_json(entry, hash256)
