"""The file reader: canonical files parsed in C read exactly as the general tokenizer reads them."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schemex import cli
from schemex.cli import InputError

from nxn_reference import read_ints_general

READS = settings(max_examples=200, deadline=None)

# int() syntax, signs, overflow and digit runs past 18 digits, in the header and the body
EDGE_TOKENS = [
    "+5", "-5", "-0", "+0", "1_000", "1__0", "_1", "1_", "٣", "５", "0x10",
    "1e3", "1.0", "inf", "nan", "007", str(2**63 - 1), str(2**63), str(-(2**63)),
    str(-(2**63) - 1), "9" * 23, "0" * 30 + "1",
]
# whitespace to str.split, not to bytes.split: the last four are not ASCII
EDGE_SEPARATORS = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", " ", "　"]

_WHITESPACE = " \t\n\r\v\f"
_canonical_tokens = st.one_of(
    st.integers(0, 9).map(str),
    st.integers(0, 10**6).map(str),
    st.builds(lambda zeros, v: "0" * zeros + str(v), st.integers(1, 25), st.integers(0, 10**20)),
    st.integers(10**17, 10**20 - 1).map(str),  # 18, 19 and 20 digits
    st.sampled_from([str(10**18 - 1), str(10**18), str(2**63 - 1), str(2**63), str(2**64)]),
)
_separators = st.text(alphabet=_WHITESPACE, min_size=1, max_size=3)
_other_tokens = st.one_of(_canonical_tokens, st.sampled_from(EDGE_TOKENS), st.text(max_size=3))
_other_separators = st.one_of(_separators, st.sampled_from(EDGE_SEPARATORS))


@st.composite
def _files(draw, tokens, separators, tails=(b"",)):
    """Leading whitespace, then up to 12 tokens, each followed by a separator, then a tail."""
    words = draw(st.lists(tokens, max_size=12))
    text = draw(st.text(alphabet=_WHITESPACE, max_size=2))
    for w in words:
        text += w + draw(separators)
    return text.encode("utf-8") + draw(st.sampled_from(tails))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


def _outcome(reader, path):
    """(n, d, body values) as read, or the InputError text."""
    try:
        n, d, body = reader(path, "n d")
    except InputError as e:
        return str(e)
    assert type(n) is int and type(d) is int and body.dtype == np.int64 and body.ndim == 1
    return n, d, body.tolist()


def _same_as_general(path, data):
    path.write_bytes(data)
    assert _outcome(cli._read_ints, path) == _outcome(read_ints_general, path), data


@READS
@given(data=_files(_canonical_tokens, _separators))
@example(data=b"")
@example(data=b" \n")
@example(data=b"7")  # one token
@example(data=b"2 1")  # header only
@example(data=b"2 1\n")
@example(data=b"\v2\f1\r\n0 1\r1 0\t\n")
@example(data=b"2 1\n0 9223372036854775807\n")
@example(data=b"2 1\n0 9223372036854775808\n")
@example(data=b"2 1\n0 000000000000000000000000001\n")
@example(data=b"2 1000000000000000000\n0 1\n1 0\n")
@example(data=b"2 " + b"9" * 5000 + b"\n0 1\n1 0\n")  # past int()'s 4300 digits
@example(data=b"2 1\n0 " + b"0" * 5000 + b"1\n1 0\n")  # the value 1, in 5001 digits
@example(data=b"2 1\n01234567890123 1\n1 0\n")  # 14 digits
@example(data=b"2 1\n012345678901234 1\n1 0\n")  # 15 digits
def test_canonical_files_read_as_the_general_tokenizer(workdir, data):
    assert not data.translate(None, cli._CANONICAL_BYTES)
    _same_as_general(workdir / "canonical.scheme", data)


@READS
@given(data=_files(_other_tokens, _other_separators, (b"", b"\xff", b"\xc3")))
@example(data=b"2 1\n0 +1\n+1 0\n")
@example(data=b"2 1\n0 1+1\n1 0\n")
@example(data=b"2 1\n0 1-\n1 0\n")
@example(data=b"2 1\n0\x1c1\n1 0\n")
@example(data=b"2 1\n0 1\n1 0\xff")
def test_other_files_read_as_the_general_tokenizer(workdir, data):
    _same_as_general(workdir / "other.scheme", data)


@pytest.mark.parametrize("token", EDGE_TOKENS)
@pytest.mark.parametrize("place", ["header", "body"])
def test_edge_tokens(tmp_path, token, place):
    text = f"2 {token}\n0 1\n1 0\n" if place == "header" else f"2 1\n0 {token}\n{token} 0\n"
    _same_as_general(tmp_path / "edge.scheme", text.encode("utf-8"))


@pytest.mark.parametrize("sep", EDGE_SEPARATORS)
def test_edge_separators(tmp_path, sep):
    _same_as_general(tmp_path / "sep.scheme", f"2 1\n0{sep}1\n1 0\n".encode("utf-8"))


def test_unreadable_paths(tmp_path):
    for path in (tmp_path / "missing.scheme", tmp_path):
        assert _outcome(cli._read_ints, path) == _outcome(read_ints_general, path)


@pytest.mark.parametrize("data, canonical", [
    (b"", True), (b"2 1\n0 1\n1 0\n", True), (b"2 1\t0 1\r\n1 0\v\f", True),
    (b"1234567 " * 9, True), (b"123456789012345 " * 9, False),
    (b"2 1\n0 +1\n+1 0\n", False), (b"2 1\n0\x1c1\n1 0\n", False), ("٣".encode(), False),
])
def test_canonical_bytes(data, canonical):
    # 7 digits never fill an aligned 8-byte window, and 15 always do
    assert cli._canonical(data) is canonical
    for shift in range(1, 9):
        assert cli._canonical(b" " * shift + data) is canonical


def test_a_generated_file_is_parsed_in_c(tmp_path, monkeypatch):
    calls = []
    fromstring = np.fromstring

    def spy(*args, **kwargs):
        calls.append(args)
        return fromstring(*args, **kwargs)

    path = tmp_path / "h.scheme"
    assert cli.main(["gen", "hamming", "3", "3", "-o", str(path)]) == cli.EXIT_OK
    monkeypatch.setattr(np, "fromstring", spy)
    n, d, body = cli._read_ints(path, "n d")
    assert len(calls) == 1 and (n, d, body.size) == (27, 3, 27 * 27)
    assert np.array_equal(body, read_ints_general(path, "n d")[2])
