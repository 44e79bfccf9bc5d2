"""Binary `.dten`/`.dmat` files and the CSV import: round trips, truncation
and non-finite values, through the readers and the CLI's exit codes."""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from midasll1 import tensorfile
from midasll1.cli import EXIT_PARSE, main
from midasll1.tensor import DenseTensor3

HEADER = b"DTENSOR 1 3 2 4\n"  # 16 bytes, then 24 float64 values: 208 bytes


def small_tensor_bytes(tmp_path):
    t = DenseTensor3(np.random.default_rng(0).standard_normal((3, 2, 4)))
    path = tmp_path / "x.dten"
    tensorfile.write_tensor(path, t)
    raw = path.read_bytes()
    assert raw.startswith(HEADER) and len(raw) == 208
    return raw


def test_roundtrip_bitwise_property(tmp_path):
    """Random dims and values, including -0.0 and subnormals, survive a write
    and read of both formats bit for bit."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, np.nextafter(0, 1)]),
    )
    dims = st.tuples(*[st.integers(1, 4)] * 3)
    cases = dims.flatmap(lambda d: st.tuples(
        st.just(d), st.lists(values, min_size=d[0] * d[1] * d[2], max_size=d[0] * d[1] * d[2])))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases)
    def check(case):
        d, flat = case
        flat = np.array(flat, dtype=np.float64)
        t = DenseTensor3.from_flat(flat, d)
        tensorfile.write_tensor(tmp_path / "p.dten", t)
        back = tensorfile.read_tensor(tmp_path / "p.dten").flat
        assert back.tobytes() == flat.tobytes()
        m = flat.reshape(d[0], -1)
        tensorfile.write_matrix(tmp_path / "p.dmat", m)
        assert tensorfile.read_matrix(tmp_path / "p.dmat").tobytes() == m.tobytes()

    check()


def test_truncation_at_every_offset_is_format_error(tmp_path):
    raw = small_tensor_bytes(tmp_path)
    path = tmp_path / "cut.dten"
    for k in range(len(raw)):
        path.write_bytes(raw[:k])
        with pytest.raises(tensorfile.FormatError):
            tensorfile.read_tensor(path)


@pytest.mark.parametrize("k", [0, 9, 15, 16, 17, 100, 207])
def test_truncated_tensor_exits_parse(tmp_path, k):
    raw = small_tensor_bytes(tmp_path)
    path = tmp_path / "cut.dten"
    path.write_bytes(raw[:k])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ranks = 2,1\nepochs = 1\n")
    out = tmp_path / "o"
    rc = main(["decompose", "--tensor", str(path), "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_PARSE
    assert not out.exists()


def _with_value(raw: bytes, index: int, value: float) -> bytes:
    """`raw` with payload value `index` replaced by `value`."""
    start = raw.index(b"\n") + 1 + 8 * index
    return raw[:start] + np.array([value], "<f8").tobytes() + raw[start + 8:]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonfinite_tensor_value_names_its_offset(tmp_path, value, capsys):
    raw = _with_value(small_tensor_bytes(tmp_path), 5, value)
    path = tmp_path / "bad.dten"
    path.write_bytes(_with_value(raw, 9, value))
    with pytest.raises(tensorfile.FormatError) as exc:
        tensorfile.read_tensor(path)
    assert exc.value.offset == 16 + 8 * 5  # the first of the two
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ranks = 2,1\nepochs = 1\n")
    rc = main(["decompose", "--tensor", str(path), "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_PARSE
    assert f"bad.dten: non-finite value {float(value)!r} (at byte offset 56)" in capsys.readouterr().err


def test_nonfinite_factor_value_is_parse_error(tmp_path, capsys):
    out = tmp_path / "s.dten"
    main(["synth", "--dims", "4,3,2", "--ranks", "2", "--out", str(out)])
    a1 = tmp_path / "s.dten.truth" / "A1.dmat"
    raw = a1.read_bytes()
    header = len(raw) - 8 * 4 * 2
    a1.write_bytes(_with_value(raw, 3, np.nan))
    with pytest.raises(tensorfile.FormatError) as exc:
        tensorfile.read_matrix(a1)
    assert exc.value.offset == header + 8 * 3
    capsys.readouterr()
    rc = main(["metrics", "--tensor", str(out), "--factors", str(tmp_path / "s.dten.truth")])
    assert rc == EXIT_PARSE
    assert f"non-finite value nan (at byte offset {header + 24})" in capsys.readouterr().err


def test_nonfinite_csv_value_names_its_line(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,1,1,5\n# comment\n2,1,1,nan\n")
    with pytest.raises(ValueError, match="line 3: value nan must be finite"):
        tensorfile.read_tensor_csv(path)


@pytest.mark.parametrize("text, match", [
    ("1,1,1,5\n1,1,2\n", r"line 2: expected 4 columns \(i1,i2,i3,value\), got 3"),
    ("1,1,1,5,6\n", "line 1: expected 4 columns"),
    ("# head\n1,1,1,five\n", "line 2: could not convert string to float"),
    ("# only a comment\n\n", "no entries"),
    ("", "no entries"),
], ids=["three-columns", "five-columns", "unparsed-value", "comment-only", "empty"])
def test_malformed_csv_is_rejected(tmp_path, text, match):
    path = tmp_path / "x.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        tensorfile.read_tensor_csv(path)


def _traced_peak(fn, *args):
    """(result, peak bytes traced while `fn(*args)` ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_tensor_reads_the_payload_in_place(tmp_path):
    """The payload is read into the tensor's own storage: no copy of it is
    held at any moment, and the result is aligned, F-ordered and read-only."""
    # 120,000 entries, so a temporary of one byte per entry would exceed the slack
    t = DenseTensor3(np.random.default_rng(5).standard_normal((60, 50, 40)))
    path = tmp_path / "x.dten"
    tensorfile.write_tensor(path, t)
    back, peak = _traced_peak(tensorfile.read_tensor, path)
    assert peak <= 8 * t.size + 64 * 1024
    a = back.array
    assert a.flags.aligned and a.flags.f_contiguous and not a.flags.writeable
    assert a.tobytes(order="F") == t.array.tobytes(order="F")


def test_read_matrix_reads_the_payload_in_place(tmp_path):
    m = np.random.default_rng(6).standard_normal((400, 300))
    path = tmp_path / "m.dmat"
    tensorfile.write_matrix(path, m)
    back, peak = _traced_peak(tensorfile.read_matrix, path)
    assert peak <= m.nbytes + 64 * 1024
    assert back.flags.aligned and back.tobytes() == m.tobytes()


@pytest.mark.parametrize("header, read", [
    (b"DTENSOR 1 100000 100000 100000\n", tensorfile.read_tensor),
    (b"DMATRIX 1 1000000000 1000000000\n", tensorfile.read_matrix),
])
def test_huge_header_over_short_file_allocates_nothing(tmp_path, header, read):
    """A header that claims far more data than the file holds is rejected
    from the file size, before any payload buffer exists."""
    path = tmp_path / "huge.bin"
    path.write_bytes(header + b"\0" * 16)
    tracemalloc.start()
    try:
        with pytest.raises(tensorfile.FormatError, match=r"payload has 16 bytes, expected 8") as exc:
            read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.offset == len(header)
    assert peak <= 64 * 1024


def _read_through_pipe(read, data: bytes):
    """`read` applied to a pipe that carries `data`, as `--tensor /dev/stdin`
    or a shell process substitution would give it."""
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return read(f"/dev/fd/{r}")
    finally:
        writer.join()
        os.close(r)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_reads_like_a_file(tmp_path):
    """A stream has no size to check up front; it reads to the same bits, and
    a stream of the wrong length gives the file's `FormatError`."""
    raw = small_tensor_bytes(tmp_path)
    t = _read_through_pipe(tensorfile.read_tensor, raw)
    assert t.array.tobytes() == tensorfile.read_tensor(tmp_path / "x.dten").array.tobytes()
    m = np.random.default_rng(7).standard_normal((3, 5))
    tensorfile.write_matrix(tmp_path / "m.dmat", m)
    back = _read_through_pipe(tensorfile.read_matrix, (tmp_path / "m.dmat").read_bytes())
    assert back.tobytes() == m.tobytes()
    for bad in (raw[:-1], raw[:len(HEADER)], raw + b"\0" * 9):
        (tmp_path / "bad.dten").write_bytes(bad)
        with pytest.raises(tensorfile.FormatError) as from_file:
            tensorfile.read_tensor(tmp_path / "bad.dten")
        with pytest.raises(tensorfile.FormatError) as from_pipe:
            _read_through_pipe(tensorfile.read_tensor, bad)
        assert from_pipe.value.offset == from_file.value.offset == len(HEADER)
        assert str(from_pipe.value).split(": ", 1)[1] == str(from_file.value).split(": ", 1)[1]


def test_matrix_payload_is_column_major(tmp_path):
    """`write_matrix` writes the values of any layout column by column."""
    m = np.arange(6.0).reshape(2, 3)  # C-ordered
    for layout in (m, np.asfortranarray(m), np.arange(6).reshape(2, 3)):
        path = tmp_path / "c.dmat"
        tensorfile.write_matrix(path, layout)
        header, payload = path.read_bytes().split(b"\n", 1)
        assert header == b"DMATRIX 1 2 3"
        assert payload == m.ravel(order="F").astype("<f8").tobytes()
