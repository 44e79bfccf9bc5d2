"""Binary `.dten`/`.dmat` files and the CSV import: round trips, truncation
and non-finite values, through the readers and the CLI's exit codes."""

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
