import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from midasll1 import cli, tensorfile
from midasll1.cli import (
    EXIT_ERROR,
    EXIT_NAN_ABORT,
    EXIT_OK,
    EXIT_PARSE,
    _write_trace,
    main,
)
from midasll1.config import ConfigError, parse_config, serialize_config
from midasll1.model import RankVector
from midasll1.prox import Regularizer
from midasll1.solver import RunTrace, SolverConfig
from midasll1.synth import generate
from midasll1.tensor import DenseTensor3


@pytest.fixture
def tensor_file(tmp_path):
    rng = np.random.default_rng(0)
    t = DenseTensor3(rng.random((5, 4, 3)))
    path = tmp_path / "x.dten"
    tensorfile.write_tensor(path, t)
    return path, t


def write_config(tmp_path, text="ranks = 2,1\nepochs = 3\n"):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


# --- tensor/matrix file format ---


def test_tensor_roundtrip_bitwise(tmp_path, tensor_file):
    path, t = tensor_file
    back = tensorfile.read_tensor(path)
    np.testing.assert_array_equal(back.array, t.array)


def test_matrix_roundtrip_bitwise(tmp_path):
    m = np.random.default_rng(1).standard_normal((7, 3))
    path = tmp_path / "m.dmat"
    tensorfile.write_matrix(path, m)
    np.testing.assert_array_equal(tensorfile.read_matrix(path), m)


def test_tensor_payload_is_column_major(tmp_path):
    t = DenseTensor3.from_flat(np.arange(8.0), (2, 2, 2))
    path = tmp_path / "c.dten"
    tensorfile.write_tensor(path, t)
    raw = path.read_bytes()
    header, payload = raw.split(b"\n", 1)
    assert header == b"DTENSOR 1 2 2 2"
    np.testing.assert_array_equal(np.frombuffer(payload, "<f8"), np.arange(8.0))


@pytest.mark.parametrize(
    "corrupt",
    [  # each gives the bytes and the offset of the error (None: the payload's bytes decide)
        lambda raw: (b"XTENSOR" + raw[7:], 0),             # bad magic
        lambda raw: (raw.replace(b"\n", b" ", 1), None),   # header newline removed
        lambda raw: (raw[:-4], 16),                        # truncated payload
        lambda raw: (raw.replace(b" 3\n", b" x\n"), 14),   # non-integer dim
        lambda raw: (raw.replace(b" 3\n", b" -3\n"), 14),  # nonpositive dim
        # a dim whose text also occurs earlier: "0" at 13, not inside "20" at 11
        lambda raw: (b"DTENSOR 1 20 0 3\n" + raw[16:], 13),
    ],
)
def test_malformed_tensor_files(tmp_path, tensor_file, corrupt):
    path, _ = tensor_file
    assert path.read_bytes().startswith(b"DTENSOR 1 5 4 3\n")
    data, offset = corrupt(path.read_bytes())
    bad = tmp_path / "bad.dten"
    bad.write_bytes(data)
    with pytest.raises(tensorfile.FormatError) as exc:
        tensorfile.read_tensor(bad)
    assert exc.value.offset >= 0
    assert offset is None or exc.value.offset == offset


def test_csv_import(tmp_path):
    t = DenseTensor3.from_flat(np.arange(1.0, 9.0), (2, 2, 2))
    lines = []
    for i3 in range(2):
        for i2 in range(2):
            for i1 in range(2):
                lines.append(f"{i1+1},{i2+1},{i3+1},{t.array[i1,i2,i3]}")
    path = tmp_path / "x.csv"
    path.write_text("\n".join(lines) + "\n")
    np.testing.assert_array_equal(tensorfile.read_tensor_csv(path).array, t.array)


def test_csv_import_rejects_missing_rows(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,1,1,5.0\n2,2,2,6.0\n")
    with pytest.raises(ValueError):
        tensorfile.read_tensor_csv(path)


@pytest.mark.parametrize("text, message", [
    # a repeated triple: loaded as [0, 6] before, with entry (1,1,1) zero-filled
    ("2,1,1,5\n2,1,1,6\n", "line 2: index triple already given on line 1"),
    ("1,1,1,5\n1.7,1,1,6\n", "line 2: indices must be integers"),
    ("1,1,1,5\n\n0,1,1,6\n", "line 3: indices must be >= 1"),
    ("1,1,1,5\n1,3,1,6\n", "line 2: indices must be <= 2, the number of entry lines"),
], ids=["duplicate", "non-integer", "nonpositive", "too-large"])
def test_csv_import_rejects_bad_indices(tmp_path, text, message):
    path = tmp_path / "x.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        tensorfile.read_tensor_csv(path)
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    rc = main(["decompose", "--tensor", str(path), "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_PARSE
    assert not out.exists()


# --- config files ---


def test_config_defaults_and_parse():
    cfg = parse_config("ranks = 2,3\n")
    assert cfg == SolverConfig(ranks=RankVector((2, 3)))
    assert cfg.estimator == "saga" and cfg.t == 3 and cfg.eta is None


def test_config_full_roundtrip():
    cfg = SolverConfig(
        ranks=RankVector((2, 1, 4)), estimator="sarah", t=1, alpha0=0.25, beta0=0.5,
        eta=0.05, B=8, epochs=17, seed=9, reg=Regularizer("ridge", 0.3),
        mode_policy="cyclic", sarah_q=5,
    )
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_roundtrips_numpy_scalars():
    """numpy scalars are stored as floats, so the file holds plain numbers
    (not `np.float64(0.3)`) and parses back to an equal config."""
    cfg = SolverConfig(
        ranks=RankVector((2,)), alpha0=np.float64(0.3), beta0=np.float32(0.5),
        eta=np.float32(0.05), reg=Regularizer("ridge", np.float32(0.1)),
    )
    assert all(type(v) is float for v in (cfg.alpha0, cfg.beta0, cfg.eta, cfg.reg.lam))
    text = serialize_config(cfg)
    assert "np." not in text
    assert parse_config(text) == cfg
    assert type(SolverConfig(RankVector((2,)), abs_tol=np.float64(0.0)).abs_tol) is float


def test_config_serialized_text():
    """The exact text `decompose` writes to resolved_config.txt."""
    cfg = SolverConfig(
        ranks=RankVector((2, 1, 4)), estimator="sarah", t=1, alpha0=1 / 3, beta0=0.5,
        eta=1e-05, B=8, epochs=17, seed=9, reg=Regularizer("ridge", 0.5),
        mode_policy="cyclic", sarah_q=5,
    )
    assert serialize_config(cfg) == (
        "ranks = 2,1,4\n"
        "estimator = sarah\n"
        "t = 1\n"
        "alpha0 = 0.3333333333333333\n"
        "beta0 = 0.5\n"
        "eta = 1e-05\n"
        "B = 8\n"
        "epochs = 17\n"
        "seed = 9\n"
        "reg = ridge:0.5\n"
        "mode_policy = cyclic\n"
        "sarah_q = 5\n"
        "R = 3\n"
    )


def test_config_eta_none_roundtrip_and_bad_eta(tmp_path, tensor_file):
    """`eta = none` (the per-mode default) survives a write and a parse; a
    step that is zero, negative or nan is still a parse failure (exit 2)."""
    cfg = parse_config("ranks = 2\neta = NONE\n")
    assert cfg.eta is None
    text = serialize_config(cfg)
    assert "\neta = none\n" in text
    assert parse_config(text) == cfg
    path, _ = tensor_file
    for bad in ("0", "-1", "nan"):
        with pytest.raises(ConfigError, match="eta must be none or finite and > 0"):
            parse_config(f"ranks = 2\neta = {bad}\n")
        cfg_path = write_config(tmp_path, f"ranks = 2,1\neta = {bad}\n")
        out = tmp_path / f"o{bad}"
        rc = main(["decompose", "--tensor", str(path), "--config", str(cfg_path),
                   "--out", str(out)])
        assert rc == EXIT_PARSE
        assert not out.exists()


def test_config_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nranks = 2  # trailing\n eta = 0.2 \n")
    assert cfg.ranks == RankVector((2,)) and cfg.eta == 0.2


def test_readme_trace_columns_match_the_header(tmp_path):
    """The README's `trace.csv` column list is the header `decompose` writes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("**Trace** (`trace.csv`)", 1)[1].split("`")[1]
    _write_trace(tmp_path / "trace.csv", RunTrace())
    assert (tmp_path / "trace.csv").read_text() == listed + "\n"


def test_readme_config_block_lists_the_defaults():
    """The README's config block names every key with its default value."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config file", 1)[1].split("```\n", 2)[1]
    defaults = parse_config("ranks = 2,2\n")
    assert parse_config(block) == defaults
    keys = {line.split("=")[0].strip() for line in block.splitlines()}
    assert keys == {line.split(" = ")[0] for line in serialize_config(defaults).splitlines()} - {"R"}


@pytest.mark.parametrize(
    "text",
    [
        "epochs = 3\n",                      # missing ranks
        "ranks = 2\nR = 3\n",                # contradictory R
        "ranks = 2\nlearning_rate = 0.1\n",  # unknown key
        "ranks = 2\nepochs\n",               # no '='
        "ranks = 2\nepochs = three\n",       # bad int
        "ranks = 2\nestimator = adam\n",
        "ranks = 2\nreg = l1\n",
        "ranks = 2\neta = -1\n",
        "ranks = 2\nB = -3\n",
        "ranks = 2\nsarah_q = -1\n",
        "ranks = 2\neta = nan\n",
        "ranks = 2\nalpha0 = inf\n",
        "ranks = 2\nbeta0 = nan\n",
        "ranks = 2\nreg = ridge:abc\n",
        "ranks = 2\nreg = ridge:-1\n",
        "ranks = 2\nreg = nonneg:3\n",      # a weight on a weightless regularizer
        "ranks = 2\nreg = none:2\n",
        "ranks = 2\ngamma_diag = nan\n",
        "ranks = 2\ngamma_diag = -1\n",
    ],
)
def test_config_rejects(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_config_repeated_key_names_both_lines():
    with pytest.raises(ConfigError, match="line 4: key 'eta' already given on line 2"):
        parse_config("ranks = 2\neta = 0.1\n# comment\neta = 5\n")
    with pytest.raises(ConfigError, match="line 3: key 'R' already given on line 2"):
        parse_config("ranks = 2\nR = 1\nR = 1\n")


def test_config_fuzz_raises_only_config_error():
    """Whatever the text, parsing raises ConfigError or returns a config that
    survives a serialize/parse round trip."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    default_text = serialize_config(parse_config("ranks = 2\n"))
    names = [line.split(" = ")[0] for line in default_text.splitlines()]
    keys = st.sampled_from([*names, "bogus", ""])
    ranks = st.lists(st.integers(-1, 4), max_size=3).map(lambda v: ",".join(map(str, v)))
    good_ranks = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
        lambda v: ",".join(map(str, v)))
    values = st.one_of(
        st.integers(-3, 300).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["sgd", "saga", "sarah", "adam", "cyclic", "uniform", "none", "nonneg",
                         "ridge:0.5", "ridge:-1", "ridge:nan", "ridge:", "nonneg:3"]),
        ranks,
        st.text(max_size=12),
    )
    line = st.one_of(st.tuples(keys, values).map(" = ".join), st.text(max_size=20))
    # a valid `ranks` line first, half the time, so that many texts parse
    texts = st.tuples(st.booleans(), good_ranks, st.lists(line, max_size=6)).map(
        lambda v: "\n".join((["ranks = " + v[1]] if v[0] else []) + v[2]))

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(texts)
    def check(text):
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        assert parse_config(serialize_config(cfg)) == cfg

    check()


def test_config_with_gamma_diag_is_rejected(tmp_path, tensor_file):
    """A resolved_config.txt written while `gamma_diag` existed names the
    removed key: a parse failure that points at its line (exit 2, nothing
    written), not a silent drop."""
    old = (
        "ranks = 2,1\nestimator = saga\nt = 3\nalpha0 = 0.3\nbeta0 = 0.8\neta = none\n"
        "B = 0\nepochs = 3\nseed = 0\nreg = nonneg\nmode_policy = uniform\nsarah_q = 0\n"
        "gamma_diag = none\nR = 2\n"
    )
    with pytest.raises(ConfigError, match="line 13: unknown key 'gamma_diag'"):
        parse_config(old)
    path, _ = tensor_file
    out = tmp_path / "o"
    rc = main(["decompose", "--tensor", str(path), "--config", str(write_config(tmp_path, old)),
               "--out", str(out)])
    assert rc == EXIT_PARSE
    assert not out.exists()
    # without that line, the file is today's resolved config
    current = old.replace("gamma_diag = none\n", "")
    assert serialize_config(parse_config(current)) == current


# --- CLI commands ---


def test_decompose_end_to_end(tmp_path, tensor_file):
    path, t = tensor_file
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["decompose", "--tensor", str(path), "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    for name in ("A1.dmat", "A2.dmat", "A3.dmat", "ranks.txt",
                 "trace.csv", "metrics.txt", "resolved_config.txt"):
        assert (out / name).exists()
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "epoch,iter,phi,f,elapsed_s,step_norm,eta_1,eta_2,eta_3,n_1,n_2,n_3"
    assert len(lines) == 4  # header + 3 epochs
    assert (out / "ranks.txt").read_text().strip() == "2,1"


def test_decompose_seed_override(tmp_path, tensor_file):
    path, _ = tensor_file
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    main(["decompose", "--tensor", str(path), "--config", str(cfg),
          "--out", str(out), "--seed", "5"])
    assert "seed = 5" in (out / "resolved_config.txt").read_text()


@pytest.mark.parametrize("text, flag", [
    ("ranks = 2,1\nseed = -1\n", []),
    ("ranks = 2,1\n", ["--seed", "-1"]),
], ids=["key", "flag"])
def test_decompose_negative_seed_is_parse_error(tmp_path, tensor_file, text, flag, capsys):
    path, _ = tensor_file
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    rc = main(["decompose", "--tensor", str(path), "--config", str(cfg), "--out", str(out),
               *flag])
    assert rc == EXIT_PARSE
    assert not out.exists()
    assert "seed must be >= 0" in capsys.readouterr().err


def test_decompose_bad_config_exit_code(tmp_path, tensor_file):
    path, _ = tensor_file
    cfg = write_config(tmp_path, "epochs = 3\n")  # missing ranks
    rc = main(["decompose", "--tensor", str(path), "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_PARSE


def test_decompose_invalid_config_value_writes_nothing(tmp_path, tensor_file):
    path, _ = tensor_file
    cfg = write_config(tmp_path, "ranks = 2,1\nreg = ridge:abc\n")
    out = tmp_path / "o"
    rc = main(["decompose", "--tensor", str(path), "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_PARSE
    assert not out.exists()


def test_decompose_bad_tensor_exit_code(tmp_path):
    bad = tmp_path / "bad.dten"
    bad.write_bytes(b"NOTATENSOR 1 2 2 2\n" + b"\x00" * 64)
    cfg = write_config(tmp_path)
    rc = main(["decompose", "--tensor", str(bad), "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_PARSE


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decompose_nan_abort_exit_code(tmp_path, tensor_file):
    path, _ = tensor_file
    cfg = write_config(tmp_path, "ranks = 2,1\nepochs = 50\neta = 1e8\nreg = none\nestimator = sgd\n")
    rc = main(["decompose", "--tensor", str(path), "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_NAN_ABORT


def cli_child(cwd, *args):
    """The CLI run as a child process, where warnings print as a user would
    see them."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "midasll1.cli", *args], capture_output=True,
                          text=True, env=env, cwd=cwd)


def test_aborted_decompose_prints_one_error_line(tmp_path):
    """An aborted run writes the one documented `error:` line to stderr and
    nothing else, no numpy warning on the way.  With eta = 33 the factors
    stay finite until the second epoch's objective finds the reconstruction
    overflowing."""
    path = str(tmp_path / "x.dten")
    assert cli_child(tmp_path, "synth", "--dims", "6,5,4", "--ranks", "2,1", "--seed", "3",
                     "--out", path).returncode == EXIT_OK
    cfg = write_config(tmp_path, "ranks = 2,1\nepochs = 2\neta = 33\n")
    r = cli_child(tmp_path, "decompose", "--tensor", path, "--config", str(cfg),
                  "--out", str(tmp_path / "o"))
    assert r.returncode == EXIT_NAN_ABORT
    assert r.stderr.startswith("error: the reconstruction overflows: the factors give "
                               "non-finite model entries after iteration 37 (mode 3)")
    assert r.stderr.count("\n") == 1 and r.stderr.endswith("\n")


def test_csv_index_too_large_for_an_integer_prints_one_error_line(tmp_path):
    """A CSV index beyond any integer (1e30) is rejected with its line before
    it is cast: one `error:` line on stderr, no numpy warning, exit 2."""
    path = tmp_path / "x.csv"
    path.write_text("1,1,1,1.0\n1e30,1,1,2.0\n")
    cfg = write_config(tmp_path)
    r = cli_child(tmp_path, "decompose", "--tensor", str(path), "--config", str(cfg),
                  "--out", str(tmp_path / "o"))
    assert r.returncode == EXIT_PARSE
    assert r.stderr == f"error: {path}: line 2: indices must be <= 2, the number of entry lines\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decompose_overflowing_reconstruction_exits_3(tmp_path, capsys):
    """A run whose finite factors overflow the reconstruction is a solver
    abort (exit 3), not a complaint about the input tensor."""
    path = tmp_path / "x.dten"
    t, _ = generate((6, 5, 4), RankVector((2, 1)), snr_db=math.inf, seed=11)
    tensorfile.write_tensor(path, t)
    cfg = write_config(tmp_path, "ranks = 2,1\nestimator = saga\neta = 7.8\nreg = none\n"
                                 "epochs = 200\nseed = 12\n")
    rc = main(["decompose", "--tensor", str(path), "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_NAN_ABORT
    assert "the reconstruction overflows" in capsys.readouterr().err


def test_decompose_zero_bound_under_default_step_exits_3(tmp_path, capsys):
    """With eta = none a factor that collapses to zero leaves no step c/L_n at
    the next epoch start: exit 3 with the mode named."""
    path = tmp_path / "neg.dten"
    tensorfile.write_tensor(path, DenseTensor3(-np.ones((4, 4, 4))))
    cfg = write_config(tmp_path, "ranks = 2\nepochs = 200\neta = none\nreg = nonneg\n")
    rc = main(["decompose", "--tensor", str(path), "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_NAN_ABORT
    assert "Lipschitz bound of mode 1 is zero" in capsys.readouterr().err


def test_synth_then_metrics_on_truth(tmp_path, capsys):
    out = tmp_path / "synth.dten"
    rc = main(["synth", "--dims", "6,5,4", "--ranks", "2,1",
               "--snr-db", "inf", "--seed", "3", "--out", str(out)])
    assert rc == EXIT_OK
    assert out.exists() and (tmp_path / "synth.dten.truth" / "A1.dmat").exists()
    capsys.readouterr()
    rc = main(["metrics", "--tensor", str(out),
               "--factors", str(tmp_path / "synth.dten.truth")])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "psnr_db inf" in text  # exact reconstruction of a noiseless instance


@pytest.mark.parametrize("flag, value", [
    ("--dims", "0,10,5"),   # exited 0, writing a .dten the reader rejects
    ("--dims", "10,10"),    # exited 1: tuple index out of range
    ("--dims", "10,10,5,2"),
    ("--dims", "10,x,5"),
    ("--ranks", "2,0"),
    ("--ranks", "2,"),
    ("--snr-db", "abc"),
    ("--snr-db", "nan"),
    ("--snr-db", "-inf"),
    ("--snr-db", "1e5"),    # exited 1: the noise scale 10**(dB/20) overflows
    ("--snr-db", "-1001"),
    ("--seed", "-1"),
])
def test_synth_bad_flag_is_parse_error(tmp_path, capsys, flag, value):
    """A bad `synth` flag exits 2 with one `error:` line naming the flag,
    and nothing is written."""
    args = {"--dims": "6,5,4", "--ranks": "2,1", "--snr-db": "30", "--seed": "3"}
    args[flag] = value
    out = tmp_path / "o" / "synth.dten"
    rc = main(["synth", "--out", str(out), *(f"{key}={val}" for key, val in args.items())])
    err = capsys.readouterr().err.splitlines()
    assert rc == EXIT_PARSE
    assert len(err) == 1 and err[0].startswith(f"error: {flag} ")
    assert not (tmp_path / "o").exists()


def test_metrics_csv_output(tmp_path, capsys):
    out = tmp_path / "s.dten"
    main(["synth", "--dims", "4,4,4", "--ranks", "2", "--out", str(out)])
    capsys.readouterr()
    rc = main(["metrics", "--tensor", str(out),
               "--factors", str(tmp_path / "s.dten.truth"), "--csv"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "psnr_db,rmse,sam_rad,cc"
    assert len(lines[1].split(",")) == 4


def test_zero_tensor_psnr_is_minus_inf(tmp_path, capsys):
    """A tensor whose largest entry is 0 has no finite PSNR for an inexact
    fit: `decompose` exits 0 and reports -inf, as does `metrics --csv`."""
    path = tmp_path / "zero.dten"
    tensorfile.write_tensor(path, DenseTensor3(np.zeros((4, 3, 2))))
    cfg = write_config(tmp_path, "ranks = 1\nepochs = 3\n")
    out = tmp_path / "out"
    rc = main(["decompose", "--tensor", str(path), "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    assert (out / "metrics.txt").read_text().splitlines()[0] == "psnr_db -inf (ideal inf)"
    capsys.readouterr()
    rc = main(["metrics", "--tensor", str(path), "--factors", str(out), "--csv"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].split(",")[0] == "-inf"


def test_metrics_dim_mismatch(tmp_path, capsys):
    a = tmp_path / "a.dten"
    b = tmp_path / "b.dten"
    main(["synth", "--dims", "4,4,4", "--ranks", "2", "--out", str(a)])
    main(["synth", "--dims", "5,4,4", "--ranks", "2", "--out", str(b)])
    capsys.readouterr()
    rc = main(["metrics", "--tensor", str(b),
               "--factors", str(tmp_path / "a.dten.truth")])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error: factor dims (4, 4, 4) do not match tensor (5, 4, 4)\n"


def test_bench_grid(tmp_path, tensor_file, monkeypatch):
    monkeypatch.setenv("MIDAS_VIRTUAL_CLOCK", "1")
    path, _ = tensor_file
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "ranks = 2,1\nepochs = 2\n"
        "grid_estimators = sgd,saga\ngrid_t = 0,3\n"
        "grid_baselines = palm,alsmu\nbaseline_iters = 2\n"
    )
    out = tmp_path / "bench"
    rc = main(["bench", "--tensor", str(path), "--grid", str(grid), "--out", str(out)])
    assert rc == EXIT_OK
    text = (out / "summary.csv").read_text()
    assert text.splitlines()[0] == (
        "cell,final_f,final_phi,psnr_db,wall_s,status,epochs,iterations,us_per_iter")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert {r["cell"] for r in rows} == {"sgd-t0", "sgd-t3", "saga-t0", "saga-t3", "palm", "alsmu"}
    assert all(r["status"] == "ok" for r in rows)
    # 2 epochs each; a baseline sweep is 3 iterations; virtual clock: 1 unit per epoch
    assert all(r["epochs"] == "2" for r in rows)
    by_cell = {r["cell"]: r for r in rows}
    assert by_cell["palm"]["iterations"] == by_cell["alsmu"]["iterations"] == "6"
    for r in rows:
        assert float(r["us_per_iter"]) == 1e6 * 2 / int(r["iterations"])
    # a cell runs decompose's solve path: the same files, bit for bit
    cfg = write_config(tmp_path, "ranks = 2,1\nepochs = 2\nestimator = saga\nt = 3\n")
    single = tmp_path / "single"
    rc = main(["decompose", "--tensor", str(path), "--config", str(cfg), "--out", str(single)])
    assert rc == EXIT_OK
    for name in ("A1.dmat", "trace.csv", "metrics.txt"):
        assert (out / "saga-t3" / name).read_bytes() == (single / name).read_bytes()
    assert not (out / "saga-t3" / "resolved_config.txt").exists()


def test_bench_cell_failure_recorded(tmp_path):
    # negative tensor: alsmu cell fails, midas cells still succeed
    cube = np.random.default_rng(2).standard_normal((4, 4, 4))
    path = tmp_path / "neg.dten"
    tensorfile.write_tensor(path, DenseTensor3(cube))
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "ranks = 2\nepochs = 2\nreg = none\n"
        "grid_estimators = sgd\ngrid_t = 0\n"
        "grid_baselines = alsmu\nbaseline_iters = 2\n"
    )
    out = tmp_path / "bench"
    rc = main(["bench", "--tensor", str(path), "--grid", str(grid), "--out", str(out)])
    assert rc == EXIT_OK
    rows = {r["cell"]: r for r in csv.DictReader(io.StringIO((out / "summary.csv").read_text()))}
    assert rows["sgd-t0"]["status"] == "ok"
    assert rows["alsmu"]["status"].startswith("failed")
    assert rows["alsmu"]["epochs"] == rows["alsmu"]["us_per_iter"] == ""


def test_bench_palm_cell_runs_under_a_base_eta(tmp_path, tensor_file, monkeypatch):
    """A grid whose base sets `eta` still runs its palm cell, with PALM's
    1/L steps: the files of a grid without `eta`, bit for bit."""
    monkeypatch.setenv("MIDAS_VIRTUAL_CLOCK", "1")
    path, _ = tensor_file
    outs = []
    for eta_line in ("", "eta = 0.05\n"):
        grid = tmp_path / "grid.cfg"
        grid.write_text(f"ranks = 2,1\nepochs = 2\n{eta_line}"
                        "grid_baselines = palm\nbaseline_iters = 2\n")
        out = tmp_path / f"bench{len(outs)}"
        rc = main(["bench", "--tensor", str(path), "--grid", str(grid), "--out", str(out)])
        assert rc == EXIT_OK
        rows = {r["cell"]: r for r in csv.DictReader(io.StringIO((out / "summary.csv").read_text()))}
        assert rows["palm"]["status"] == "ok" and rows["palm"]["epochs"] == "2"
        outs.append(out / "palm")
    for name in ("A1.dmat", "A2.dmat", "A3.dmat", "trace.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_bench_cell_without_epochs_leaves_finals_blank(tmp_path):
    """A cell that ran no epoch has no final f or phi: blank fields, as a
    failed cell writes, not the repr of an empty string."""
    path = tmp_path / "x.dten"
    tensorfile.write_tensor(path, DenseTensor3(np.random.default_rng(3).random((4, 4, 4))))
    grid = tmp_path / "grid.cfg"
    grid.write_text("ranks = 2\nepochs = 0\ngrid_estimators = sgd\n"
                    "grid_baselines = palm\nbaseline_iters = 0\n")
    out = tmp_path / "bench"
    rc = main(["bench", "--tensor", str(path), "--grid", str(grid), "--out", str(out)])
    assert rc == EXIT_OK
    rows = list(csv.DictReader(io.StringIO((out / "summary.csv").read_text())))
    assert [r["cell"] for r in rows] == ["sgd-t3", "palm"]
    for r in rows:
        assert r["status"] == "ok" and r["epochs"] == r["iterations"] == "0"
        assert r["final_f"] == r["final_phi"] == r["us_per_iter"] == ""


@pytest.mark.parametrize("line", [
    "grid_estimators = sgd,adam",
    "grid_t = 0,-1",
    "grid_baselines = palm,lbfgs",
    "baseline_iters = -1",
])
def test_bench_bad_grid_value_is_parse_error(tmp_path, tensor_file, line):
    """Each grid key is checked when the grid is parsed: exit 2, nothing written."""
    path, _ = tensor_file
    grid = tmp_path / "grid.cfg"
    grid.write_text(f"ranks = 2,1\nepochs = 2\n{line}\n")
    out = tmp_path / "bench"
    rc = main(["bench", "--tensor", str(path), "--grid", str(grid), "--out", str(out)])
    assert rc == EXIT_PARSE
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    # a base key after a grid key keeps its line in the file
    ("ranks = 2,2\ngrid_t = 0\nfoo = 1\n", "line 3: unknown key 'foo'"),
    ("grid_t = 0\nranks = 2,2\n# again\ngrid_t = 3\n",
     "line 4: key 'grid_t' already given on line 1"),
    ("ranks = 2,2\n\ngrid_t = x\n", "line 3: grid_t: invalid literal"),
    ("ranks = 2,2\ngrid_foo = 1\n", "line 2: grid_foo: unknown grid key"),
], ids=["base-key-line", "repeated-grid-key", "bad-grid-value", "unknown-grid-key"])
def test_bench_grid_errors_name_the_file_line(tmp_path, tensor_file, capsys, text, message):
    path, _ = tensor_file
    grid = tmp_path / "grid.cfg"
    grid.write_text(text)
    out = tmp_path / "bench"
    rc = main(["bench", "--tensor", str(path), "--grid", str(grid), "--out", str(out)])
    assert rc == EXIT_PARSE
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_main_missing_factors_is_parse_error(tmp_path, tensor_file):
    path, _ = tensor_file
    # a missing factors directory is an input that cannot be read
    rc = main(["metrics", "--tensor", str(path),
               "--factors", str(tmp_path / "nope")])
    assert rc == EXIT_PARSE


def test_main_unknown_error_is_exit_error(tmp_path, tensor_file, monkeypatch, capsys):
    path, _ = tensor_file

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run", boom)
    rc = main(["decompose", "--tensor", str(path), "--config", str(write_config(tmp_path)),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_ERROR
    assert capsys.readouterr().err == "error: boom\n"
