import contextlib
import io
import json

import numpy as np
import pytest

from blocklab import __version__, cli
from blocklab.cli import EXIT_CAP, EXIT_OK, EXIT_PARSE, EXIT_VERIFICATION, main
from blocklab.matrix_core import _json_entry, jsonable, write_matrix_csv


@pytest.fixture
def fixtures(tmp_path):
    rng = np.random.default_rng(99)
    x = rng.standard_normal((8, 8))
    y = rng.standard_normal((8, 8))
    paths = {
        "x": tmp_path / "x.csv",
        "y": tmp_path / "y.csv",
        "const": tmp_path / "const.csv",
        "labels": tmp_path / "labels.csv",
        "yvec": tmp_path / "yvec.csv",
    }
    write_matrix_csv(paths["x"], x)
    write_matrix_csv(paths["y"], y)
    write_matrix_csv(paths["const"], np.full((4, 4), 3.0))
    paths["labels"].write_text("".join(f"{v}\n" for v in [0] * 4 + [1] * 4))
    paths["yvec"].write_text("".join(f"{float(v)!r}\n" for v in rng.standard_normal(8)))
    return tmp_path, paths


def run_json(argv, out_path):
    code = main(argv + ["--out", str(out_path)])
    with open(out_path) as fh:
        return code, json.load(fh)


def test_center_constant_matrix(fixtures):
    tmp, paths = fixtures
    code, doc = run_json(["center", "--mode", "cxc", str(paths["const"])],
                         tmp / "center.json")
    assert code == EXIT_OK
    assert doc["verification"]["pass"] is True
    assert all(v == 0.0 for row in doc["matrix"] for v in row)


def test_center_writes_matrix(fixtures):
    tmp, paths = fixtures
    out_csv = tmp / "centered.csv"
    code = main(["center", "--mode", "cx", str(paths["x"]),
                 "--matrix-out", str(out_csv), "--out", str(tmp / "c.json")])
    assert code == EXIT_OK
    from blocklab.matrix_core import read_matrix_csv

    centered = read_matrix_csv(out_csv)
    assert np.max(np.abs(centered.real.sum(axis=0))) <= 1e-9


def test_verify_centering(fixtures):
    tmp, _ = fixtures
    code, doc = run_json(["verify", "--target", "c", "--n", "8"], tmp / "v.json")
    assert code == EXIT_OK
    assert doc["verification"]["distance_measured"] <= 1e-12
    assert doc["encodings"][0]["alpha"] == 1.0
    assert doc["encodings"][0]["ancillas"] == 1


def test_verify_similarity(fixtures):
    tmp, _ = fixtures
    code, doc = run_json(["verify", "--target", "similarity", "--classes", "2,4"],
                         tmp / "vs.json")
    assert code == EXIT_OK and doc["verification"]["pass"]


def test_verify_similarity_rejects_empty_class(fixtures, capsys):
    tmp, _ = fixtures
    for classes in ("2,0", ""):
        assert main(["verify", "--target", "similarity", "--classes", classes,
                     "--out", str(tmp / "vs.json")]) == EXIT_PARSE
    assert "each at least 1" in capsys.readouterr().err


def test_pca_report(fixtures):
    tmp, paths = fixtures
    code, doc = run_json(["pca", str(paths["x"]), "--d", "2", "--t-bits", "8"],
                         tmp / "pca.json")
    assert code == EXIT_OK
    res = doc["results"]
    assert res["max_delta"] <= res["resolution_bound"]
    assert len(res["eigenvalues_estimated"]) == 2
    assert res["degeneracies"] == []


@pytest.mark.parametrize("offset, code", [(0, EXIT_OK), (1, EXIT_OK),
                                          (10, EXIT_VERIFICATION), (100, EXIT_VERIFICATION)])
def test_pca_refuses_a_swamping_mean(tmp_path, capsys, offset, code):
    x = np.random.default_rng(0).standard_normal((8, 8)) + offset
    write_matrix_csv(tmp_path / "x.csv", x)
    out = tmp_path / "pca.json"
    assert main(["pca", str(tmp_path / "x.csv"), "--d", "3", "--out", str(out)]) == code
    if code == EXIT_OK:
        res = json.loads(out.read_text())["results"]
        assert res["pass"] is True
        lam_1 = np.linalg.eigvalsh(x @ (np.eye(8) - 1.0 / 8) @ x.T)[-1]
        assert res["alpha_over_lambda_1"] == pytest.approx(np.linalg.norm(x) ** 2 / lam_1,
                                                           rel=1e-12)
    else:
        assert "alpha/lambda_1 = " in capsys.readouterr().err and not out.exists()


def test_lda_cca_dcca_ols(fixtures):
    tmp, paths = fixtures
    for name, argv in (
        ("lda", ["lda", str(paths["x"]), str(paths["labels"]), "--d", "2"]),
        ("cca", ["cca", str(paths["x"]), str(paths["y"]), "--d", "2"]),
        ("dcca", ["dcca", str(paths["x"]), str(paths["y"]), str(paths["labels"]),
                  "--d", "2"]),
        ("ols", ["ols", str(paths["x"]), str(paths["yvec"])]),
    ):
        code, doc = run_json(argv, tmp / f"{name}.json")
        assert code == EXIT_OK, name
        assert doc["results"]["pass"] is True, name
        assert name == "ols" or isinstance(doc["results"]["degeneracies"], list), name


def test_parse_failure_exit_code(fixtures, capsys):
    tmp, _ = fixtures
    assert main(["pca", str(tmp / "missing.csv")]) == EXIT_PARSE
    bad = tmp / "bad.csv"
    bad.write_text("1,zzz\n")
    assert main(["encode", str(bad)]) == EXIT_PARSE


def test_encode_accepts_a_one_by_one_matrix(tmp_path):
    # embedded into the 2 x 2 register, as center, pca and ols embed it
    path = tmp_path / "one.csv"
    write_matrix_csv(path, np.array([[2.5]]))
    code, doc = run_json(["encode", str(path)], tmp_path / "one.json")
    assert code == EXIT_OK
    assert doc["verification"]["pass"] is True
    assert doc["encodings"][0]["alpha"] == 2.5
    assert doc["encodings"][0]["system_qubits"] == 1


@pytest.mark.parametrize("argv", [["pca", "x"], ["suite"]])
def test_tol_is_refused_where_nothing_reads_it(fixtures, argv, capsys):
    _, paths = fixtures
    argv = [str(paths["x"]) if a == "x" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1"])
    assert exc.value.code == EXIT_PARSE
    assert "unrecognized arguments: --tol 1" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_encode_rejects_unencodable_rows(tmp_path, capsys):
    tiny = np.ones((4, 4))
    tiny[1] = 1e-160
    huge = np.ones((4, 4))
    huge[2, 3] = 1e155
    for name, x in (("tiny", tiny), ("all-tiny", np.full((4, 4), 1e-160)), ("huge", huge)):
        path = tmp_path / f"{name}.csv"
        write_matrix_csv(path, x)
        capsys.readouterr()
        assert main(["encode", str(path)]) == EXIT_PARSE, name
        captured = capsys.readouterr()
        assert captured.err == "error: prescribed column is not a unit vector within 1e-10\n"
        assert captured.out == ""


def test_cap_exceeded_exit_code(fixtures, monkeypatch):
    tmp, paths = fixtures
    monkeypatch.setenv("BLOCKLAB_CAP_QUBITS", "4")
    assert main(["pca", str(paths["x"])]) == EXIT_CAP


def test_phase_register_over_the_cap_exit_code(fixtures, monkeypatch, capsys):
    tmp, paths = fixtures
    monkeypatch.delenv("BLOCKLAB_CAP_QUBITS", raising=False)
    assert main(["pca", str(paths["x"]), "--t-bits", "15",
                 "--out", str(tmp / "pca.json")]) == EXIT_CAP
    assert capsys.readouterr().err == (
        "error: phase register of 15 qubits exceeds the simulator cap of 14 qubits\n")
    assert not (tmp / "pca.json").exists()


def test_verification_failure_exit_code(fixtures):
    tmp, paths = fixtures
    # a zero tolerance cannot be met by the floating-point pencil comparison
    code = main(["ols", str(paths["x"]), str(paths["yvec"]), "--tol", "0",
                 "--out", str(tmp / "o.json")])
    assert code == EXIT_VERIFICATION


def test_labels_must_be_integers(fixtures):
    tmp, paths = fixtures
    bad = tmp / "badlabels.csv"
    bad.write_text("0.5\n1\n0\n1\n0\n1\n0\n1\n")
    assert main(["lda", str(paths["x"]), str(bad)]) == EXIT_PARSE


def test_report_determinism(fixtures):
    tmp, paths = fixtures
    _, doc1 = run_json(["pca", str(paths["x"]), "--d", "2"], tmp / "p1.json")
    _, doc2 = run_json(["pca", str(paths["x"]), "--d", "2"], tmp / "p2.json")
    doc1.pop("timing")
    doc2.pop("timing")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_inputs_digested(fixtures):
    tmp, paths = fixtures
    _, doc = run_json(["encode", str(paths["x"])], tmp / "e.json")
    digest = doc["inputs"][str(paths["x"])]["sha256"]
    assert len(digest) == 64


def _write_inputs(tmp_path, rng, spec):
    """Paths for ("m", rows, cols) matrices, ("v", n) vectors and ("l", sizes) labels."""
    argv = []
    for k, item in enumerate(spec):
        if isinstance(item, str):
            argv.append(item)
            continue
        path = tmp_path / f"in{k}.csv"
        if item[0] == "m":
            write_matrix_csv(path, rng.standard_normal(item[1:]))
        elif item[0] == "v":
            path.write_text("".join(f"{float(v)!r}\n" for v in rng.standard_normal(item[1])))
        else:
            labels = rng.permutation(np.repeat(np.arange(len(item[1])), item[1]))
            path.write_text("".join(f"{v}\n" for v in labels))
        argv.append(str(path))
    return argv


@pytest.mark.parametrize("spec", [
    ["lda", ("m", 6, 6), ("l", (3, 3))],
    ["lda", ("m", 8, 8), ("l", (2, 6))],
    ["lda", ("m", 5, 7), ("l", (3, 1, 3))],
    ["cca", ("m", 3, 6), ("m", 3, 6)],
    ["dcca", ("m", 3, 6), ("m", 3, 6), ("l", (2, 4))],
    ["dcca", ("m", 3, 4), ("m", 3, 4), ("l", (1, 3))],
    ["dcca", ("m", 4, 7), ("m", 4, 7), ("l", (3, 4))],
    ["center", ("m", 12, 12)],
    ["center", ("m", 6, 6), "--mode", "cx"],
    *[["center", ("m", *shape), "--mode", mode]  # d x n data, refused as non-square once
      for shape in ((3, 6), (6, 3)) for mode in ("cx", "xc", "cxc")],
    ["pca", ("m", 12, 12)],
    ["pca", ("m", 3, 6)],
    ["pca", ("m", 3, 6), "--d", "1"],
    ["ols", ("m", 12, 12), ("v", 12)],
    ["verify", "--target", "c", "--n", "6"],
    ["verify", "--target", "ones", "--n", "6"],
], ids=lambda spec: "-".join(str(s) for s in spec))
def test_unpadded_statistics_pass(tmp_path, spec):
    # sample counts and class sizes that are not powers of two
    argv = _write_inputs(tmp_path, np.random.default_rng(40), spec)
    code, doc = run_json(argv, tmp_path / "out.json")
    assert code == EXIT_OK
    assert (doc["results"] if "results" in doc else doc["verification"])["pass"] is True


def test_ols_beta_has_one_entry_per_sample(tmp_path):
    argv = _write_inputs(tmp_path, np.random.default_rng(41), ["ols", ("m", 12, 12), ("v", 12)])
    code, doc = run_json(argv, tmp_path / "out.json")
    assert code == EXIT_OK and len(doc["results"]["beta"]) == 12


def test_ols_rectangular_design(tmp_path):
    argv = _write_inputs(tmp_path, np.random.default_rng(44), ["ols", ("m", 12, 5), ("v", 12)])
    code, doc = run_json(argv, tmp_path / "out.json")
    assert code == EXIT_OK and doc["results"]["pass"] is True
    assert len(doc["results"]["beta"]) == 5


def test_ols_target_of_the_wrong_length(tmp_path):
    argv = _write_inputs(tmp_path, np.random.default_rng(45), ["ols", ("m", 12, 5), ("v", 5)])
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == EXIT_PARSE
    assert not (tmp_path / "out.json").exists()


def test_lda_n16_fits_under_the_cap(tmp_path):
    argv = _write_inputs(tmp_path, np.random.default_rng(42),
                         ["lda", ("m", 16, 16), ("l", (8, 8))])
    code, doc = run_json(argv, tmp_path / "out.json")
    assert code == EXIT_OK and doc["results"]["pass"] is True


@pytest.mark.parametrize("spec", [
    ["pca", ("m", 32, 32)],
    ["lda", ("m", 32, 32), ("l", (16, 16))],
    ["cca", ("m", 16, 16), ("m", 16, 16)],
    ["cca", ("m", 32, 32), ("m", 32, 32)],
    ["dcca", ("m", 16, 16), ("m", 16, 16), ("l", (5, 11))],
], ids=lambda spec: "-".join(str(s) for s in spec))
def test_gram_scatters_fit_under_the_cap(tmp_path, spec):
    # each was refused by the cap (exit 3) while a scatter was a triple product,
    # for cca at n = 32 while its numerator was a dilated cross product, and
    # for dcca at n = 16 while its numerator was a dilated four-factor product
    argv = _write_inputs(tmp_path, np.random.default_rng(43), spec)
    code, doc = run_json(argv, tmp_path / "out.json")
    assert code == EXIT_OK and doc["results"]["pass"] is True


def test_benchmark_cli_mix_argvs_pass(tmp_path):
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from workloads import CliMix
    finally:
        sys.path.pop(0)

    mix = CliMix()
    mix.setup({"cli": cli}, 7, str(tmp_path))
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for name, argv in zip(mix.op_names, mix.argvs):
            codes[name] = main(argv)
    assert len(codes) == 24
    assert {name: code for name, code in codes.items() if code != EXIT_OK} == {}


def _exit_output(argv):
    """Exit code and stdout of a main() call that exits, as --help and --version do."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, stdout.getvalue()


def test_parser_reuse_leaks_no_state(fixtures):
    tmp, paths = fixtures
    x = str(paths["x"])
    argvs = [["center", "--mode", "cx", x], ["center", x],
             ["pca", x, "--d", "3", "--t-bits", "6"], ["pca", x],
             ["encode", x, "--tol", "1e-6"], ["encode", x]]
    exits = [["--help"], ["center", "--help"], ["pca", "--help"], ["--version"]]

    def untimed(argv, k):
        code, doc = run_json(argv, tmp / f"doc{k}.json")
        doc.pop("timing")
        return code, doc

    fresh_docs, fresh_exits = [], []
    for k, argv in enumerate(argvs):
        cli._parser.cache_clear()
        fresh_docs.append(untimed(argv, k))
    for argv in exits:
        cli._parser.cache_clear()
        fresh_exits.append(_exit_output(argv))

    cli._parser.cache_clear()
    shared_docs = [untimed(argv, k) for k, argv in enumerate(argvs)]
    assert shared_docs == fresh_docs
    assert shared_docs[1][1]["params"]["mode"] == "cxc"
    assert shared_docs[3][1]["params"] == {"d": 2, "t_bits": 8}
    assert shared_docs[5][1]["params"]["tol"] == 1e-9
    shared_exits = [_exit_output(argv) for argv in exits]
    assert shared_exits == fresh_exits
    assert shared_exits[0] == (0, cli.build_parser().format_help())
    assert shared_exits[-1] == (0, f"blocklab {__version__}\n")


def test_main_builds_the_parser_once(fixtures, monkeypatch):
    tmp, paths = fixtures
    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    for k in range(3):
        assert main(["encode", str(paths["x"]), "--out", str(tmp / f"e{k}.json")]) == EXIT_OK
    assert main(["verify", "--out", str(tmp / "v.json")]) == EXIT_OK
    assert len(builds) == 1
    # the constructor itself still hands each caller a parser of its own
    assert build() is not build()


@pytest.mark.parametrize("value", [
    np.array([1.5, -2.0, 0.0, 1e300]),
    np.array([[1.0, -0.0], [5e-324, 2.2250738585072014e-308]]),
    np.array([3, -1]),
    np.array([1 + 2j, -3j, 0.5 - 0.25j]),
    np.array([[1 + 0j, 2 - 1e-300j], [-0.0 + 0j, 5e-324 + 0j]]),
    np.array([[-0.0 + 0j, 5e-324 - 0j], [2.5 + 0j, -1.0 + 0j]]),
], ids=["real-1d", "real-2d-negzero-subnormal", "integer", "complex-1d", "mixed-2d",
        "complex-dtype-zero-imag"])
def test_jsonable_array_bytes_match_the_per_entry_rule(value):
    per_entry = ([[_json_entry(v) for v in row] for row in value] if value.ndim == 2
                 else [_json_entry(v) for v in value])
    expected = json.dumps({"a": per_entry}, sort_keys=True, indent=2)
    assert json.dumps(jsonable({"a": value}), sort_keys=True, indent=2) == expected


def test_jsonable_keeps_negative_zero_and_subnormals():
    assert json.dumps(jsonable(np.array([-0.0, 5e-324, 3]))) == "[-0.0, 5e-324, 3.0]"


def test_pca_reports_alpha_over_lambda_1(fixtures):
    tmp, paths = fixtures
    _, doc = run_json(["pca", str(paths["x"]), "--d", "2"], tmp / "pca.json")
    res = doc["results"]
    alpha = res["resolution_bound"] * 2.0 ** 8
    assert res["alpha_over_lambda_1"] == alpha / res["eigenvalues_classical"][0]
    # constant data has no spread: lambda_1 is 0 and the ratio is null
    code, doc = run_json(["pca", str(paths["const"]), "--d", "2"], tmp / "const.json")
    assert code == EXIT_OK
    assert doc["results"]["eigenvalues_classical"][0] == 0.0
    assert doc["results"]["alpha_over_lambda_1"] is None
    # 0.1 over 3 samples does not cancel exactly: lambda_1 is round-off, below
    # the rank cutoff pca reads with, and the ratio is still null
    inexact = tmp / "inexact.csv"
    write_matrix_csv(inexact, np.full((3, 3), 0.1))
    code, doc = run_json(["pca", str(inexact), "--d", "2"], tmp / "inexact.json")
    assert code == EXIT_OK
    assert doc["results"]["eigenvalues_classical"][0] != 0.0
    assert doc["results"]["alpha_over_lambda_1"] is None
