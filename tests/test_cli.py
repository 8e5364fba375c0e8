import json

import numpy as np
import pytest

from blocklab.cli import EXIT_CAP, EXIT_OK, EXIT_PARSE, EXIT_VERIFICATION, main
from blocklab.matrix_core import write_matrix_csv


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


def test_pca_report(fixtures):
    tmp, paths = fixtures
    code, doc = run_json(["pca", str(paths["x"]), "--d", "2", "--t-bits", "8"],
                         tmp / "pca.json")
    assert code == EXIT_OK
    res = doc["results"]
    assert res["max_delta"] <= res["resolution_bound"]
    assert len(res["eigenvalues_estimated"]) == 2


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


def test_parse_failure_exit_code(fixtures, capsys):
    tmp, _ = fixtures
    assert main(["pca", str(tmp / "missing.csv")]) == EXIT_PARSE
    bad = tmp / "bad.csv"
    bad.write_text("1,zzz\n")
    assert main(["encode", str(bad)]) == EXIT_PARSE


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
