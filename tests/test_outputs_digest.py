import importlib.util
import os
import re
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "outputs_digest.py"
_spec = importlib.util.spec_from_file_location("outputs_digest", _PATH)
outputs_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs_digest)


def test_run_records_exit_code_streams_and_written_files(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    argv = ["zoo", '{"family":"DiagHarmonic","n":2}', "--out", "z.json"]
    _, code, out, err, caught, files = outputs_digest._run(argv, written=("z.json",))
    assert (code, err, caught) == (0, "", [])
    assert '"kind": "zoo"' in out
    assert files[0].startswith(b'{"rows": 2') and not (tmp_path / "z.json").exists()


def test_prints_one_stable_digest_per_family(capsys, monkeypatch):
    monkeypatch.setattr(outputs_digest, "PROPSUITE_RUNS", (["--count", "2"],))
    monkeypatch.setattr(outputs_digest, "ZOO_SIZES", (1, 2, 3))
    monkeypatch.setattr(outputs_digest, "ZOO_CLI_SIZES", (2,))
    monkeypatch.setattr(outputs_digest, "CORPUS_COUNT", 4)
    monkeypatch.setattr(outputs_digest, "PAIR_COUNT", 2)
    assert outputs_digest.main() == 0
    captured = capsys.readouterr()
    assert "BLAS" in captured.err and "OPENBLAS_NUM_THREADS=" in captured.err
    assert "scipy " in captured.err
    lines = captured.out.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    assert [line.split("  ", 1)[1] for line in lines] == [
        "propsuite --count 2", "zoo sections", "corpus matrices", "rank rule", "subspaces",
        "sweep", "cli classify", "cli pinv", "cli douglas", "cli perturb",
        "identities", "identities --tol-subspace 1e-15",
        "cli large classify perturb", "cli zoo",
        "nonfinite messages", "overflow messages"]
    outputs_digest.main()
    assert capsys.readouterr().out.splitlines() == lines


def test_importing_the_tool_changes_no_environment():
    before = dict(os.environ)
    spec = importlib.util.spec_from_file_location("outputs_digest_again", _PATH)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert dict(os.environ) == before
