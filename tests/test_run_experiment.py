"""scripts/run_experiment.py, the seed sweep over the three synthetic studies,
end to end on tiny settings."""

import importlib.util
from pathlib import Path

from oerrec.util import load_json

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiment.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_experiments_write_one_row_per_seed(tmp_path, capsys):
    out = tmp_path / "experiments"
    assert load_script().main([
        "--out", str(out), "--seeds", "1", "--readers", "24",
        "--folds", "2", "--restarts", "1",
    ]) == 0
    printed = capsys.readouterr().out
    results = load_json(out / "experiment_results.json")
    for block in ("ranking", "missing-rpf", "clustering"):
        assert f"== {block} ==" in printed
        assert len(results[block]) == 1
        assert results[block][0]["seed"] == 0
    assert results["settings"]["seeds"] == 1
    assert results["_meta"]["config_hash"]
