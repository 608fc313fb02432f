"""Command-line driver: stage wiring, reproducibility, and error handling."""

import argparse
import dataclasses
import filecmp
import hashlib
import json
import multiprocessing
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from oerrec import cli, evaluation, ranker
from oerrec.cli import build_parser, main
from oerrec.community import read_communities
from oerrec.config import PipelineConfig
from oerrec.corpus import read_corpus
from oerrec.features import features_from_dict
from oerrec.rankfeatures import read_rankfeat
from oerrec.util import fork_seed, load_json

CORPUS_FILES = ("readers.jsonl", "events.jsonl", "oers.jsonl", "judgments.tsv")
PIPELINE_ARGS = ["--seed", "3", "--readers", "15", "--folds", "3", "--restarts", "2"]
# what train-ranker and evaluate --mode cv read from --out, sorted
STAGED_RANKER_INPUTS = ("cluster_eval.json", "communities.tsv", "rankfeat.json")


def run_cli(argv):
    return main([str(a) for a in argv])


def snapshot(d):
    return {p.relative_to(d): p.read_bytes() for p in d.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    assert run_cli(["pipeline", "--out", d, *PIPELINE_ARGS]) == 0
    return d


class TestErrors:
    def test_seed_is_mandatory(self, tmp_path, capsys):
        assert run_cli(["simulate", "--out", tmp_path]) == 1
        assert "seed is mandatory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_in_rejected_where_nothing_is_read(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--in", tmp_path / "nowhere", "--out", tmp_path / "out",
                     "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --in" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_input_corpus(self, tmp_path, capsys):
        assert run_cli([
            "featurize", "--in", tmp_path / "nowhere", "--out", tmp_path,
            "--seed", "1",
        ]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_failed_run_leaves_no_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli([
            "evaluate", "--in", tmp_path, "--out", out, "--seed", "1",
        ]) == 1
        capsys.readouterr()
        assert list(out.iterdir()) == []

    def test_recommend_without_trained_model(self, tmp_path, capsys):
        assert run_cli(["simulate", "--out", tmp_path, "--seed", "2",
                        "--readers", "6"]) == 0
        capsys.readouterr()
        assert run_cli([
            "recommend", "--in", tmp_path, "--out", tmp_path, "--seed", "2",
            "--paper", "p00", "--quote", "topic00",
        ]) == 1
        assert "no model" in capsys.readouterr().err

    def test_recommend_creates_no_directory(self, pipeline_dir, tmp_path, capsys):
        assert run_cli([
            "recommend", "--in", pipeline_dir, "--out", tmp_path / "nd" / "typo",
            "--seed", "3", "--paper", "p01", "--quote", "x",
        ]) == 1
        assert "vertices.tsv" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("top", ["0", "-2"])
    def test_recommend_top_below_one_rejected(self, pipeline_dir, capsys, top):
        assert run_cli([
            "recommend", "--in", pipeline_dir, "--out", pipeline_dir, "--seed", "3",
            "--paper", "p00", "--quote", "topic00", "--top", top,
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--top" in captured.err
        assert captured.out == ""

    def test_rankfeat_rejects_metapaths_flag(self, tmp_path, capsys):
        # rankfeat reads <out>/metapaths.json, written by graph-build
        with pytest.raises(SystemExit) as exc:
            run_cli(["rankfeat", "--in", tmp_path, "--out", tmp_path, "--seed", "1",
                     "--metapaths", tmp_path / "paths.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --metapaths" in capsys.readouterr().err

    def test_recommend_rejects_model_of_other_features(self, pipeline_dir, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        paths = load_json(run / "metapaths.json")
        paths["metapaths"] = paths["metapaths"][1:]
        (run / "metapaths.json").write_text(json.dumps(paths))
        assert run_cli([
            "recommend", "--in", run, "--out", run, "--seed", "3",
            "--paper", "p00", "--quote", "topic00",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: feature names")
        assert "do not match model" in captured.err
        assert captured.out == ""

    def test_train_ranker_error_in_a_worker_writes_no_model(
            self, pipeline_dir, tmp_path, monkeypatch, capsys):
        # the community models' trainings see no positive gain, so they
        # raise in pool workers while the global model trains
        for name in STAGED_RANKER_INPUTS:
            shutil.copy(pipeline_dir / name, tmp_path / name)
        train = ranker.coordinate_ascent_train

        def untrainable_communities(queries, *args):
            if args[-1] != "global":
                queries = [dataclasses.replace(q, gains=np.zeros_like(q.gains))
                           for q in queries]
            return train(queries, *args)

        monkeypatch.setattr(ranker, "coordinate_ascent_train", untrainable_communities)
        monkeypatch.setattr(ranker, "usable_cpus", lambda: 2)
        assert run_cli(["train-ranker", "--out", tmp_path, "--seed", "3",
                        "--restarts", "1", "--threshold", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: untrainable: no query with a positive gain\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == list(STAGED_RANKER_INPUTS)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "pooled"])
    @pytest.mark.parametrize("argv", [["train-ranker", "--restarts", "0"],
                                      ["evaluate", "--restarts", "0"],
                                      ["evaluate", "--restarts", "-2"]],
                             ids=["train-ranker-0", "evaluate-0", "evaluate-minus-2"])
    def test_restarts_below_one_rejected(self, pipeline_dir, tmp_path, monkeypatch,
                                         capsys, argv, cpus):
        for name in STAGED_RANKER_INPUTS:
            shutil.copy(pipeline_dir / name, tmp_path / name)
        monkeypatch.setattr(ranker, "usable_cpus", lambda: cpus)
        assert run_cli([*argv, "--out", tmp_path, "--seed", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: restarts must be >= 1, got {argv[-1]}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == list(STAGED_RANKER_INPUTS)
        assert multiprocessing.active_children() == []

    def test_broken_config_file_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1,\n "k_loc": }\n')
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}: Expecting value: line 2 column 11")
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # run bookkeeping is set by the CLI, never by a config file
        for extra in ({"bogus": 2}, {"frozen_hash": "forged"},
                      {"overrides_echo": {"k": 1}}):
            cfg.write_text(json.dumps({"seed": 1, **extra}))
            assert run_cli(["simulate", "--config", cfg, "--out", tmp_path]) == 1
            assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ({"restarts": "2"}, "config key 'restarts' must be an integer, got '2'"),
        ({"cluster_groups": "RPF-C"},
         "config key 'cluster_groups' must be a list of strings, got 'RPF-C'"),
        ({"group_weights": [1]}, "config key 'group_weights' must be an object, got [1]"),
        ({"sim": "x"}, "config key 'sim' must be an object, got 'x'"),
        ({"k_loc": 2.5}, "config key 'k_loc' must be an integer, got 2.5"),
        ({"seed": "7"}, "config key 'seed' must be an integer or null, got '7'"),
        ({"restarts": True}, "config key 'restarts' must be an integer, got True"),
        ({"k1": float("nan")}, "config key 'k1' must be a number, got nan"),
        ({"mu": float("inf")}, "config key 'mu' must be a number, got inf"),
    ])
    def test_config_value_of_wrong_kind_rejected(self, tmp_path, capsys, extra, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, **extra}))
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "featurize", "pipeline"])
    @pytest.mark.parametrize("extra, message", [
        ({"group_weights": {"RPF-C": "2"}},
         "config key 'group_weights.RPF-C' must be a number, got '2'"),
        ({"group_weights": {"RPF-T": 1.5, "RPF-C": True}},
         "config key 'group_weights.RPF-C' must be a number, got True"),
        ({"sim": {"readers": 5}}, "unknown config keys: ['sim.readers']"),
        ({"sim": {"n_readers": "5"}}, "config key 'sim.n_readers' must be an integer, got '5'"),
        ({"sim": {"alpha": None}}, "config key 'sim.alpha' must be a number, got None"),
        ({"sim": {"preferred_types": "video"}},
         "config key 'sim.preferred_types' must be a list of strings, got 'video'"),
        ({"group_weights": {"RPF-C": float("nan")}},
         "config key 'group_weights.RPF-C' must be a number, got nan"),
        ({"sim": {"alpha": float("-inf")}}, "config key 'sim.alpha' must be a number, got -inf"),
        ({"sim": {"oers_per_type": {"video": "2"}}},
         "config key 'sim.oers_per_type.video' must be an integer, got '2'"),
        ({"sim": {"oers_per_type": {"wiki": 3, "video": True}}},
         "config key 'sim.oers_per_type.video' must be an integer, got True"),
    ])
    def test_nested_config_value_rejected(self, tmp_path, capsys, command, extra, message):
        """`sim` keys are checked by name and kind against `SimConfig`,
        `group_weights` values as finite numbers and `sim.oers_per_type`
        values as integers, before `--out` is created."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, **extra}))
        out = tmp_path / "out"
        reads = ["--in", tmp_path] if command == "featurize" else []
        assert run_cli([command, "--config", cfg, "--out", out, *reads]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("train-community-classifier", ["--lambda", "nan"],
         "config key 'lam' must be a number, got nan"),
        ("simulate", ["--alpha", "inf"], "config key 'sim.alpha' must be a number, got inf"),
        ("pipeline", ["--noise", "NaN"], "config key 'sim.grade_noise' must be a number, got nan"),
    ])
    def test_non_finite_flag_rejected(self, tmp_path, capsys, command, flags, message):
        """argparse's float() reads "nan" and "inf"; the config check
        rejects them before `--out` is created."""
        out = tmp_path / "out"
        reads = ["--in", tmp_path] if command not in ("simulate", "pipeline") else []
        assert run_cli([command, "--seed", "3", "--out", out, *reads, *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_nested_config_values_of_the_right_kind_pass(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "group_weights": {"RPF-C": 2, "RPF-T": 0.5},
                                   "sim": {"n_readers": 6, "alpha": 1, "seed": 4,
                                           "preferred_types": ["wiki", "code"]}}))
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 0
        capsys.readouterr()
        sim = json.loads((tmp_path / "out" / "sim_config.json").read_text())
        assert (sim["n_readers"], sim["alpha"], sim["seed"]) == (6, 1, 4)
        assert sim["preferred_types"] == ["wiki", "code"]


class TestFailureKeepsEarlierRun:
    @pytest.fixture
    def run(self, pipeline_dir, tmp_path):
        d = tmp_path / "run"
        shutil.copytree(pipeline_dir, d)
        return d

    @pytest.mark.parametrize("argv", [["cluster", "--k", "999"],
                                      ["train-ranker", "--metric", "bogus"]])
    def test_failed_stage_leaves_run_untouched(self, run, capsys, argv):
        before = snapshot(run)
        assert run_cli([*argv, "--in", run, "--out", run, "--seed", "3"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert snapshot(run) == before

    @pytest.mark.parametrize("name, row, argv, message", [
        ("vertices.tsv", "p99\tpaper", ["graph-build"],
         "expected 3 tab-separated columns, got 2"),
        ("edges.tsv", "p00\tabout\tnope", ["graph-build"],
         "edge endpoint 'nope' is not a vertex"),
        ("communities.tsv", "r999\tx\tclustered", ["train-ranker"],
         "invalid literal for int() with base 10: 'x'"),
        ("communities.tsv", "r000\t0\tclustered", ["train-ranker"],
         "reader 'r000' listed twice"),
        ("oers.jsonl", '{"oer": "x1", "type": "video", "title": "t", "body": 5}',
         ["rankfeat"], "body must be a string"),
    ], ids=["short-vertex", "unknown-endpoint", "non-integer-community",
            "reader-listed-twice", "non-string-oer-body"])
    def test_malformed_row_names_its_file_and_line(self, run, capsys, name, row,
                                                   argv, message):
        with open(run / name, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        line = len((run / name).read_text().splitlines())
        before = snapshot(run)
        assert run_cli([*argv, "--in", run, "--out", run, "--seed", "3"]) == 1
        assert capsys.readouterr().err == f"error: {name}:{line}: {message}\n"
        assert snapshot(run) == before

    @pytest.mark.parametrize("name, argv", [
        ("events.jsonl", ["ingest"]), ("events.jsonl", ["featurize"]),
        ("vertices.tsv", ["graph-build"]), ("communities.tsv", ["train-ranker"]),
    ], ids=["ingest", "featurize", "graph-build", "train-ranker"])
    def test_a_byte_that_is_not_utf8_names_its_file_and_line(self, run, capsys, name, argv):
        lines = (run / name).read_bytes().splitlines(keepends=True)
        lines[5] = b"\xff" + lines[5]
        (run / name).write_bytes(b"".join(lines))
        before = snapshot(run)
        assert run_cli([*argv, "--in", run, "--out", run, "--seed", "3"]) == 1
        assert capsys.readouterr().err == f"error: {name}:6: not valid UTF-8 (byte 0xff)\n"
        assert snapshot(run) == before

    @pytest.mark.parametrize("argv", [
        ["recommend", "--paper", "p00", "--quote", "topic00", "--reader", "r000"],
        ["train-ranker"], ["train-community-classifier"], ["assign"], ["evaluate"],
    ], ids=["recommend", "train-ranker", "train-community-classifier", "assign",
            "evaluate"])
    def test_community_outside_k_names_its_line(self, run, capsys, argv):
        # the pipeline clustered with k=3; cluster_eval.json records it
        assert load_json(run / "cluster_eval.json")["k"] == 3
        lines = (run / "communities.tsv").read_text().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if line.startswith("r000\t"))
        lines[i] = "r000\t7\tclustered\n"
        (run / "communities.tsv").write_text("".join(lines))
        before = snapshot(run)
        assert run_cli([*argv, "--in", run, "--out", run, "--seed", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: communities.tsv:{i + 1}: community 7 of "
                                f"reader 'r000' is outside [0, 3)\n")
        assert captured.out == ""
        assert snapshot(run) == before

    @pytest.mark.parametrize("text, message", [
        ('{"paths": []}', 'expected a list of meta-paths or an object whose "metapaths" is one'),
        ("5", 'expected a list of meta-paths or an object whose "metapaths" is one'),
        ('[[{"edge": "about"}]]', "meta-path 0: step 0: missing key 'to'"),
        ('{"metapaths": [[], [{"edge": ["about"], "to": "topic"}]]}',
         "meta-path 1: step 0: 'edge' must be a string"),
    ], ids=["no-metapaths-key", "number", "step-without-to", "list-edge"])
    def test_malformed_metapaths_file_is_named(self, run, tmp_path, capsys, text, message):
        paths = tmp_path / "paths.json"
        paths.write_text(text)
        before = snapshot(run)
        assert run_cli(["graph-build", "--in", run, "--out", run, "--seed", "3",
                        "--metapaths", paths]) == 1
        assert capsys.readouterr().err == f"error: {paths}: {message}\n"
        assert snapshot(run) == before

    @pytest.mark.parametrize("command", ["graph-build", "pipeline"])
    def test_missing_metapaths_file_is_named(self, run, tmp_path, capsys, command):
        # a named file never falls back to the built-in meta-paths
        missing = tmp_path / "missing.json"
        own = ["--in", run] if command == "graph-build" else PIPELINE_ARGS[2:]
        before = snapshot(run)
        assert run_cli([command, *own, "--out", run, "--seed", "3",
                        "--metapaths", missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert snapshot(run) == before

    def test_weight_of_a_group_not_clustered_rejected(self, run, tmp_path, capsys):
        cfg = tmp_path / "w.json"
        cfg.write_text(json.dumps({"group_weights": {"RPF-T": 5.0}}))
        before = snapshot(run)
        assert run_cli(["cluster", "--config", cfg, "--out", run, "--seed", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: group weight for 'RPF-T'")
        assert "['RPF-C', 'RPF-TB']" in err
        assert snapshot(run) == before

    @pytest.mark.parametrize("argv, config, message", [
        (["recommend", "--paper", "nope", "--quote", "topic00"], {},
         "unknown paper 'nope'"),
        (["cluster"], {"cluster_groups": ["Nope"]}, "unknown feature groups ['Nope']"),
    ], ids=["recommend-unknown-paper", "cluster-unknown-group"])
    def test_key_error_prints_its_message(self, run, tmp_path, capsys, argv, config,
                                          message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        before = snapshot(run)
        assert run_cli([*argv, "--config", cfg, "--in", run, "--out", run,
                        "--seed", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert snapshot(run) == before

    @pytest.mark.parametrize("command", ["train-ranker", "evaluate"])
    def test_judged_reader_without_community_is_named(self, run, monkeypatch, capsys,
                                                      command):
        # as after `cluster` and before `assign` on a corpus whose judged
        # readers lack profiles: neither command starts a training
        _, queries = read_rankfeat(run / "rankfeat.json")
        reader = min(q.reader_id for q in queries)
        lines = (run / "communities.tsv").read_text().splitlines(keepends=True)
        (run / "communities.tsv").write_text(
            "".join(line for line in lines if not line.startswith(f"{reader}\t")))

        def no_training(jobs):
            raise AssertionError("training started")

        monkeypatch.setattr(ranker, "train_models", no_training)
        monkeypatch.setattr(evaluation, "train_models", no_training)
        before = snapshot(run)
        assert run_cli([command, "--in", run, "--out", run, "--seed", "3"]) == 1
        assert capsys.readouterr().err == (
            f"error: readers without community assignment: ['{reader}']\n")
        assert snapshot(run) == before

    def test_inconsistent_corpus_keeps_validation_only(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["simulate", "--out", a, "--seed", "4", "--readers", "6"]) == 0
        lines = (a / "events.jsonl").read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if '"kind":"reply"' in line)
        event = json.loads(lines[i])
        event["target"] = "gone"
        lines[i] = json.dumps(event)
        (a / "events.jsonl").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli(["ingest", "--in", a, "--out", b, "--seed", "4"]) == 1
        assert "corpus inconsistent" in capsys.readouterr().err
        assert sorted(p.name for p in b.iterdir()) == ["validation.json"]
        validation = load_json(b / "validation.json")
        assert validation["consistent"] is False
        assert [i["kind"] for i in validation["issues"]] == ["dangling-reply"]

    def test_cluster_reads_only_features(self, run, tmp_path, monkeypatch, capsys):
        expected = load_json(run / "cluster_eval.json")["reply_pair_eval"]
        monkeypatch.chdir(tmp_path)  # no corpus in the default --in
        assert run_cli(["cluster", "--out", run, "--seed", "3"]) == 0
        assert load_json(run / "cluster_eval.json")["reply_pair_eval"] == expected


class TestStages:
    def test_simulate_writes_corpus_and_graph(self, tmp_path, capsys):
        assert run_cli(["simulate", "--out", tmp_path, "--seed", "1",
                        "--readers", "6"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("simulate: 6 readers")
        for name in (*CORPUS_FILES, "latent.tsv", "vertices.tsv", "edges.tsv",
                     "metapaths.json", "sim_config.json", "run_config.json"):
            assert (tmp_path / name).is_file()

    def test_config_file_can_supply_seed_and_sim(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "sim": {"n_readers": 6}}))
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path]) == 0
        assert "6 readers" in capsys.readouterr().out

    def test_sim_flags_merge_over_the_config_files_sim(self, tmp_path, monkeypatch,
                                                        capsys):
        monkeypatch.chdir(tmp_path)  # default --out, so the overrides are --readers alone
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": 5, "sim": {"alpha": 0.5}}))
        assert run_cli(["simulate", "--config", "cfg.json", "--readers", "6"]) == 0
        assert "6 readers" in capsys.readouterr().out
        sim = load_json(tmp_path / "out" / "sim_config.json")
        assert (sim["alpha"], sim["n_readers"], sim["seed"]) == (0.5, 6, 5)
        run_config = load_json(tmp_path / "out" / "run_config.json")
        assert run_config["_meta"]["overrides"] == {"sim": {"n_readers": 6}}
        assert run_config["config"]["sim"] == {"alpha": 0.5, "n_readers": 6}

    def test_ingest_copies_and_validates(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["simulate", "--out", a, "--seed", "4", "--readers", "6"]) == 0
        assert run_cli(["ingest", "--in", a, "--out", b, "--seed", "4"]) == 0
        assert "consistent=True" in capsys.readouterr().out
        for name in CORPUS_FILES:
            assert (b / name).read_bytes() == (a / name).read_bytes()
        validation = load_json(b / "validation.json")
        assert validation["consistent"] is True

    def test_ingest_copies_a_non_canonical_corpus_byte_for_byte(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        # CRLF line ends, keys out of order, extra spaces, an unknown field,
        # null fields left out, and a reader line with an empty profile
        streams = {
            "readers.jsonl": ['{"skills": {"python": 2},  "reader": "r1", "courses": ["db"]}',
                              '{"reader":"r9","courses":[],"skills":{}}'],
            "events.jsonl": [
                '{"kind": "quote", "event": "e1", "reader": "r1", "paper": "p1", '
                '"page": 0, "bbox": [0.1, 0.1, 0.2, 0.2], "quote_text": "hash table", '
                '"note": "unknown"}',
                '{"event":"e2","reader":"r2","kind":"reply","paper":"p1","page":0,'
                '"bbox":[0.1,0.1,0.2,0.2],"content_text":"agreed","target":"e1","ts":3}',
                '{"event":"e3","kind":"rating","reader":"r2","paper":"p1","page":1,'
                '"bbox":[0,0,1,1],"oer":"v1","grade":"Good"}'],
            "oers.jsonl": ['{"type": "video", "oer": "v1", "body": "hash table", "title": "Hashing"}'],
            "judgments.tsv": ["q1\tr1\tp1\thash table\tv1\tOK"],
        }
        for name, lines in streams.items():
            (a / name).write_bytes("".join(line + "\r\n" for line in lines).encode())
        assert run_cli(["ingest", "--in", a, "--out", b, "--seed", "4"]) == 0
        assert capsys.readouterr().out.startswith("ingest: 3 readers, 3 events, 1 queries")
        for name in CORPUS_FILES:
            assert filecmp.cmp(a / name, b / name, shallow=False), name
        assert read_corpus(b) == read_corpus(a)

    def test_ingest_refuses_a_stream_changed_while_it_was_read(self, tmp_path, monkeypatch,
                                                               capsys):
        a, b, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        assert run_cli(["simulate", "--out", a, "--seed", "4", "--readers", "6"]) == 0
        assert run_cli(["simulate", "--out", b, "--seed", "5", "--readers", "6"]) == 0
        assert run_cli(["ingest", "--in", a, "--out", out, "--seed", "4"]) == 0
        before = snapshot(out)
        validate = cli.validate_corpus

        def validate_then_change(corpus):
            # judgments.tsv is the last stream copied, so the others are
            # copied before the change is found
            with open(b / "judgments.tsv", "a", encoding="utf-8") as fh:
                fh.write("q-new\tr000\tp00\tquote\tvideo00\tGood\n")
            return validate(corpus)

        monkeypatch.setattr(cli, "validate_corpus", validate_then_change)
        capsys.readouterr()
        assert run_cli(["ingest", "--in", b, "--out", out, "--seed", "5"]) == 1
        assert capsys.readouterr().err == (
            f"error: {b / 'judgments.tsv'} changed while it was read\n")
        assert snapshot(out) == before  # no .tmp file left, validation.json kept

    def test_reader_absent_from_readers_file_is_registered_profile_less(self, tmp_path,
                                                                        capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["simulate", "--out", a, "--seed", "4", "--readers", "6"]) == 0
        events = (a / "events.jsonl").read_text().splitlines(keepends=True)
        first = json.loads(events[0])
        first["reader"] = "r999"
        events[0] = json.dumps(first, separators=(",", ":")) + "\n"
        (a / "events.jsonl").write_text("".join(events))
        capsys.readouterr()
        assert run_cli(["ingest", "--in", a, "--out", b, "--seed", "4"]) == 0
        assert capsys.readouterr().out.startswith("ingest: 7 readers, ")
        validation = load_json(b / "validation.json")
        assert validation["consistent"] is True and validation["issues"] == []
        assert "r999" not in (b / "readers.jsonl").read_text()
        assert json.loads((b / "events.jsonl").read_text().splitlines()[0])["reader"] == "r999"

    def test_pipeline_writes_every_artifact(self, pipeline_dir):
        for name in (*CORPUS_FILES, "features.json", "communities.tsv",
                     "cluster_eval.json", "maxent.json", "graph_stats.json",
                     "rankfeat.json", "rankerset.json", "model_global.json",
                     "report.json"):
            assert (pipeline_dir / name).is_file(), name

    def test_artifacts_embed_config_hash_and_seed(self, pipeline_dir):
        report_meta = load_json(pipeline_dir / "report.json")["_meta"]
        features_meta = load_json(pipeline_dir / "features.json")["_meta"]
        assert report_meta["seed"] == 3
        assert report_meta["config_hash"] == features_meta["config_hash"]
        comment = (pipeline_dir / "communities.tsv").read_text().splitlines()[1]
        assert comment.startswith(f"# config_hash={report_meta['config_hash']} seed=3")

    @pytest.mark.parametrize("command, flags, written", [
        ("simulate", ["--readers", "15"],
         {"latent.tsv", "vertices.tsv", "edges.tsv", "metapaths.json", "sim_config.json"}),
        ("featurize", ["--in", "corpus"], {"features.json"}),
        ("cluster", [], {"communities.tsv", "cluster_eval.json"}),
        ("graph-build", ["--in", "corpus"],
         {"vertices.tsv", "edges.tsv", "metapaths.json", "graph_stats.json"}),
    ])
    def test_one_command_writes_one_record(self, tmp_path, monkeypatch, capsys,
                                           command, flags, written):
        """Every JSON `_meta` and every TSV comment line that one command
        writes names the same config hash and seed, and the command as its
        stage; only the corpus streams carry none."""
        monkeypatch.chdir(tmp_path)
        if command != "simulate":
            assert run_cli(["simulate", "--out", "corpus", "--seed", "3", "--readers", "15"]) == 0
        if command in ("cluster", "graph-build"):
            assert run_cli(["featurize", "--in", "corpus", "--out", "run", "--seed", "3"]) == 0
        out = tmp_path / ("corpus" if command == "simulate" else "run")
        before = snapshot(out)
        assert run_cli([command, "--out", out.name, "--seed", "3", *flags]) == 0
        capsys.readouterr()
        records = {}
        for name, blob in snapshot(out).items():
            if before.get(name) == blob or name.name in CORPUS_FILES:
                continue
            if name.suffix == ".json":
                meta = json.loads(blob)["_meta"]
                records[name.name] = (meta["config_hash"], str(meta["seed"]), meta["stage"])
            else:
                line = blob.decode().splitlines()[1]
                match = re.fullmatch(r"# config_hash=(\S+) seed=(\S+) stage=(\S+)", line)
                assert match, (name, line)
                records[name.name] = match.groups()
        assert set(records) == written | {"run_config.json"}
        (_, seed, stage), = set(records.values())
        assert (seed, stage) == ("3", command)

    def test_recommend_prints_ranked_results(self, pipeline_dir, capsys):
        assert run_cli([
            "recommend", "--in", pipeline_dir, "--out", pipeline_dir,
            "--seed", "3", "--paper", "p00", "--quote", "topic00 topic01",
            "--reader", "r000", "--top", "3",
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        ranked = [line for line in out if line and line[0].isdigit()]
        assert len(ranked) == 3
        assert ranked[0].split("\t")[0] == "1"
        assert out[-1].startswith("recommend: model=")

    def test_recommend_leaves_run_config_unchanged(self, pipeline_dir, capsys):
        before = (pipeline_dir / "run_config.json").read_bytes()
        assert run_cli([
            "recommend", "--in", pipeline_dir, "--out", pipeline_dir,
            "--seed", "3", "--paper", "p00", "--quote", "topic00",
            "--reader", "r001",
        ]) == 0
        assert (pipeline_dir / "run_config.json").read_bytes() == before

    # (reader, paper, quote) -> ranked rows, as printed before recommend
    # stopped parsing the whole corpus; tied scores list by ascending oer_id
    RECOMMENDED = {
        ("r000", "p00", "topic00 topic01"): [
            "1\tvideo01\t0.288861\tvideo", "2\tvideo00\t0.257004\tvideo",
            "3\twiki00\t0.253359\twiki", "4\twiki01\t0.224975\twiki",
            "5\tvideo02\t0.132495\tvideo"],
        ("r003", "p01", "topic02"): [
            "1\tvideo02\t0.264331\tvideo", "2\twiki02\t0.232302\twiki",
            "3\tvideo00\t0.139822\tvideo", "4\tvideo01\t0.139822\tvideo",
            "5\tvideo03\t0.139822\tvideo"],
        ("r007", "p02", "topic03 topic05"): [
            "1\twiki05\t0.226241\twiki", "2\tcode00\t0.214414\tcode",
            "3\tcode01\t0.214414\tcode", "4\tcode02\t0.214414\tcode",
            "5\tcode03\t0.214414\tcode"],
        ("r011", "p03", "topic04"): [
            "1\tslides00\t0.446194\tslides", "2\tslides01\t0.446194\tslides",
            "3\tslides02\t0.262467\tslides", "4\tslides03\t0.262467\tslides",
            "5\tslides04\t0.262467\tslides"],
        ("r014", "p05", "topic06 topic07"): [
            "1\tslides04\t0.446194\tslides", "2\tslides05\t0.446194\tslides",
            "3\tslides00\t0.288714\tslides", "4\tslides01\t0.288714\tslides",
            "5\tslides02\t0.262467\tslides"],
    }

    def test_recommend_parses_only_the_oers(self, pipeline_dir, capsys, monkeypatch):
        def refuse(in_dir):
            raise AssertionError("recommend parsed the whole corpus")

        monkeypatch.setattr("oerrec.cli.read_corpus", refuse)
        for (reader, paper, quote), rows in self.RECOMMENDED.items():
            assert run_cli([
                "recommend", "--in", pipeline_dir, "--out", pipeline_dir,
                "--seed", "3", "--paper", paper, "--quote", quote, "--reader", reader,
            ]) == 0
            assert capsys.readouterr().out.splitlines()[:-1] == rows

    def test_recommend_reads_only_the_model_it_serves(self, pipeline_dir, tmp_path, capsys):
        """Deleting the other communities' models changes no line of a
        `recommend --reader` answer; deleting the served model fails with
        `no model`."""
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        argv = ["recommend", "--in", run, "--out", run, "--seed", "3",
                "--paper", "p00", "--quote", "topic00 topic01", "--reader", "r000"]
        assert run_cli(argv) == 0
        before = capsys.readouterr().out
        served = run / f"model_c{before.split('model=')[1].split(',')[0]}.json"
        others = [p for p in run.glob("model_c*.json") if p != served]
        assert served.is_file() and others
        for p in others:
            p.unlink()
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == before
        served.unlink()
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.startswith("error: no model: ")

    def test_rankfeat_reads_no_events(self, pipeline_dir, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        argv = ["rankfeat", "--in", run, "--out", run, "--seed", "3"]
        assert run_cli(argv) == 0
        expected = (run / "rankfeat.json").read_bytes()
        (run / "events.jsonl").unlink()
        assert run_cli(argv) == 0
        assert (run / "rankfeat.json").read_bytes() == expected
        capsys.readouterr()

    def test_graph_build_keeps_metapaths_flag(self, pipeline_dir, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        paths = load_json(run / "metapaths.json")
        paths["metapaths"] = paths["metapaths"][:2]
        (tmp_path / "paths.json").write_text(json.dumps(paths))
        assert run_cli(["graph-build", "--in", run, "--out", run, "--seed", "3",
                        "--metapaths", tmp_path / "paths.json"]) == 0
        assert "2 metapaths" in capsys.readouterr().out

    def test_evaluate_missing_rpf_mode(self, pipeline_dir, capsys):
        assert run_cli([
            "evaluate", "--in", pipeline_dir, "--out", pipeline_dir,
            "--seed", "3", "--mode", "missing-rpf",
            "--folds", "3", "--restarts", "2",
        ]) == 0
        assert "evaluate[missing-rpf]" in capsys.readouterr().out
        report = load_json(pipeline_dir / "report_missing_rpf.json")
        assert "community_prediction_accuracy" in report["extras"]


class TestSettingsReachTheLibrary:
    """A stage run with settings off their defaults writes what the library
    call returns for a config holding those settings and the stage's seed."""

    @pytest.fixture
    def run(self, pipeline_dir, tmp_path):
        d = tmp_path / "run"
        shutil.copytree(pipeline_dir, d)
        return d

    @staticmethod
    def artifact(path):
        doc = load_json(path)
        doc.pop("_meta")
        return doc

    @staticmethod
    def inputs(run):
        names, queries = read_rankfeat(run / "rankfeat.json")
        k = load_json(run / "cluster_eval.json")["k"]
        return names, queries, read_communities(run / "communities.tsv", k)[0]

    def test_train_ranker(self, run, tmp_path):
        assert run_cli(["train-ranker", "--in", run, "--out", run, "--seed", "3",
                        "--restarts", "1", "--threshold", "3"]) == 0
        names, queries, assignment = self.inputs(run)
        rset = ranker.train_communitized(queries, assignment, names,
                                         PipelineConfig(restarts=1, threshold=3),
                                         fork_seed(3, "train-ranker"))
        ranker.write_rankerset(rset, tmp_path / "lib", {})
        written = sorted(p.name for p in (tmp_path / "lib").iterdir())
        assert written == sorted(p.name for p in run.glob("model_*.json")) + ["rankerset.json"]
        for name in written:
            assert self.artifact(run / name) == self.artifact(tmp_path / "lib" / name), name
        assert self.artifact(run / "rankerset.json")["threshold"] == 3

    def test_evaluate_cv(self, run):
        assert run_cli(["evaluate", "--in", run, "--out", run, "--seed", "3",
                        "--mode", "cv", "--folds", "3", "--restarts", "1"]) == 0
        names, queries, assignment = self.inputs(run)
        report = evaluation.cross_validate_ranking(
            queries, names, assignment, PipelineConfig(folds=3, restarts=1),
            fork_seed(3, "evaluate"))
        assert self.artifact(run / "report.json") == json.loads(json.dumps(report.to_dict()))
        assert report.settings["restarts"] == 1

    def test_evaluate_missing_rpf(self, run):
        assert run_cli(["evaluate", "--in", run, "--out", run, "--seed", "3",
                        "--mode", "missing-rpf", "--fraction", "0.2", "--sim-folds", "2",
                        "--restarts", "1"]) == 0
        names, queries, _ = self.inputs(run)
        fm = features_from_dict(load_json(run / "features.json"))
        report = evaluation.simulate_missing_rpf(
            fm, queries, names, PipelineConfig(fraction=0.2, sim_folds=2, restarts=1),
            fork_seed(3, "evaluate-missing-rpf"))
        assert (self.artifact(run / "report_missing_rpf.json")
                == json.loads(json.dumps(report.to_dict())))
        assert report.settings["simulation"]["fraction"] == 0.2


# Each subcommand's options after --config/--seed/--in/--out, in order:
# (option, dest, type, default, required, choices).
COMMON_OPTIONS = [("--config", "config", None, None, False, None),
                  ("--seed", "seed", int, None, False, None),
                  ("--in", "in_dir", None, None, False, None),
                  ("--out", "out_dir", None, None, False, None)]
SIM_OPTIONS = [("--readers", "sim_readers", int, None, False, None),
               ("--alpha", "sim_alpha", float, None, False, None),
               ("--noise", "sim_noise", float, None, False, None)]
# simulate reads no input, and pipeline reads the corpus its simulate
# wrote, so neither takes --in
NO_IN = [option for option in COMMON_OPTIONS if option[0] != "--in"]
CLI_SURFACE = {
    "simulate": SIM_OPTIONS,
    "ingest": [],
    "featurize": [("--k-loc", "k_loc", int, None, False, None)],
    "graph-build": [("--metapaths", "metapath_file", None, None, False, None)],
    "rankfeat": [],
    "pipeline": [*SIM_OPTIONS,
                 ("--metapaths", "metapath_file", None, None, False, None),
                 ("--k", "cluster_k", int, None, False, None),
                 ("--folds", "folds", int, None, False, None),
                 ("--restarts", "restarts", int, None, False, None)],
    "cluster": [("--k", "cluster_k", int, None, False, None),
                ("--distance", "distance", None, None, False, None)],
    "train-community-classifier": [("--lambda", "lam", float, None, False, None)],
    "assign": [],
    "train-ranker": [("--restarts", "restarts", int, None, False, None),
                     ("--threshold", "threshold", int, None, False, None),
                     ("--metric", "metric", None, None, False, None)],
    "recommend": [("--paper", "paper", None, None, True, None),
                  ("--quote", "quote", None, None, True, None),
                  ("--reader", "reader", None, None, False, None),
                  ("--top", "top", int, 5, False, None)],
    "evaluate": [("--mode", "mode", None, "cv", False, ("cv", "missing-rpf")),
                 ("--folds", "folds", int, None, False, None),
                 ("--fraction", "fraction", float, None, False, None),
                 ("--sim-folds", "sim_folds", int, None, False, None),
                 ("--restarts", "restarts", int, None, False, None)],
}


def test_cli_surface_is_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        command: [(a.option_strings[0], a.dest, a.type, a.default, a.required, a.choices)
                  for a in sp._actions if not isinstance(a, argparse._HelpAction)]
        for command, sp in sub.choices.items()
    }
    assert list(surface) == list(CLI_SURFACE)
    for command, options in CLI_SURFACE.items():
        common = NO_IN if command in ("simulate", "pipeline") else COMMON_OPTIONS
        assert surface[command] == common + options, command


class TestParserReuse:
    """main parses every call of a process with the parser of its first call."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        """Stands in for every stage: records the flags it was called with."""
        seen = []
        for command in cli._STAGES:
            monkeypatch.setitem(cli._STAGES, command,
                                lambda cfg, args: seen.append(args) or "ok")
        return seen

    @staticmethod
    def argv(command, tmp_path, *extra):
        return [command, "--in", tmp_path, "--out", tmp_path, "--seed", "1", *extra]

    def test_main_builds_the_parser_once(self, parsed, tmp_path, monkeypatch, capsys):
        built = []

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        for command in ("ingest", "evaluate", "recommend"):
            extra = ("--paper", "p00", "--quote", "q") if command == "recommend" else ()
            assert run_cli(self.argv(command, tmp_path, *extra)) == 0
        assert len(parsed) == 3
        assert len(built) == 1

    @pytest.mark.parametrize("command, first, flags, defaults", [
        ("evaluate", (), ("--mode", "missing-rpf"), {"mode": "cv"}),
        ("recommend", ("--paper", "p00", "--quote", "q"),
         ("--reader", "r003", "--top", "9"), {"reader": None, "top": 5}),
    ])
    def test_no_flag_reaches_the_next_call(self, parsed, tmp_path, capsys, command,
                                           first, flags, defaults):
        assert run_cli(self.argv(command, tmp_path, *first, *flags)) == 0
        assert run_cli(self.argv(command, tmp_path, *first)) == 0
        assert {k: getattr(parsed[0], k) for k in defaults} != defaults
        assert {k: getattr(parsed[1], k) for k in defaults} == defaults

    def test_usage_error_after_a_call_is_unchanged(self, parsed, tmp_path, capsys):
        errors = []
        cli._parser.cache_clear()
        for _ in range(2):  # the first error comes from a new parser
            with pytest.raises(SystemExit) as exc:
                run_cli(self.argv("rankfeat", tmp_path, "--metapaths", "x"))
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
            assert run_cli(self.argv("rankfeat", tmp_path)) == 0
            capsys.readouterr()
        assert "unrecognized arguments: --metapaths x" in errors[0]
        assert errors[1] == errors[0]

    def test_help_is_that_of_a_new_parser(self, monkeypatch, capsys):
        # built at one width, formatted at another: the width is read late
        monkeypatch.setenv("COLUMNS", "50")
        cli._parser.cache_clear()
        cli._parser()
        monkeypatch.setenv("COLUMNS", "80")
        for argv in [["--help"], *([command, "--help"] for command in cli._STAGES)]:
            texts = []
            for parse in (main, build_parser().parse_args):
                with pytest.raises(SystemExit) as exc:
                    parse(argv)
                assert exc.value.code == 0
                texts.append(capsys.readouterr().out)
            assert texts[0].startswith("usage: oerrec")
            assert texts[0] == texts[1], argv


class TestReproducibility:
    def test_rerun_reproduces_report_bytes(self, pipeline_dir, capsys):
        before = {
            name: (pipeline_dir / name).read_bytes()
            for name in ("report.json", "rankerset.json", "communities.tsv",
                         "features.json", "events.jsonl")
        }
        assert run_cli(["pipeline", "--out", pipeline_dir, *PIPELINE_ARGS]) == 0
        capsys.readouterr()
        for name, blob in before.items():
            assert (pipeline_dir / name).read_bytes() == blob, name

    def test_different_seed_changes_report(self, pipeline_dir, tmp_path, capsys):
        other = ["pipeline", "--out", tmp_path, "--seed", "4",
                 "--readers", "15", "--folds", "3", "--restarts", "2"]
        assert run_cli(other) == 0
        capsys.readouterr()
        assert (
            (tmp_path / "events.jsonl").read_bytes()
            != (pipeline_dir / "events.jsonl").read_bytes()
        )

    def test_stage_artifacts_keep_their_pinned_bytes(self, tmp_path, monkeypatch, capsys):
        """Every artifact of `ingest`..`rankfeat` on a `simulate --seed 7
        --readers 60` corpus keeps the sha256 it had before the location PAM,
        the JSON writer, the walk memo and the event parser were made faster.
        Paths are relative, so the `_meta` overrides are the same in any
        directory."""
        monkeypatch.chdir(tmp_path)
        assert run_cli(["simulate", "--out", "corpus", "--seed", "7", "--readers", "60"]) == 0
        for stage in ("ingest", "featurize", "cluster", "train-community-classifier",
                      "assign", "graph-build", "rankfeat"):
            assert run_cli([stage, "--in", "corpus", "--out", "run", "--seed", "7"]) == 0
        capsys.readouterr()
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted((tmp_path / "run").iterdir())}
        assert digests == PINNED_SEED7_ARTIFACTS


    def test_profileless_readers_keep_their_pinned_bytes(self, tmp_path, monkeypatch, capsys):
        """With every 4th `readers.jsonl` line dropped, `cluster` clusters a
        subset of the readers and `assign` predicts the rest; the clustering
        and classifier artifacts keep the sha256 they had when the subset was
        a copied `FeatureMatrix`."""
        monkeypatch.chdir(tmp_path)
        assert run_cli(["simulate", "--out", "corpus", "--seed", "7", "--readers", "60"]) == 0
        profiles = tmp_path / "corpus" / "readers.jsonl"
        lines = profiles.read_text().splitlines(keepends=True)
        profiles.write_text("".join(l for i, l in enumerate(lines) if i % 4 != 3))
        for stage in ("ingest", "featurize", "cluster", "train-community-classifier",
                      "assign"):
            assert run_cli([stage, "--in", "corpus", "--out", "run", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "assign: 60 readers (15 predicted)" in out
        digests = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
                   for name in PINNED_PROFILELESS_ARTIFACTS}
        assert digests == PINNED_PROFILELESS_ARTIFACTS


# sha256 of each artifact of `ingest`..`rankfeat` at master seed 7 on the
# `simulate --seed 7 --readers 60` corpus, `--in corpus --out run`.
PINNED_SEED7_ARTIFACTS = {
    "cluster_eval.json": "b2b0cd0064911fb6dd8541da36bdbf570582379452b8a40380c2556a14425da2",
    "communities.tsv": "cacd96b6572a8b750b1a865eff8cdd60f5616d7a78d5319d39d39f1227fabf61",
    "edges.tsv": "65be86bd60b50119ab33dcad24b58cb8b4e6db4b8b383bcf50f8da3d70dee3af",
    "events.jsonl": "a83b0d919604961396c8447dbb6c20990bbca4e80ccb40e3e4310ec6c9ee70a2",
    "features.json": "9396f455765f1b13cfa8dfe50ffc7bd9a7e2bc420ade5c0ce425b51f614134da",
    "graph_stats.json": "27ce6e4409879eb21195f0c650e023f252e79176d9ac483ceb30f38b189dc822",
    "judgments.tsv": "700a9ca2407de8b26fa1631ff8b76017cfd2e81838842a796d3cf6c4cc0c8477",
    "maxent.json": "3eb81a3c5b49fb7025aa8cb4facb74d5a68bc9c94022d21e992cb23ffadfef4d",
    "metapaths.json": "d8eeae8d8fc99547e0d2d832711af6e8364f49f013ff433e3683edffe4b1a2be",
    "oers.jsonl": "a8de90e6c30efd31162e06f1044af94b1408340be7f73ae698af372d05b6198e",
    "rankfeat.json": "068a70997b4c7e6eca76a9317f626cf7f0b7e661dfc58a59d7a0490763f4aa2b",
    "readers.jsonl": "7811520b3c52031a14b89305941b6bccd220908ea9dd7111b270ea10626f858f",
    "run_config.json": "8e0ad5a72ca5d368a0dbed068d03d4d79f340b6b9435bc058a64da42eadcef8d",
    "validation.json": "6aa7a4570392d3025ccceb95f28743bcbc79c9a3df87b30b3f333f062218e508",
    "vertices.tsv": "f0314b19aeea35089497bd9b884db733583b36326d5198de36e0d60707f38755",
}


# sha256 of the clustering and classifier artifacts at master seed 7 on the
# `simulate --seed 7 --readers 60` corpus with every 4th profile line dropped.
PINNED_PROFILELESS_ARTIFACTS = {
    "features.json": "bfcf9999fd6c1dae3ddee30fe21f720aca273ffb39ab36299c35cbd664d7ceb4",
    "cluster_eval.json": "6fd6e31eb253b2e1a85cbeae253f7fe2dfaf3ccd155d056b6457cf13939a2d0e",
    "communities.tsv": "909c30cd6949b0cac219e4d045e162a53193e6e36be96771b95c9e1b07dcc124",
    "maxent.json": "a86b58b594844c7a24c04cd705a632836435d0ac0db864a6f97d43ac864f497b",
}


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "oerrec.cli", "simulate",
         "--out", str(tmp_path), "--seed", "1", "--readers", "6"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "simulate: 6 readers" in proc.stdout
