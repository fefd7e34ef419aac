import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from graphprod.classify import (labeled_graph_to_json, raag_label,
                                uniform_labeled)
from graphprod.cli import main
from graphprod.graphs import (cycle_graph, edgeless_graph, petersen_graph,
                              to_graph6)

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def load_schema(name):
    with open(SCHEMA_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def validate(obj, schema_name):
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(obj, load_schema(schema_name))


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def write_labeled(tmp_path, name, g, label=None):
    lg = uniform_labeled(g, label or raag_label())
    path = tmp_path / name
    path.write_text(json.dumps(labeled_graph_to_json(lg)))
    return str(path)


class TestAnalyze:
    def test_square_report(self, capsys):
        code, out = run_cli(["analyze", "--graph6", to_graph6(cycle_graph(4))],
                            capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["strongly_reduced"] is False
        assert len(obj["join_parts"]) == 2
        validate(obj, "analyze.schema.json")

    def test_labeled_theorem_matrix(self, capsys, tmp_path):
        path = write_labeled(tmp_path, "c5.json", cycle_graph(5))
        code, out = run_cli(["analyze", "--labels", path], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["theorems"]["A"]["ok"] is True
        validate(obj, "analyze.schema.json")

    def test_dot_output(self, capsys):
        code, out = run_cli(["analyze", "--graph6", to_graph6(cycle_graph(4)),
                             "--dot"], capsys)
        assert code == 0 and out.startswith("graph g {") and "0 -- 1;" in out

    def test_64_vertices(self, capsys):
        # n = 63 and 64 need graph6's long size header
        from graphprod.graphs import from_graph6
        from graphprod.verify import random_graph
        for n in (63, 64):
            g = random_graph(n, 0.1, 1)
            start = time.perf_counter()
            code, out = run_cli(["analyze", "--graph6", to_graph6(g)], capsys)
            assert time.perf_counter() - start < 1.0
            obj = json.loads(out)
            assert code == 0 and obj["n"] == n
            assert from_graph6(obj["graph6"]).adj == g.adj

    def test_girth_null_for_forest(self, capsys):
        from graphprod.graphs import path_graph
        code, out = run_cli(["analyze", "--graph6", to_graph6(path_graph(4))],
                            capsys)
        assert json.loads(out)["girth"] is None


class TestClassify:
    def test_distinct(self, capsys, tmp_path):
        a = write_labeled(tmp_path, "a.json", cycle_graph(5))
        b = write_labeled(tmp_path, "b.json", cycle_graph(6))
        code, out = run_cli(["classify", a, b], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "DistinctCertified" and obj["theorem"] == "Cor-RAAG"
        validate(obj, "verdict.schema.json")

    def test_require_decision_exit(self, capsys, tmp_path):
        a = write_labeled(tmp_path, "a.json", cycle_graph(4))
        b = write_labeled(tmp_path, "b.json", cycle_graph(4))
        code, out = run_cli(["classify", a, b, "--require-decision"], capsys)
        assert code == 1
        assert json.loads(out)["kind"] == "Undecided"

    def test_parse_error_names_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 5, "edges": [[0, 1],')
        good = write_labeled(tmp_path, "g.json", cycle_graph(5))
        code = main(["classify", str(bad), good])
        err = capsys.readouterr().err
        assert code == 2 and "byte offset" in err


class TestWords:
    def test_reduce_text(self, capsys):
        code, out = run_cli(["words", "--graph6", to_graph6(
            cycle_graph(3)), "reduce", "0", "1", "0"], capsys)
        assert code == 0
        # in a triangle all generators commute pairwise: 0 1 0 -> 1
        assert out.strip() == "[1] length 1"

    def test_reduce_json_schema(self, capsys):
        code, out = run_cli(["words", "--graph6", to_graph6(cycle_graph(5)),
                             "reduce", "1", "0", "--format", "json"], capsys)
        obj = json.loads(out)
        assert obj["word"] == [0, 1]
        validate(obj, "words.schema.json")

    def test_member(self, capsys):
        code, out = run_cli(["words", "--graph6", to_graph6(cycle_graph(5)),
                             "member", "1", "3", "--set", "1,3"], capsys)
        assert out.strip() == "member"

    def test_enumerate(self, capsys):
        code, out = run_cli(["words", "--graph6", to_graph6(cycle_graph(5)),
                             "enumerate", "--max-len", "2", "--format", "json"],
                            capsys)
        obj = json.loads(out)
        assert obj["count"] == 21
        validate(obj, "words.schema.json")

    def test_intersection(self, capsys):
        code, out = run_cli(["words", "--graph6", to_graph6(cycle_graph(5)),
                             "intersection", "--left", "0,1", "--right", "1,2",
                             "--max-len", "6"], capsys)
        assert out.strip() == "holds"

    def test_enumerate_cap(self, capsys):
        # the 5-cycle has 21 elements of length <= 2
        argv = ["words", "--graph6", to_graph6(cycle_graph(5)), "enumerate",
                "--max-len", "2", "--cap"]
        assert main(argv + ["20"]) == 3
        got = capsys.readouterr()
        assert got.out == "" and got.err.startswith("cap exceeded")
        code, out = run_cli(argv + ["21"], capsys)
        assert code == 0 and out.startswith("21 elements")

    def test_intersection_cap(self, capsys):
        # the ball over all five letters of the edgeless graph is 27,306 long
        argv = ["words", "--graph6", to_graph6(edgeless_graph(5)),
                "intersection", "--left", "0", "--right", "0,1,2,3,4",
                "--max-len", "7", "--cap"]
        assert main(argv + ["1000"]) == 3
        got = capsys.readouterr()
        assert got.out == "" and got.err.startswith("cap exceeded")
        code, out = run_cli(argv + ["27306"], capsys)
        assert code == 0 and out.strip() == "holds"

    def test_bad_letters(self, capsys):
        code = main(["words", "--graph6", to_graph6(cycle_graph(5)),
                     "reduce", "zero"])
        assert code == 2


class TestEnumerateVerifySample:
    def test_enumerate_counts(self, capsys):
        code, out = run_cli(["enumerate", "--n", "5", "--emit"], capsys)
        obj = json.loads(out)
        assert obj["count"] == 34 and len(obj["graph6"]) == 34
        validate(obj, "enumerate.schema.json")

    def test_verify_report(self, capsys):
        code, out = run_cli(["verify", "--lemma",
                             "girth-implies-transvection-free", "--max-n", "5"],
                            capsys)
        obj = json.loads(out)
        assert code == 0 and obj["counterexample_total"] == 0
        validate(obj, "verify.schema.json")

    def test_verify_negative_control(self, capsys):
        code, out = run_cli(["verify", "--lemma",
                             "collapsible-is-component-union", "--max-n", "4",
                             "--drop-hypothesis"], capsys)
        obj = json.loads(out)
        assert obj["counterexample_total"] > 0
        validate(obj, "verify.schema.json")

    def test_sample_schema_and_determinism(self, capsys):
        args = ["sample", "--n", "12", "--p", "0.5", "--trials", "20",
                "--seed", "3"]
        code1, out1 = run_cli(args, capsys)
        code2, out2 = run_cli(args, capsys)
        assert code1 == code2 == 0 and out1 == out2
        validate(json.loads(out1), "sample.schema.json")

    def test_sample_invalid_p(self, capsys):
        assert main(["sample", "--n", "5", "--p", "1.0", "--trials", "5"]) == 2


class TestIso:
    def test_graph6_pair(self, capsys):
        g6 = to_graph6(cycle_graph(5))
        code, out = run_cli(["iso", "--graph6-a", g6, "--graph6-b", g6], capsys)
        obj = json.loads(out)
        assert obj["isomorphic"] and obj["witness"] == [0, 1, 2, 3, 4]
        validate(obj, "iso.schema.json")

    def test_labeled_pair(self, capsys, tmp_path):
        a = write_labeled(tmp_path, "a.json", cycle_graph(5))
        b = write_labeled(tmp_path, "b.json", cycle_graph(5))
        code, out = run_cli(["iso", "--labels-a", a, "--labels-b", b], capsys)
        assert json.loads(out)["isomorphic"]

    def test_none(self, capsys):
        code, out = run_cli(["iso", "--graph6-a", to_graph6(cycle_graph(5)),
                             "--graph6-b", to_graph6(cycle_graph(6))], capsys)
        obj = json.loads(out)
        assert not obj["isomorphic"] and obj["witness"] is None
        validate(obj, "iso.schema.json")


class TestErrorPaths:
    def test_oracle_disagreement_exit_4(self, capsys, monkeypatch):
        import graphprod.words as words_mod
        from graphprod.errors import OracleDisagreement

        def disagree(word, factors):
            raise OracleDisagreement("engine says member, oracle says not")

        monkeypatch.setattr(words_mod, "product_set_membership", disagree)
        code = main(["words", "--graph6", to_graph6(cycle_graph(5)),
                     "product", "0", "--sets", "0"])
        err = capsys.readouterr().err
        assert code == 4
        assert err == "oracle disagreement: engine says member, oracle says not\n"


class TestProcessLevel:
    def test_repeated_main_matches_fresh_processes(self, capsys, monkeypatch):
        # the parser is built once per process; later calls with other
        # subcommands must print and exit exactly as a fresh process does
        monkeypatch.setenv("COLUMNS", "80")  # same usage wrapping in both
        c5 = to_graph6(cycle_graph(5))
        runs = [
            ["analyze", "--graph6", to_graph6(petersen_graph())],
            ["words", "--graph6", c5, "reduce", "0", "1", "1"],
            ["enumerate", "--n", "4"],
            ["analyze", "--graph6", c5, "--dot"],
            ["words", "--graph6", c5, "reduce", "zero"],
            ["words", "--graph6", c5, "nonsense"],
            ["iso", "--graph6-a", c5, "--graph6-b", c5],
            ["analyze", "--graph6", c5],
        ]
        for argv in runs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            got = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "graphprod.cli", *argv],
                                   capture_output=True, text=True)
            assert (code, got.out, got.err) == \
                (fresh.returncode, fresh.stdout, fresh.stderr), argv


    def test_console_script_round_trip(self, tmp_path):
        g = petersen_graph()
        cmd = [sys.executable, "-m", "graphprod.cli", "analyze", "--graph6",
               to_graph6(g)]
        proc = subprocess.run(cmd, capture_output=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["graph6"] == to_graph6(g)

    def test_labeled_input_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        obj = labeled_graph_to_json(uniform_labeled(cycle_graph(5), raag_label()))
        jsonschema.validate(obj, load_schema("labeled_graph.schema.json"))
