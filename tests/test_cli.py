"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_architecture, build_workload, main


class TestBuilders:
    def test_build_workload(self):
        wl = build_workload("conv1d", ["K=4", "C=4", "P=14", "R=3"])
        assert wl.dims == {"K": 4, "C": 4, "P": 14, "R": 3}

    def test_build_workload_lowercase_dims(self):
        wl = build_workload("mttkrp", ["i=8", "k=8", "l=8", "j=4"])
        assert wl.dims["I"] == 8

    def test_missing_dims_rejected(self):
        with pytest.raises(SystemExit, match="missing"):
            build_workload("conv1d", ["K=4"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            build_workload("fft", [])

    def test_bad_dim_syntax_rejected(self):
        with pytest.raises(SystemExit, match="DIM=SIZE"):
            build_workload("conv1d", ["K4"])

    def test_build_architecture(self):
        assert build_architecture("simba").name == "simba-like"
        with pytest.raises(SystemExit, match="unknown architecture"):
            build_architecture("tpu")

    def test_build_architecture_from_config_file(self):
        arch = build_architecture("configs/simba.json")
        assert arch.name == "simba-like"
        assert arch.num_levels == 4

    def test_missing_config_file(self):
        with pytest.raises(SystemExit, match="cannot read"):
            build_architecture("no/such/file.json")

    @pytest.mark.parametrize("path,value,field", [
        (("levels", 0, "capacity_words", "weight"), "x", "capacity_words"),
        (("levels", 1, "fanout"), 2.5, "fanout"),
        (("levels", 0, "name"), None, "name"),
        (("levels", 0, "component", "word_bits"), True,
         "level 'Regs' component word_bits"),
    ])
    def test_malformed_config_file_exits_naming_the_field(
            self, tmp_path, path, value, field):
        """A malformed field (or a missing one: ``None`` deletes it) exits
        with the parser's message instead of a traceback."""
        with open("configs/simba.json", encoding="utf-8") as handle:
            doc = json.load(handle)
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        with pytest.raises(SystemExit, match=field):
            build_architecture(str(config))


class TestCommands:
    def test_schedule_command(self, capsys, tmp_path):
        out = str(tmp_path / "m.json")
        code = main([
            "schedule", "--workload", "conv1d", "--arch", "tiny",
            "--output", out, "K=4", "C=4", "P=14", "R=3",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "EDP" in captured
        assert "candidates evaluated" in captured
        with open(out) as handle:
            doc = json.load(handle)
        assert doc["workload"]["name"] == "conv1d"

    def test_evaluate_command(self, capsys, tmp_path):
        out = str(tmp_path / "m.json")
        main(["schedule", "--workload", "conv1d", "--arch", "tiny",
              "--output", out, "K=4", "C=4", "P=14", "R=3"])
        capsys.readouterr()
        code = main(["evaluate", out, "--json"])
        assert code == 0
        captured = capsys.readouterr().out
        assert '"valid": true' in captured

    def test_describe_arch(self, capsys):
        assert main(["describe", "--arch", "simba"]) == 0
        assert "GlobalBuf" in capsys.readouterr().out

    def test_describe_workload(self, capsys):
        code = main(["describe", "--workload", "conv1d",
                     "K=4", "C=4", "P=14", "R=3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reused by" in out

    def test_compare_command(self, capsys):
        code = main([
            "compare", "--workload", "conv1d", "--arch", "tiny",
            "--mappers=cosa", "K=4", "C=4", "P=14", "R=3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sunstone" in out
        assert "cosa-like" in out


class TestSparsityFlags:
    ARGS = ["--workload", "mmc", "--arch", "tiny",
            "I=8", "J=8", "K=8", "L=8"]

    def test_schedule_with_sparsity(self, capsys):
        code = main(["schedule", *self.ARGS,
                     "--density", "A=0.05", "--format", "A=bitmask",
                     "--saf", "B=gating"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sparsity: A: d=0.05 bitmask/skipping" in out
        assert "B: d=1 coordinate/gating" in out

    def test_density_one_matches_dense_run(self, capsys):
        assert main(["schedule", *self.ARGS]) == 0
        dense = capsys.readouterr().out
        assert main(["schedule", *self.ARGS, "--density", "A=1.0",
                     "--format", "A=rle"]) == 0
        degenerate = capsys.readouterr().out
        line = next(l for l in dense.splitlines() if "energy" in l)
        assert line in degenerate

    def test_unknown_tensor_rejected(self):
        with pytest.raises(SystemExit, match="unknown tensors"):
            main(["schedule", *self.ARGS, "--density", "Z=0.1"])

    def test_bad_density_rejected(self):
        with pytest.raises(SystemExit, match="not a number"):
            main(["schedule", *self.ARGS, "--density", "A=dense"])

    def test_compare_accepts_sparsity(self, capsys):
        code = main(["compare", *self.ARGS, "--mappers=cosa",
                     "--density", "A=0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sunstone" in out and "cosa-like" in out


class TestStatsJson:
    def test_schedule_stats_json(self, capsys, tmp_path):
        path = tmp_path / "stats.json"
        code = main(["schedule", "--workload", "conv1d", "--arch", "tiny",
                     "--stats-json", str(path),
                     "K=4", "C=4", "P=14", "R=3"])
        assert code == 0
        assert f"stats saved to {path}" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["command"] == "schedule"
        assert doc["workload"] == "conv1d"
        assert doc["cost"]["valid"] is True
        assert doc["cost"]["energy_pj"] > 0
        assert doc["mapping"]["levels"]
        assert doc["search"]["evaluations"] > 0
        assert 0.0 <= doc["search"]["hit_rate"] <= 1.0

    def test_schedule_stats_json_records_sparsity(self, tmp_path):
        path = tmp_path / "stats.json"
        main(["schedule", "--workload", "mmc", "--arch", "tiny",
              "--stats-json", str(path), "--density", "A=0.05",
              "I=8", "J=8", "K=8", "L=8"])
        doc = json.loads(path.read_text())
        assert "A: d=0.05" in doc["sparsity"]

    def test_compare_stats_json(self, tmp_path):
        path = tmp_path / "stats.json"
        code = main(["compare", "--workload", "conv1d", "--arch", "tiny",
                     "--mappers=cosa", "--stats-json", str(path),
                     "K=4", "C=4", "P=14", "R=3"])
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["command"] == "compare"
        names = [entry["mapper"] for entry in doc["mappers"]]
        assert "sunstone" in names and "cosa-like" in names
        sunstone = next(e for e in doc["mappers"] if e["mapper"] == "sunstone")
        assert sunstone["found"] is True
        assert sunstone["cost"]["energy_pj"] > 0

    def test_network_stats_json(self, capsys, tmp_path):
        model = tmp_path / "net.json"
        model.write_text(json.dumps({"name": "toy", "layers": [
            {"type": "conv2d", "name": "c1",
             "dims": {"N": 1, "K": 4, "C": 4, "P": 7, "Q": 7,
                      "R": 3, "S": 3}},
        ]}))
        path = tmp_path / "stats.json"
        code = main(["network", str(model), "--arch", "tiny",
                     "--stats-json", str(path)])
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["command"] == "network"
        assert doc["totals"]["energy_pj"] > 0
        assert len(doc["layers"]) == 1
        assert doc["layers"][0]["cost"]["valid"] is True
