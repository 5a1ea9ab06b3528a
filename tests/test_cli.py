import json

import numpy as np

from moelab.cli import main


def run(argv):
    return main(argv)


class TestCapacityCommand:
    def test_json_query(self, tmp_path, capsys):
        out = tmp_path / "cap.json"
        code = run(["capacity", "--delta", "0.03", "--dim", "4096",
                    "--experts", "16", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["tool"] == "moelab"
        assert payload["config"]["delta"] == 0.03
        result = payload["result"]
        assert 0.0 < result["p_delta"] < 1.0
        assert result["erfc_bound"] > result["exp_bound"]

    def test_grid_writes_csv_with_requested_rows(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run(["capacity", "--grid", "0.01:0.5:50", "--dim", "512",
                    "--experts", "16", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 51  # header + 50 grid rows
        assert lines[0].startswith("delta,")
        assert (tmp_path / "curve.csv.meta.json").exists()
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_missing_dim_is_usage_error(self, capsys):
        assert run(["capacity", "--delta", "0.1", "--experts", "8"]) == 2
        assert "dim" in capsys.readouterr().err

    def test_mc_cross_check_embedded(self, tmp_path):
        out = tmp_path / "cap.json"
        code = run(["capacity", "--delta", "0.25", "--dim", "16", "--experts", "4",
                    "--mc-samples", "20000", "--seed", "3", "--out", str(out)])
        assert code == 0
        mc = json.loads(out.read_text())["result"]["mc_p_delta"]
        assert mc["n_samples"] == 20000
        assert mc["z_vs_analytic"] <= 4.0

    def test_stdout_when_no_out(self, capsys):
        assert run(["capacity", "--delta", "0.1", "--dim", "64", "--experts", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["p_delta"] > 0


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        assert run(["verify", "--only", "cap-identity"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_failure_exits_one(self, capsys):
        assert run(["verify", "--only", "cap-identity", "--inject-failure"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_suite(self, capsys):
        assert run(["verify", "--only", "bogus"]) == 1
        assert "unknown check" in capsys.readouterr().err


class TestRouteSimCommand:
    def test_csv_shape_and_balance(self, tmp_path):
        out = tmp_path / "route.csv"
        code = run(["route-sim", "--router", "block", "--tokens", "20000",
                    "--dim", "64", "--experts", "8", "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "expert,assigned,served,dropped,f,P"
        assert len(lines) == 9
        fs = [float(line.split(",")[4]) for line in lines[1:]]
        assert abs(sum(fs) - 1.0) < 1e-9

    def test_capacity_factor_drops_tokens(self, tmp_path):
        out = tmp_path / "route.csv"
        code = run(["route-sim", "--router", "switch", "--tokens", "4000",
                    "--dim", "32", "--experts", "8", "--capacity-factor", "0.5",
                    "--seed", "4", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        dropped = sum(int(r[3]) for r in rows)
        served = sum(int(r[2]) for r in rows)
        cap = 250  # ceil(4000 * 0.5 / 8)
        assert all(int(r[2]) <= cap for r in rows)
        assert dropped + served == 4000

    def test_histograms_artifact(self, tmp_path):
        out = tmp_path / "route.csv"
        code = run(["route-sim", "--router", "block", "--tokens", "500", "--dim", "16",
                    "--experts", "4", "--histograms", "--seed", "1", "--out", str(out)])
        assert code == 0
        hist = tmp_path / "route.histograms.csv"
        assert hist.exists()
        assert hist.read_text().splitlines()[0] == "kind,expert_i,expert_j,bin_lo,bin_hi,count"


class TestTrainToyCommand:
    def test_writes_records_report_and_volumes(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run(["train-toy", "--router", "loc", "--epochs", "3",
                    "--tokens-per-cluster", "64", "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        for col in ("epoch", "step", "router", "l_aux", "l_loc", "l_cross", "l_task",
                    "locality_fraction"):
            assert col in header
        assert (tmp_path / "run.report.csv").exists()
        assert (tmp_path / "run.volumes.csv").exists()
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert meta["seed"] == 2
        assert meta["config"]["router"] == "loc"

    def test_config_values_must_have_the_flag_type(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        out = tmp_path / "run.csv"
        for bad in ({"epochs": "5"}, {"epochs": 2.0}, {"epochs": True}, {"lr": "1"}):
            config.write_text(json.dumps(bad))
            assert run(["train-toy", "--config", str(config), "--out", str(out)]) == 2
            assert "is not of type" in capsys.readouterr().err
            assert not out.exists()
        # an int serves a float flag and is recorded as given
        config.write_text(json.dumps({"lr": 1, "epochs": 1, "tokens-per-cluster": 16}))
        assert run(["train-toy", "--router", "hash", "--config", str(config),
                    "--out", str(out)]) == 0
        meta = (tmp_path / "run.csv.meta.json").read_text()
        assert '"lr": 1,' in meta

    def test_divergence_is_a_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        with np.errstate(all="ignore"):
            code = run(["train-toy", "--router", "switch", "--lr", "1e9", "--epochs", "20",
                        "--tokens-per-cluster", "64", "--out", str(out)])
        assert code == 1
        assert "error: non-finite objective" in capsys.readouterr().err
        assert not out.exists()

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        args = ["train-toy", "--router", "hash", "--epochs", "1",
                "--tokens-per-cluster", "32", "--seed", "0", "--out", str(out)]
        assert run(args) == 0
        assert run(args) == 2
        assert "force" in capsys.readouterr().err
        assert run(args + ["--force"]) == 0


class TestCommSimCommand:
    def _volumes_from_run(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run(["train-toy", "--router", "loc", "--epochs", "2",
                    "--tokens-per-cluster", "64", "--seed", "2", "--out", str(out)]) == 0
        return tmp_path / "run"

    def test_degenerate_group_equals_plain(self, tmp_path):
        prefix = self._volumes_from_run(tmp_path)
        out = tmp_path / "comm.csv"
        code = run(["comm-sim", "--volumes", f"from-run:{prefix}",
                    "--tp-group", "1", "--out", str(out)])
        assert code == 0
        header, row = [line.split(",") for line in out.read_text().splitlines()]
        plain = float(row[header.index("plain_alltoall_s")])
        grouped = float(row[header.index("groupwise_total_s")])
        assert plain == grouped

    def test_topology_file_and_group(self, tmp_path):
        prefix = self._volumes_from_run(tmp_path)
        topo_file = tmp_path / "topo.json"
        topo_file.write_text(json.dumps({
            "n_nodes": 2, "devices_per_node": 8,
            "intra_bw": 100e9, "inter_bw": 25e9,
            "intra_latency": 10e-6, "inter_latency": 30e-6,
        }))
        out = tmp_path / "comm.csv"
        code = run(["comm-sim", "--volumes", f"from-run:{prefix}",
                    "--topology", str(topo_file), "--tp-group", "8",
                    "--out", str(out)])
        assert code == 0
        header, row = [line.split(",") for line in out.read_text().splitlines()]
        assert float(row[header.index("input_bytes")]) > 0

    def test_missing_volumes_is_usage_error(self, tmp_path, capsys):
        assert run(["comm-sim", "--out", str(tmp_path / "c.csv")]) == 2
        assert "volumes" in capsys.readouterr().err

    def test_malformed_json_inputs_are_usage_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = str(tmp_path / "c.csv")
        for argv in (
            ["comm-sim", "--config", str(bad), "--out", out],
            ["comm-sim", "--topology", str(bad), "--volumes", "v.csv", "--out", out],
            ["comm-sim", "--compare-routers", "--placement", str(bad), "--out", out],
        ):
            assert run(argv) == 2
            assert "not valid JSON" in capsys.readouterr().err

    def test_compare_routers_meta_records_tokens_per_cluster(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert run(["comm-sim", "--compare-routers", "--epochs", "1",
                    "--tokens-per-cluster", "16", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "cmp.csv.meta.json").read_text())
        assert meta["config"]["tokens_per_cluster"] == 16

    def test_compare_routers_pipeline(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run(["comm-sim", "--compare-routers", "--epochs", "6",
                    "--tokens-per-cluster", "128", "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 4  # header + hash + switch + loc
        for col in ("router", "entropy", "locality_fraction", "plain_alltoall_s",
                    "groupwise_alltoall_s"):
            assert col in header
        rows = {r.split(",")[0]: r.split(",") for r in lines[1:]}
        loc_col = header.index("locality_fraction")
        assert float(rows["loc"][loc_col]) >= float(rows["switch"][loc_col])


class TestDeterminism:
    def test_train_toy_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        for where in (a, b):
            code = run(["train-toy", "--router", "loc", "--epochs", "4",
                        "--tokens-per-cluster", "64", "--seed", "11",
                        "--out", str(where / "run.csv")])
            assert code == 0
        for name in ("run.csv", "run.report.csv", "run.volumes.csv", "run.csv.meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_capacity_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("x.json", "y.json"):
            path = tmp_path / name
            assert run(["capacity", "--delta", "0.1", "--dim", "256",
                        "--experts", "8", "--mc-samples", "10000",
                        "--seed", "5", "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_route_sim_reruns_are_byte_identical(self, tmp_path):
        blobs = []
        for name in ("r1.csv", "r2.csv"):
            path = tmp_path / name
            assert run(["route-sim", "--router", "block", "--tokens", "2000",
                        "--dim", "32", "--experts", "8", "--noise-std", "0.1",
                        "--seed", "6", "--out", str(path)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
