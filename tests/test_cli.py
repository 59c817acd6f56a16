"""Command-line interface: dispatch, formats, determinism, exit codes."""

from __future__ import annotations

import json
import math

import pytest

from lltkit import iid_sum, make_pmf
from lltkit.bounds import BoundReport, ConstantsRegistry
from lltkit.cli import main
from lltkit.gamkrelidze import WINDOW_CAP


@pytest.fixture
def bern_file(tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]}))
    return str(path)


@pytest.fixture
def scenery_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "x_law": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
                "increments": {"v0": 0, "D": 1, "probs": [[1, 1], [2, 1]]},
                "n": 4,
                "vartheta": 0.5,
            }
        )
    )
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestCharacteristics:
    def test_fair_bernoulli(self, capsys, bern_file):
        code, out = run_cli(capsys, ["characteristics", bern_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["theta"] == 0.5
        assert payload["delta"] == 1.0
        assert payload["variance"] == 0.25
        assert payload["span_multiple"] == 1

    def test_csv_and_json_hold_same_values(self, capsys, bern_file):
        _, out_json = run_cli(capsys, ["characteristics", bern_file])
        _, out_csv = run_cli(capsys, ["characteristics", bern_file, "--format", "csv"])
        payload = json.loads(out_json)
        header, row = out_csv.strip().split("\n")
        csv_vals = dict(zip(header.split(","), row.split(",")))
        for key, val in payload.items():
            assert float(csv_vals[key]) == float(val)


class TestLltBound:
    def test_single_point_exact_mode(self, capsys, bern_file):
        code, out = run_cli(
            capsys,
            ["llt-bound", bern_file, "--n", "64", "--kappa", "32", "--h", "0.25"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sandwich_ok"] is True
        assert payload["lower"] <= payload["exact"] <= payload["upper"]
        assert payload["exact"] == pytest.approx(math.comb(64, 32) / 2**64, rel=1e-12)
        assert payload["params"]["mode"] == "exact-plug-ins"
        assert payload["constants"]["c1"] == 4.0

    def test_bounded_mode_has_no_exact(self, capsys, bern_file):
        code, out = run_cli(
            capsys,
            ["llt-bound", bern_file, "--n", "64", "--kappa", "32", "--h", "0.25",
             "--mode", "bounded-plug-ins"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] is None
        assert payload["params"]["mode"] == "bounded-plug-ins"

    def test_sweep_all_rows_pass(self, capsys, bern_file):
        code, out = run_cli(
            capsys,
            ["llt-bound", bern_file, "--n", "64", "--kappa-from", "20",
             "--kappa-to", "44", "--h", "0.25"],
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 25
        assert all(r["sandwich_ok"] for r in rows)

    def test_empty_sweep_is_fine(self, capsys, bern_file):
        code, out = run_cli(
            capsys,
            ["llt-bound", bern_file, "--n", "8", "--kappa-from", "3.2",
             "--kappa-to", "3.8", "--h", "0.25"],
        )
        assert code == 0
        assert json.loads(out) == []

    def test_far_tail_gaussian_underflows_to_zero(self, capsys, bern_file):
        code, out = run_cli(
            capsys,
            ["llt-bound", bern_file, "--n", "8", "--kappa", "8", "--h", "0.25"],
        )
        assert code == 0  # far outside the bulk but still a valid lattice point

    @pytest.mark.parametrize("envelope", ["central", "psi"])
    def test_h_with_a_symmetric_envelope_exits_2(self, capsys, bern_file, envelope):
        # the symmetric envelopes take no deviation parameter; refused before the input is read
        code, out = run_cli(
            capsys,
            ["llt-bound", "missing.json", "--n", "1000", "--kappa", "500", "--h", "1.5",
             "--envelope", envelope],
        )
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error"
        assert "--h" in err["message"] and envelope in err["message"]
        code, _ = run_cli(capsys, ["llt-bound", bern_file, "--n", "1000", "--kappa", "500",
                                   "--envelope", envelope, "--mode", "bounded-plug-ins"])
        assert code == 0

    def test_central_envelope_hypothesis_failure_exits_1(self, capsys, bern_file):
        code, out = run_cli(
            capsys,
            ["llt-bound", bern_file, "--n", "4", "--kappa", "2",
             "--envelope", "central"],
        )
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "hypothesis-rejected"
        assert "log(theta_n)/theta_n" in err["message"]

    @pytest.mark.parametrize("mode", ["exact-plug-ins", "bounded-plug-ins"])
    @pytest.mark.parametrize("kappa", ["4.5", "nan"])
    def test_kappa_off_lattice_exits_1(self, capsys, bern_file, mode, kappa):
        code, out = run_cli(
            capsys, ["llt-bound", bern_file, "--n", "8", "--kappa", kappa, "--mode", mode]
        )
        assert code == 1
        assert "not on the sum lattice" in json.loads(out)["error"]["message"]

    def test_byte_identical_reruns(self, capsys, bern_file):
        argv = ["llt-bound", bern_file, "--n", "32", "--kappa", "16", "--h", "0.25"]
        _, out1 = run_cli(capsys, argv)
        _, out2 = run_cli(capsys, argv)
        assert out1 == out2

    def test_law_out_writes_pmf_schema(self, capsys, bern_file, tmp_path):
        law_path = tmp_path / "law.json"
        code, _ = run_cli(
            capsys,
            ["llt-bound", bern_file, "--n", "8", "--kappa", "4", "--h", "0.25",
             "--law-out", str(law_path)],
        )
        assert code == 0
        law = json.loads(law_path.read_text())
        assert law["D"] == 1.0 and law["v0"] == 0.0
        masses = dict((int(k), v) for k, v in law["probs"])
        assert masses[4] == pytest.approx(math.comb(8, 4) / 2**8, rel=1e-13)

    def test_law_out_unwritable_path_exits_2(self, capsys, bern_file, tmp_path):
        path = tmp_path / "no" / "such" / "law.json"
        code, out = run_cli(capsys, ["llt-bound", bern_file, "--n", "10", "--kappa", "5",
                                     "--law-out", str(path)])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error"
        assert err["message"].startswith(f"cannot write output file {path}")

    @pytest.mark.parametrize("mode, laws", [("exact-plug-ins", 3), ("bounded-plug-ins", 0)])
    def test_sweep_builds_each_law_once(self, capsys, bern_file, monkeypatch, mode, laws):
        # exact mode: the xi law and the B_n law for the plug-ins, then the
        # law of S_n for the exact values; bounded mode builds none
        import lltkit.bounds

        calls = []
        original = lltkit.bounds.sum_law
        monkeypatch.setattr(lltkit.bounds, "sum_law",
                            lambda parts: calls.append(parts) or original(parts))
        code, out = run_cli(capsys, ["llt-bound", bern_file, "--n", "400", "--mode", mode,
                                     "--kappa-from", "195", "--kappa-to", "205"])
        assert code == 0
        assert len(json.loads(out)) == 11
        assert len(calls) == laws

    def test_sweep_scans_summands_once(self, capsys, bern_file, monkeypatch):
        # the sum is validated once per request, not once per kappa point
        import lltkit.bounds

        calls = 0
        original = lltkit.bounds.theta

        def counting_theta(pmf):
            nonlocal calls
            calls += 1
            return original(pmf)

        monkeypatch.setattr(lltkit.bounds, "theta", counting_theta)
        n = 2000
        code, out = run_cli(
            capsys,
            ["llt-bound", bern_file, "--n", str(n), "--mode", "bounded-plug-ins",
             "--kappa-from", "995", "--kappa-to", "1005"],
        )
        assert code == 0
        assert len(json.loads(out)) == 11
        assert calls <= n + 10

    @pytest.mark.parametrize("side", ["--kappa-from", "--kappa-to"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_sweep_end_exits_2(self, capsys, bern_file, side, value):
        ends = {"--kappa-from": "20", "--kappa-to": "40", side: value}
        argv = ["llt-bound", bern_file, "--n", "64"] + [f"{k}={v}" for k, v in ends.items()]
        code, out = run_cli(capsys, argv)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error"
        assert "finite" in err["message"]

    @pytest.mark.parametrize("ends", [["--kappa-from", "20", "--kappa-to", "40"],
                                      ["--kappa-from", "20"], ["--kappa-to", "40"]])
    def test_kappa_with_sweep_exits_2(self, capsys, bern_file, ends):
        code, out = run_cli(capsys, ["llt-bound", bern_file, "--n", "64", "--kappa", "32"] + ends)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "input-error"

    @pytest.mark.parametrize("mode", ["exact-plug-ins", "bounded-plug-ins"])
    def test_sweep_above_cap_exits_2(self, capsys, bern_file, mode):
        code, out = run_cli(capsys, ["llt-bound", bern_file, "--n", "400", "--mode", mode,
                                     "--kappa-from", "0", "--kappa-to", "1e12"])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error"
        assert str(10**12 + 1) in err["message"] and str(WINDOW_CAP) in err["message"]

    def test_sweep_at_cap_runs(self, capsys, bern_file, monkeypatch):
        import lltkit.gamkrelidze

        monkeypatch.setattr(lltkit.gamkrelidze, "WINDOW_CAP", 5)
        argv = ["llt-bound", bern_file, "--n", "64", "--kappa-from", "30"]
        code, out = run_cli(capsys, argv + ["--kappa-to", "34"])
        assert code == 0 and len(json.loads(out)) == 5
        code, out = run_cli(capsys, argv + ["--kappa-to", "35"])
        assert code == 2 and "6 points" in json.loads(out)["error"]["message"]

    def test_csv_sweep_matches_json_values(self, capsys, bern_file):
        argv = ["llt-bound", bern_file, "--n", "16", "--kappa-from", "6",
                "--kappa-to", "10", "--h", "0.25"]
        _, out_json = run_cli(capsys, argv)
        _, out_csv = run_cli(capsys, argv + ["--format", "csv"])
        rows = json.loads(out_json)
        lines = out_csv.strip().split("\n")
        header = lines[0].split(",")
        for row, line in zip(rows, lines[1:]):
            cells = dict(zip(header, line.split(",")))
            for key in ("kappa", "exact", "gaussian", "lower", "upper"):
                assert float(cells[key]) == float(row[key])


class TestOtherCommands:
    def test_split_command(self, capsys, bern_file):
        code, out = run_cli(capsys, ["split", bern_file, "--vartheta", "0.25"])
        assert code == 0
        payload = json.loads(out)
        assert payload["vartheta"] == 0.25
        assert payload["xi_law"]["D"] == 0.5

    def test_split_rejects_bad_level(self, capsys, bern_file):
        code, out = run_cli(capsys, ["split", bern_file, "--vartheta", "0.9"])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "hypothesis-rejected"

    def test_gamkrelidze_command(self, capsys, bern_file):
        code, out = run_cli(capsys, ["gamkrelidze", bern_file, "--n", "32"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pointwise_check"]["pointwise_ok"] is True
        assert payload["extraction_bound"]["value"] >= payload["M"]

    def test_gamkrelidze_theta_zero_exits_1(self, capsys, tmp_path):
        # {0, 2} on L(0, 0.5) is not integer-valued, but the sum is prepared
        # first, and theta = 0 leaves no extraction level: a hypothesis fails
        path = tmp_path / "gap.json"
        path.write_text(json.dumps({"v0": 0, "D": 0.5, "probs": [[0, 1], [2, 1]]}))
        code, out = run_cli(capsys, ["gamkrelidze", str(path), "--n", "10"])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "hypothesis-rejected" and "extraction level" in err["message"]

    @pytest.mark.parametrize("flag", ["--a=nan", "--a=inf", "--a=-inf", "--b=inf"])
    def test_gamkrelidze_non_finite_centering_or_scale_exits_2(self, capsys, bern_file, flag):
        code, out = run_cli(capsys, ["gamkrelidze", bern_file, "--n", "64", flag])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error"
        assert "finite" in err["message"]

    @pytest.mark.parametrize("flag", ["--a=1e300", "--a=1e20", "--a=1e9", "--b=1e300"])
    def test_gamkrelidze_window_above_cap_exits_2(self, capsys, bern_file, flag):
        code, out = run_cli(capsys, ["gamkrelidze", bern_file, "--n", "64", flag])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error"
        assert "points" in err["message"] and str(WINDOW_CAP) in err["message"]

    @pytest.mark.filterwarnings("error")
    def test_gamkrelidze_subnormal_scale_runs_without_warnings(self, capsys, bern_file):
        # exp(-(k - a)^2 / (2 b)) overflows its exponent to -inf; the value 0 is right
        code, out = run_cli(capsys, ["gamkrelidze", bern_file, "--n", "64", "--b", "1e-320"])
        assert code == 0
        assert json.loads(out)["b_n"] == 1e-320

    def test_gamkrelidze_far_centering_within_cap_runs(self, capsys, bern_file):
        # a_n = 3e4 with b_n = Var S_64 = 16: the window runs from the support's
        # first point (P{S_64 = 0} = 2^-64 is below the error bound and dropped,
        # so the first atom of the computed law) to ceil(3e4 + 9.5 * 4) = 30038
        code, out = run_cli(capsys, ["gamkrelidze", bern_file, "--n", "64", "--a", "3e4"])
        assert code == 0
        table = json.loads(out)["d_table"]
        first = int(iid_sum(make_pmf(0.0, 1.0, [(0, 1), (1, 1)]), 64).atoms()[0][0])
        assert (table[0][0], table[-1][0], len(table)) == (first, 30038, 30039 - first)

    def test_scenery_moments_command(self, capsys, scenery_file):
        code, out = run_cli(capsys, ["scenery", scenery_file])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["identity_residual"]) < 1e-10

    def test_scenery_envelope_command(self, capsys, scenery_file):
        code, out = run_cli(capsys, ["scenery", scenery_file, "--kappa", "2", "--h", "0.25"])
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] <= payload["upper"]

    def test_scenery_reports_exact_value(self, capsys, scenery_file):
        # fair-coin scenery, n = 4 strictly positive steps: S_4 ~ Binomial(4, 1/2)
        for k in range(5):
            code, out = run_cli(
                capsys, ["scenery", scenery_file, "--kappa", str(k), "--h", "0.25",
                         "--mc", "2000", "--seed", "3"]
            )
            assert code == 0
            payload = json.loads(out)
            assert payload["exact"] == pytest.approx(math.comb(4, k) / 2**4, rel=1e-15)
            assert payload["sandwich_ok"] is (payload["lower"] <= payload["exact"]
                                              <= payload["upper"])
            assert payload["envelope_width"] == payload["upper"] - payload["lower"]
            assert "monte_carlo" in payload

    def test_scenery_refused_before_exact_law(self, capsys, tmp_path, monkeypatch):
        # a non-constant vartheta profile fails the envelope's hypotheses
        import lltkit.bounds

        def no_law(*args):
            raise AssertionError("exact law built for a refused model")

        monkeypatch.setattr(lltkit.bounds, "sum_law", no_law)
        path = tmp_path / "refused.json"
        path.write_text(json.dumps({"x_law": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
                                    "increments": {"v0": 0, "D": 1, "probs": [[1, 1], [2, 1]]},
                                    "n": 3, "vartheta": [[1, 0.5], [2, 0.4], [3, 0.3]]}))
        code, out = run_cli(capsys, ["scenery", str(path), "--kappa", "1", "--h", "0.25"])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "hypothesis-rejected"

    @pytest.mark.parametrize("mc, seed", [("0", "1"), ("-5", "1"), ("100", "-1")])
    def test_scenery_mc_bad_count_or_seed_exits_2(self, capsys, scenery_file, mc, seed):
        code, out = run_cli(
            capsys, ["scenery", scenery_file, "--kappa", "2", "--mc", mc, "--seed", seed]
        )
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "input-error"

    def test_scenery_mc_without_kappa_exits_2(self, capsys, scenery_file):
        code, out = run_cli(capsys, ["scenery", scenery_file, "--mc", "100"])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error" and "--kappa" in err["message"]

    def test_scenery_lazy_walk_model(self, capsys, tmp_path):
        # a walk that stays put: the moment check carries c_{h,k}, the
        # envelope refuses the walk as a failed hypothesis
        path = tmp_path / "lazy.json"
        path.write_text(json.dumps({"x_law": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
                                    "increments": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
                                    "n": 4, "vartheta": 0.5}))
        code, out = run_cli(capsys, ["scenery", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["c_sum"] > 0 and abs(payload["identity_residual"]) <= 1e-12
        code, out = run_cli(capsys, ["scenery", str(path), "--kappa", "2"])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "hypothesis-rejected"

    def test_scenery_mc_seed_zero_is_used(self, capsys, scenery_file):
        from lltkit import monte_carlo_point_prob, scenery_from_json

        code, out = run_cli(
            capsys, ["scenery", scenery_file, "--kappa", "2", "--mc", "5000", "--seed", "0"]
        )
        assert code == 0
        mc = json.loads(out)["monte_carlo"]
        assert mc["seed"] == 0
        with open(scenery_file, encoding="utf-8") as fobj:
            model = scenery_from_json(json.load(fobj))
        assert mc["p_hat"] == monte_carlo_point_prob(model, 2.0, samples=5000, seed=0).p_hat

    def test_scenery_profile_map_round_trip(self, capsys, tmp_path):
        path = tmp_path / "model_profile.json"
        path.write_text(
            json.dumps(
                {
                    "x_law": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
                    "increments": {"v0": 0, "D": 1, "probs": [[1, 1], [2, 1]]},
                    "n": 3,
                    "vartheta": [[r, 0.5 / (1 + 0.2 * r)] for r in range(1, 7)],
                }
            )
        )
        code, out = run_cli(capsys, ["scenery", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["identity_residual"]) < 1e-10

    def test_partition_command(self, capsys):
        code, out = run_cli(capsys, ["partition", "--m", "3", "--n", "10"])
        assert code == 0
        payload = json.loads(out)
        assert payload["q_model"] == payload["q_enum"] == 3

    def test_validate_command(self, capsys, bern_file):
        code, out = run_cli(capsys, ["validate", bern_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "reconstruction_pointwise" in names


class TestErrorsAndOverrides:
    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, out = run_cli(capsys, ["characteristics", str(bad)])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "input-error"

    def test_missing_file_exits_2(self, capsys):
        code, out = run_cli(capsys, ["characteristics", "/nonexistent/x.json"])
        assert code == 2

    def test_constants_env_override(self, capsys, bern_file, tmp_path, monkeypatch):
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps({"c0": 0.25, "ce": 1.0}))
        monkeypatch.setenv("LLT_CONSTANTS", str(consts))
        code, out = run_cli(
            capsys, ["llt-bound", bern_file, "--n", "32", "--kappa", "16", "--h", "0.25"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["constants"]["c0"] == 0.25
        assert payload["constants"]["ce"] == 1.0

    @pytest.mark.parametrize("command", ["llt-bound", "gamkrelidze"])
    @pytest.mark.parametrize("h", ["1.5", "0", "-0.25"])
    def test_h_out_of_range_exits_1(self, capsys, bern_file, command, h):
        argv = [command, bern_file, "--n", "64", "--h", h]
        if command == "llt-bound":
            argv += ["--kappa", "32"]
        code, out = run_cli(capsys, argv)
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "hypothesis-rejected"
        assert "0 < h < 1" in err["message"]

    @pytest.mark.parametrize("command", ["llt-bound", "gamkrelidze"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_no_summands_exits_2(self, capsys, bern_file, command, n):
        argv = [command, bern_file, "--n", n]
        if command == "llt-bound":
            argv += ["--kappa", "0"]
        code, out = run_cli(capsys, argv)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "input-error"

    @pytest.mark.parametrize(
        "override",
        [
            {"c0": "abc"},
            {"ce": -1},
            {"c1": 5},
            {"c0": True},
            {"ce": float("nan")},
            {"c0": 10**400},
            {"provenance": 3},
        ],
        ids=["c0-string", "ce-negative", "c1-derived", "c0-bool", "ce-nan", "c0-overflow",
             "provenance-number"],
    )
    def test_bad_constants_override_exits_2(self, capsys, bern_file, tmp_path, override):
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps(override))
        code, out = run_cli(
            capsys,
            ["--constants", str(consts), "llt-bound", bern_file, "--n", "32", "--kappa", "16",
             "--h", "0.25"],
        )
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "input-error"

    def test_bad_override_rejected_for_every_subcommand(self, capsys, tmp_path, monkeypatch):
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps({"ce": -1}))
        monkeypatch.setenv("LLT_CONSTANTS", str(consts))
        code, out = run_cli(capsys, ["partition", "--m", "3", "--n", "10"])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "input-error"

    def test_override_values_are_floats_with_provenance(self, capsys, bern_file, tmp_path):
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps({"c0": 1, "provenance": "pinned by hand"}))
        code, out = run_cli(
            capsys,
            ["--constants", str(consts), "llt-bound", bern_file, "--n", "32", "--kappa", "16",
             "--h", "0.25"],
        )
        assert code == 0
        constants = json.loads(out)["constants"]
        assert constants["c0"] == 1.0 and isinstance(constants["c0"], float)
        assert constants["provenance"] == "pinned by hand"


class TestSandwichVerdict:
    @staticmethod
    def _report(exact, err):
        return BoundReport(kappa=0.0, exact=exact, gaussian=0.5, lower=0.25, upper=0.75,
                           params={"h": 0.25}, exact_err=err)

    def test_holds_by_more_than_the_error(self):
        assert self._report(0.75 - 2e-12, 1e-12).sandwich_ok is True

    def test_fails_by_more_than_the_error(self):
        assert self._report(0.25 - 2e-12, 1e-12).sandwich_ok is False

    def test_undecided_within_the_error(self):
        for exact in (0.75 - 0.5e-12, 0.75 + 0.5e-12, 0.25, 0.25 - 0.5e-12):
            assert self._report(exact, 1e-12).sandwich_ok is None

    def test_no_exact_value_no_verdict(self):
        report = self._report(None, 0.0)
        assert report.sandwich_ok is None
        assert "sandwich_ok" not in report.row()

    def test_row_and_json_keys(self):
        report = self._report(0.5, 1e-12)
        assert report.row() == {"kappa": 0.0, "exact": 0.5, "gaussian": 0.5, "lower": 0.25,
                                "upper": 0.75, "envelope_width": 0.5, "sandwich_ok": True}
        out = report.to_json_dict(ConstantsRegistry())
        assert set(out) == set(report.row()) | {"lower_negative", "params", "constants"}
        assert out["lower_negative"] is False and out["params"] == {"h": 0.25}
        assert out["constants"] == ConstantsRegistry().to_json_dict()

    def test_exact_mode_passes_the_law_error(self, capsys, bern_file, monkeypatch):
        import lltkit.bounds as bounds

        seen = []
        original = bounds.sandwich_envelope

        def spy(*args, **kwargs):
            report = original(*args, **kwargs)
            seen.append(report.exact_err)
            return report

        monkeypatch.setattr(bounds, "sandwich_envelope", spy)
        run_cli(capsys, ["llt-bound", bern_file, "--n", "64", "--kappa", "32"])
        assert seen == [iid_sum(make_pmf(0.0, 1.0, [(0, 1), (1, 1)]), 64).err_abs]


class TestInputRules:
    @pytest.mark.parametrize("command, obj", [
        ("characteristics", {"v0": 0, "D": 1, "probs": [[0.5, 1], [1.5, 1]]}),
        ("scenery", {"x_law": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
                     "increments": {"v0": 0, "D": 1, "probs": [[1, 1]]},
                     "n": 3.7, "vartheta": 0.5}),
        ("scenery", {"x_law": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
                     "increments": {"v0": 0, "D": 1, "probs": [[1, 1]]},
                     "n": 2, "vartheta": [[1, 0.5], [1.9, 0.5]]}),
    ], ids=["pmf-index", "scenery-n", "profile-site"])
    def test_non_integral_number_exits_2(self, capsys, tmp_path, command, obj):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        code, out = run_cli(capsys, [command, str(path)])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error" and "must be an integer" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["llt-bound", "{coin}", "--n", "1000000000", "--kappa", "5"],
        ["partition", "--m", "1", "--n", "5000", "--mode", "model"],
        ["partition", "--m", "1", "--n", "60000", "--mode", "model"],
        ["partition", "--m", "1", "--n", "100000", "--mode", "model"],
    ], ids=["llt-bound", "partition", "partition-6e4", "partition-1e5"])
    def test_exact_law_above_the_length_cap_exits_2(self, capsys, bern_file, argv):
        code, out = run_cli(capsys, [a.format(coin=bern_file) for a in argv])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error" and "above the cap" in err["message"]

    def test_key_error_in_a_command_propagates(self, bern_file, monkeypatch):
        # every input parser turns its own KeyError into an input error, so
        # one that reaches run is a defect, not bad input
        import lltkit.cli

        def defect(args):
            raise KeyError("defect")

        monkeypatch.setitem(lltkit.cli._COMMANDS, "characteristics", defect)
        with pytest.raises(KeyError, match="defect"):
            main(["characteristics", bern_file])


class TestSuccessiveCalls:
    def test_call_order_does_not_change_output(self, capsys, bern_file, scenery_file):
        argvs = [
            ["llt-bound", bern_file, "--n", "16", "--kappa", "8", "--h", "0.3"],
            ["llt-bound", bern_file, "--n", "16", "--kappa-from", "6", "--kappa-to", "9",
             "--mode", "bounded-plug-ins", "--envelope", "central", "--format", "csv"],
            ["llt-bound", bern_file, "--n", "16", "--kappa", "8"],
            ["scenery", scenery_file, "--kappa", "2", "--mc", "100"],
            ["scenery", scenery_file],
            ["partition", "--m", "2", "--n", "12", "--mode", "enum"],
            ["partition", "--m", "2", "--n", "12"],
            ["split", bern_file],
        ]
        forward = [run_cli(capsys, argv) for argv in argvs]
        backward = [run_cli(capsys, argv) for argv in reversed(argvs)]
        assert forward == backward[::-1]
