import csv
import json

import numpy as np
import pytest

from mestcert import Dataset, MestcertError, SurvivalDataset, certify, make_family
from mestcert.cli import (build_parser, dump_json, main, parse_index_spec,
                          read_csv, read_matrix, read_vector)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def ols_csv(tmp_path):
    return write(tmp_path, "ols.csv",
                 "y,x1,x2\n0.0,1.0,0.5\n2.0,1.0,-0.5\n1.0,2.0,0.3\n3.0,0.5,1.2\n")


@pytest.fixture
def survival_csv(tmp_path):
    rows = ["y,x1,time,status"]
    rng = np.random.default_rng(710)
    for i in range(20):
        x = rng.normal() * 0.7
        t = rng.exponential() * np.exp(-0.4 * x)
        s = int(rng.uniform() < 0.8)
        rows.append(f"0,{x},{t},{s}")
    rows.append("0,0.3,2.5,1")  # guarantee an event
    return write(tmp_path, "surv.csv", "\n".join(rows) + "\n")


#: a value for every option that some subcommand does not read
_OPTION_VALUES = {
    "--family": ["poisson"], "--family-alpha": ["3"], "--target": ["zeros"],
    "--q-ref": ["q.csv"], "--tol": ["1e-3"], "--subsets": ["1"],
    "--models": ["models.csv"], "--exact": [], "--link": ["identity"],
    "--constraints": ["cons.csv"],
}
#: the options each subcommand reads (besides the data file and --out)
_READS = {
    "fit": {"--family", "--family-alpha", "--tol"},
    "certify": {"--family", "--family-alpha", "--target", "--q-ref",
                "--tol"},
    "loo": {"--family", "--family-alpha", "--tol", "--subsets", "--exact"},
    "screen": {"--family", "--family-alpha", "--target", "--q-ref"},
    "posi": {"--family", "--family-alpha", "--target", "--models",
             "--exact"},
    "cox-certify": {"--target", "--tol"},
    "nls-certify": {"--target", "--tol", "--link"},
    "kkt": {"--family", "--family-alpha", "--target", "--tol",
            "--constraints"},
}
_UNREAD = [(command, option) for command, reads in _READS.items()
           for option in _OPTION_VALUES if option not in reads]
#: (subcommand, option, settings under which the subcommand does not read
#: it): --family-alpha is read only for negbinomial, and --tol by the three
#: certify subcommands only to fit a plug-in target
_UNREAD_FOR_VALUE = [
    (command, "--family-alpha", settings)
    for command in ("fit", "certify", "loo", "screen", "posi", "kkt")
    for settings in ([], ["--family", "poisson"])
] + [
    (command, "--tol", settings)
    for command in ("certify", "cox-certify", "nls-certify")
    for settings in ([], ["--target", "zeros"], ["--target", "t.txt"])
]


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out.read_bytes()


class TestReadCsv:
    def test_toy_dataset(self, tmp_path):
        path = write(tmp_path, "t.csv", "y,x1\n1.0,2.0\n3.0,4.0\n")
        data = read_csv(path)
        assert isinstance(data, Dataset)
        assert data.n_obs == 2 and data.n_features == 1

    def test_survival_dataset(self, survival_csv):
        data = read_csv(survival_csv)
        assert isinstance(data, SurvivalDataset)
        assert data.status.dtype == bool

    def test_na_cell_named(self, tmp_path):
        path = write(tmp_path, "t.csv", "y,x1\n1.0,NA\n")
        with pytest.raises(MestcertError, match="row 2, column 'x1'"):
            read_csv(path)

    def test_inf_cell_rejected(self, tmp_path):
        path = write(tmp_path, "t.csv", "y,x1\n1.0,inf\n")
        with pytest.raises(MestcertError, match="non-finite"):
            read_csv(path)

    def test_missing_y(self, tmp_path):
        path = write(tmp_path, "t.csv", "z,x1\n1.0,2.0\n")
        with pytest.raises(MestcertError, match="'y'"):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "t.csv", "")
        with pytest.raises(MestcertError, match="empty"):
            read_csv(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "t.csv", "y,x1\n")
        with pytest.raises(MestcertError, match="no data rows"):
            read_csv(path)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "t.csv", "y,x1\n1.0\n")
        with pytest.raises(MestcertError, match="row 2"):
            read_csv(path)

    def test_bad_status(self, tmp_path):
        path = write(tmp_path, "t.csv",
                     "y,x1,time,status\n0,1.0,1.0,2\n")
        with pytest.raises(MestcertError, match="status"):
            read_csv(path)

    def test_time_without_status(self, tmp_path):
        path = write(tmp_path, "t.csv", "y,x1,time\n0,1.0,1.0\n")
        with pytest.raises(MestcertError, match="both"):
            read_csv(path)

    def test_duplicate_header(self, tmp_path):
        path = write(tmp_path, "t.csv", "y,x1,x1\n1,2,3\n")
        with pytest.raises(MestcertError, match="duplicate"):
            read_csv(path)

    # a cell longer than csv's default field limit (131072 characters); the
    # quoted "3" sends the file through the cell loop
    LONG_NUMBER = "0." + "1" * 139998

    def test_long_cell_read_like_the_bulk_path(self, tmp_path):
        limit = csv.field_size_limit()
        looped = read_csv(write(tmp_path, "a.csv",
                                f'y,x1\n1,{self.LONG_NUMBER}\n2,"3"\n'))
        bulk = read_csv(write(tmp_path, "b.csv",
                              f"y,x1\n1,{self.LONG_NUMBER}\n2,3\n"))
        assert looped.X.tobytes() == bulk.X.tobytes()
        assert looped.X[0, 0] == float(self.LONG_NUMBER) != 0.0
        assert csv.field_size_limit() == limit

    def test_long_non_numeric_cell_exits_2(self, tmp_path):
        path = write(tmp_path, "t.csv",
                     "y,x1\n1," + "a" * 140000 + '\n2,"3"\n')
        code, payload = run_cli(["fit", path], tmp_path)
        assert code == 2
        assert (f"{path}: non-numeric cell at row 2, column 'x1'"
                in json.loads(payload)["error"])

    def test_csv_error_names_the_row(self, tmp_path, monkeypatch):
        def reader(fh):
            yield ["y", "x1"]
            raise csv.Error("bad row")
        monkeypatch.setattr(csv, "reader", reader)
        path = write(tmp_path, "t.csv", "y,x1\n")
        code, payload = run_cli(["fit", path], tmp_path)
        assert code == 2
        assert json.loads(payload) == {"error": f"{path}: row 2: bad row"}


class TestSpecParsing:
    def test_index_spec(self):
        assert parse_index_spec("1,4-7", 10) == (0, 3, 4, 5, 6)
        assert parse_index_spec("3", 3) == (2,)

    def test_index_spec_errors(self):
        with pytest.raises(MestcertError):
            parse_index_spec("0", 5)
        with pytest.raises(MestcertError):
            parse_index_spec("6", 5)
        with pytest.raises(MestcertError):
            parse_index_spec("a", 5)
        with pytest.raises(MestcertError):
            parse_index_spec("5-2", 5)

    def test_huge_range_rejected_by_its_ends(self):
        # the range is not expanded first: 10**11 indices would not fit
        with pytest.raises(MestcertError,
                           match=r"^index 6 out of range 1\.\.5$"):
            parse_index_spec("2,1-99999999999", 5)
        with pytest.raises(MestcertError, match=r"^index 0 out of range"):
            parse_index_spec("0-99999999999", 5)

    def test_matrix_and_vector_files(self, tmp_path):
        mpath = write(tmp_path, "m.csv", "1.0,0.0\n0.0,2.0\n")
        np.testing.assert_allclose(read_matrix(mpath), [[1, 0], [0, 2]])
        vpath = write(tmp_path, "v.txt", "1.0\n-2.5\n")
        np.testing.assert_allclose(read_vector(vpath), [1.0, -2.5])

    def test_ragged_matrix_names_the_row(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,2\n3\n")
        with pytest.raises(MestcertError) as info:
            read_matrix(path)
        assert str(info.value) == f"{path}: row 2 has 1 cells, expected 2"

    def test_non_finite_q_ref_is_read_and_rejected_downstream(self, ols_csv,
                                                              tmp_path):
        path = write(tmp_path, "q.csv", "1,nan\n0,1\n")
        assert np.isnan(read_matrix(path)[0, 1])
        code, payload = run_cli(["certify", ols_csv, "--q-ref", path],
                                tmp_path)
        assert code == 2
        assert json.loads(payload) == {
            "error": "q_ref contains non-finite entries"}


class TestDumpJson:
    def test_seventeen_digit_round_trip(self):
        values = [1.0 / 3.0, np.pi, 1e-300, 123456.789, 2.0 ** 0.5]
        text = dump_json({"v": values})
        parsed = json.loads(text)
        assert parsed["v"] == values

    def test_non_finite_becomes_null(self):
        assert dump_json(float("inf")) == "null\n"
        assert dump_json(float("nan")) == "null\n"

    def test_escaping(self):
        for text in ('a "b" \\ c', 'tab\there\nnew\x01\x1f é'):
            assert json.loads(dump_json(text)) == text
        # without control characters the bytes are the plain quoted string,
        # non-ASCII included
        assert dump_json('a "b" \\ é') == '"a \\"b\\" \\\\ é"\n'

    def test_error_report_with_tab_in_header_parses(self, tmp_path):
        path = write(tmp_path, "t.csv", "a\tb,y\n1,2\nx,3\n")
        code, payload = run_cli(["fit", path], tmp_path)
        assert code == 2
        assert "'a\tb'" in json.loads(payload)["error"]


class TestCommands:
    def test_certify_ols_toy(self, ols_csv, tmp_path):
        code, payload = run_cli(["certify", ols_csv, "--family", "squared"],
                                tmp_path)
        assert code == 0
        report = json.loads(payload)
        assert report["command"] == "certify"
        assert report["condition_ok"] is True
        assert report["expansion_bound_empirical"] == 0.0
        assert report["target"] == [0.0, 0.0]

    def test_certify_json_mirrors_library_exactly(self, ols_csv, tmp_path):
        code, payload = run_cli(["certify", ols_csv, "--family", "squared"],
                                tmp_path)
        report = json.loads(payload)
        data = read_csv(ols_csv)
        cert = certify(data, make_family("squared"), np.zeros(2))
        assert report["delta"] == cert.delta
        assert report["bracket_lo"] == cert.bracket_lo
        assert report["bracket_hi"] == cert.bracket_hi
        assert report["newton_step"] == list(cert.newton_step)

    def test_fit_command(self, ols_csv, tmp_path):
        code, payload = run_cli(["fit", ols_csv, "--family", "squared"],
                                tmp_path)
        assert code == 0
        report = json.loads(payload)
        assert report["score_norm"] <= 1e-10

    def test_certify_with_target_file_and_qref(self, ols_csv, tmp_path):
        target = write(tmp_path, "t.txt", "0.1\n0.2\n")
        qref = write(tmp_path, "q.csv", "2.0,0.0\n0.0,2.0\n")
        code, payload = run_cli(["certify", ols_csv, "--family", "squared",
                                 "--target", target, "--q-ref", qref],
                                tmp_path)
        assert code == 0
        report = json.loads(payload)
        assert report["target"] == [0.1, 0.2]
        assert report["reference_mismatch"] is not None

    def test_loo_exact_bounds(self, ols_csv, tmp_path):
        code, payload = run_cli(["loo", ols_csv, "--family", "squared",
                                 "--exact"], tmp_path)
        assert code == 0
        report = json.loads(payload)
        assert len(report["per_fold"]) == 4
        for fold in report["per_fold"]:
            if fold["certified"]:
                assert fold["observed_deviation"] <= fold["deviation_bound"] \
                    * (1 + 1e-8) + 1e-15

    def test_loo_subsets(self, ols_csv, tmp_path):
        code, payload = run_cli(["loo", ols_csv, "--family", "squared",
                                 "--subsets", "1,3", "--subsets", "2"],
                                tmp_path)
        report = json.loads(payload)
        assert [f["indices"] for f in report["per_fold"]] == [[1, 3], [2]]

    def test_screen_command(self, ols_csv, tmp_path):
        code, payload = run_cli(["screen", ols_csv, "--family", "squared"],
                                tmp_path)
        assert code == 0
        report = json.loads(payload)
        assert report["all_certified"] is True
        assert len(report["per_coordinate"]) == 2
        assert report["max_stat_bound"] <= 1e-9

    def test_posi_command(self, ols_csv, tmp_path):
        models = write(tmp_path, "models.txt", "1\n2\n1,2\n")
        code, payload = run_cli(["posi", ols_csv, "--family", "squared",
                                 "--models", models], tmp_path)
        assert code == 0
        report = json.loads(payload)
        assert report["uniform_condition_ok"] is True
        assert [m["indices"] for m in report["per_model"]] == [[1], [1, 2], [2]]

    def test_posi_rejects_other_targets(self, ols_csv, tmp_path):
        models = write(tmp_path, "models.txt", "1\n2\n")
        target = write(tmp_path, "target.txt", "0.0 0.0\n")
        base = ["posi", ols_csv, "--family", "squared", "--models", models]
        for value in ("zeros", target):
            code, payload = run_cli(base + ["--target", value], tmp_path)
            assert code == 2
            assert "plug-in" in json.loads(payload)["error"]
        assert run_cli(base + ["--target", "plug-in"], tmp_path)[1] == \
            run_cli(base, tmp_path)[1]

    @pytest.mark.parametrize("command", ["fit", "loo"])
    def test_target_rejected_where_unused(self, command, ols_csv, tmp_path):
        base = [command, ols_csv, "--family", "squared"]
        for value in ("zeros", "plug-in"):
            code, payload = run_cli(base + ["--target", value], tmp_path)
            assert code == 2
            assert "--target" in json.loads(payload)["error"]
        assert run_cli(base, tmp_path)[0] == 0

    @pytest.mark.parametrize("command", ["fit", "loo", "posi", "cox-certify",
                                         "nls-certify", "kkt"])
    def test_q_ref_rejected_where_unused(self, command, ols_csv,
                                         survival_csv, tmp_path):
        qref = write(tmp_path, "q.csv", "1.0,0.0\n0.0,1.0\n")
        data = survival_csv if command == "cox-certify" else ols_csv
        code, payload = run_cli([command, data, "--q-ref", qref], tmp_path)
        assert code == 2
        assert "--q-ref" in json.loads(payload)["error"]

    @pytest.mark.parametrize("command,option", _UNREAD)
    def test_option_rejected_where_unread(self, command, option, ols_csv,
                                          survival_csv, tmp_path):
        data = survival_csv if command == "cox-certify" else ols_csv
        argv = [command, data, option] + [
            write(tmp_path, value, "1.0,0.0\n") if value.endswith(".csv")
            else value for value in _OPTION_VALUES[option]]
        code, payload = run_cli(argv, tmp_path)
        assert code == 2
        assert f"{command} does not read {option};" in \
            json.loads(payload)["error"]

    @pytest.mark.parametrize("command,option,settings", _UNREAD_FOR_VALUE,
                             ids=[" ".join([c, *s, o]) for c, o, s in
                                  _UNREAD_FOR_VALUE])
    def test_option_rejected_for_this_value(self, command, option, settings,
                                            ols_csv, survival_csv, tmp_path):
        data = survival_csv if command == "cox-certify" else ols_csv
        settings = [write(tmp_path, s, "0.0\n0.0\n") if s.endswith(".txt")
                    else s for s in settings]
        argv = [command, data] + settings + [option] + _OPTION_VALUES[option]
        code, payload = run_cli(argv, tmp_path)
        assert code == 2
        assert f"{command} does not read {option} unless" in \
            json.loads(payload)["error"]

    @pytest.mark.parametrize("command", ["certify", "screen", "cox-certify",
                                         "nls-certify", "kkt"])
    def test_target_file_of_wrong_length(self, command, ols_csv,
                                         survival_csv, tmp_path):
        # ols_csv has p = 2 covariates, survival_csv p = 1; kkt takes beta
        # (p) or beta followed by nu (p + d, here d = 1)
        target = write(tmp_path, "t.txt", "1 2 3 4 5\n")
        argv = [command, survival_csv if command == "cox-certify" else ols_csv,
                "--target", target]
        if command == "kkt":
            argv += ["--constraints", write(tmp_path, "c.csv", "1,1,1\n")]
        code, payload = run_cli(argv, tmp_path)
        assert code == 2
        expected = {"cox-certify": "1", "kkt": "2 or 3"}.get(command, "2")
        assert json.loads(payload)["error"] == \
            f"target has length 5, expected {expected}"

    @pytest.mark.parametrize("command", ["certify", "cox-certify",
                                         "nls-certify", "kkt"])
    def test_target_file_holding_the_plug_in_root(self, command, ols_csv,
                                                  survival_csv, tmp_path):
        base = [command, survival_csv if command == "cox-certify" else ols_csv]
        if command == "kkt":
            base += ["--constraints", write(tmp_path, "c.csv", "1,1,1\n")]
        code, plug_in = run_cli(base + ["--target", "plug-in"], tmp_path,
                                "plug-in.json")
        assert code == 0
        report = json.loads(plug_in)
        if command == "kkt":
            # beta followed by nu: the p + d entry form
            root = report["kkt_point"]["beta"] + report["kkt_point"]["nu"]
        else:
            root = report["target"]
        target = write(tmp_path, "root.txt",
                       "\n".join(format(v, ".17g") for v in root) + "\n")
        assert run_cli(base + ["--target", target], tmp_path,
                       "file.json") == (0, plug_in)

    def test_unset_options_take_their_defaults(self, ols_csv, tmp_path):
        for unset, explicit in (
                (["certify", ols_csv, "--target", "plug-in"],
                 ["--family", "squared", "--tol", "1e-10"]),
                (["fit", ols_csv], ["--family", "squared", "--tol", "1e-10"]),
                (["loo", ols_csv], ["--family", "squared"]),
                (["nls-certify", ols_csv, "--target", "plug-in"],
                 ["--link", "logistic", "--tol", "1e-10"])):
            assert run_cli(unset, tmp_path, "a.json") == \
                run_cli(unset + explicit, tmp_path, "b.json")

    def test_cox_certify_command(self, survival_csv, tmp_path):
        code, payload = run_cli(["cox-certify", survival_csv], tmp_path)
        assert code == 0
        report = json.loads(payload)
        assert set(report) >= {"delta", "mu_sup", "condition_ok", "bracket_lo",
                               "bracket_hi", "newton_step", "expansion_bound"}

    def test_nls_certify_command(self, tmp_path):
        rng = np.random.default_rng(711)
        rows = ["y,x1,x2"]
        x = rng.normal(size=(60, 2)) * 0.8
        theta = np.array([0.5, -0.4])
        y = 1 / (1 + np.exp(-(x @ theta))) + rng.normal(size=60) * 0.05
        for i in range(60):
            rows.append(f"{y[i]},{x[i,0]},{x[i,1]}")
        path = write(tmp_path, "nls.csv", "\n".join(rows) + "\n")
        code, payload = run_cli(["nls-certify", path, "--link", "logistic",
                                 "--target", "plug-in"], tmp_path)
        assert code == 0
        report = json.loads(payload)
        assert report["condition_ok"] is True
        assert report["remainder_bound"] >= 0.0

    def test_kkt_command(self, ols_csv, tmp_path):
        cons = write(tmp_path, "cons.csv", "1.0,1.0,1.0\n")
        code, payload = run_cli(["kkt", ols_csv, "--family", "squared",
                                 "--constraints", cons], tmp_path)
        assert code == 0
        report = json.loads(payload)
        assert report["kkt_point"]["primal_residual"] <= 1e-10
        assert report["condition_ok"] is True
        assert report["remainder_bound"] == 0.0
        assert abs(sum(report["kkt_point"]["beta"]) - 1.0) <= 1e-9

    def test_kkt_singular_hessian_exits_2(self, tmp_path):
        # column c duplicates a: the KKT system is solvable but Qhat is
        # singular, which the Hoelder constant must report, not crash on
        rng = np.random.default_rng(712)
        x = rng.normal(size=(30, 2))
        y = x @ np.array([1.0, 0.5]) + 0.1 * rng.normal(size=30)
        rows = ["a,b,c,y"] + [",".join(repr(float(v)) for v in
                                       (x[i, 0], x[i, 1], x[i, 0], y[i]))
                              for i in range(30)]
        path = write(tmp_path, "dup.csv", "\n".join(rows) + "\n")
        cons = write(tmp_path, "cons.csv", "1,0,-1,0\n")
        code, payload = run_cli(["kkt", path, "--constraints", cons],
                                tmp_path)
        assert code == 2
        assert json.loads(payload)["error"].startswith(
            "matrix is singular to working tolerance")

    def test_unknown_family_exits_2(self, ols_csv):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["certify", ols_csv, "--family", "huber"])
        assert err.value.code == 2

    def test_missing_file_exits_2(self, tmp_path):
        code, payload = run_cli(["certify", str(tmp_path / "nope.csv")],
                                tmp_path)
        assert code == 2
        assert "error" in json.loads(payload)

    def test_negbinomial_needs_alpha(self, ols_csv, tmp_path):
        code, payload = run_cli(["certify", ols_csv, "--family",
                                 "negbinomial"], tmp_path)
        assert code == 2
        assert "family-alpha" in json.loads(payload)["error"]

    def test_survival_data_rejected_for_glm_commands(self, survival_csv,
                                                     tmp_path):
        code, payload = run_cli(["certify", survival_csv], tmp_path)
        assert code == 2
        assert "regression data" in json.loads(payload)["error"]


class TestDeterminism:
    def test_byte_identical_reruns(self, ols_csv, survival_csv, tmp_path):
        commands = [
            ["certify", ols_csv, "--family", "squared"],
            ["fit", ols_csv, "--family", "poisson"],
            ["loo", ols_csv, "--family", "squared", "--exact"],
            ["screen", ols_csv, "--family", "squared"],
            ["cox-certify", survival_csv],
        ]
        for i, cmd in enumerate(commands):
            _, first = run_cli(cmd, tmp_path, name=f"a{i}.json")
            _, second = run_cli(cmd, tmp_path, name=f"b{i}.json")
            assert first == second

    def test_stdout_matches_file(self, ols_csv, tmp_path, capsys):
        code = main(["certify", ols_csv, "--family", "squared"])
        assert code == 0
        stdout = capsys.readouterr().out
        _, payload = run_cli(["certify", ols_csv, "--family", "squared"],
                             tmp_path)
        assert stdout.encode() == payload
