"""Golden CLI reports: every subcommand's output must stay byte-identical.

The inputs under ``tests/golden/inputs`` are small seeded CSV and text files;
``tests/golden/<case>.json`` holds the report each case produced when the
fixtures were made, followed by a line with the exit code. Both were written
by this module's ``__main__`` block:

    PYTHONPATH=src python tests/test_golden_cli.py [CASE ...]

run before the four damped-Newton loops of ``glm.fit``, ``fit_cox``,
``fit_nls`` and ``kkt_solve`` were merged into ``numkit.damped_newton`` and
the certificate reports were serialized from dataclass fields. A refactor
that keeps the arithmetic must keep these bytes; a change that moves the
last bits on purpose regenerates them with the same command and says so.
Naming cases writes only their reports (a new case is added that way).

Every case runs from ``INPUTS`` with file names as given in ``CASES``, so a
report that names an input file (an error message) holds the same bytes on
every machine.
"""

import os
import sys

import numpy as np
import pytest

from mestcert.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = os.path.join(GOLDEN, "inputs")

#: case name -> argv, with input file names relative to ``INPUTS``
CASES = {
    "fit-logistic": ["fit", "logit.csv", "--family", "logistic"],
    "fit-poisson-tol13": ["fit", "pois.csv", "--family", "poisson",
                          "--tol", "1e-13"],
    "certify-zeros": ["certify", "logit.csv", "--family", "logistic"],
    "certify-target": ["certify", "logit.csv", "--family", "logistic",
                       "--target", "target.txt"],
    "certify-qref": ["certify", "logit.csv", "--family", "logistic",
                     "--target", "target.txt", "--q-ref", "q_ref.csv"],
    "certify-plugin-negbinomial": ["certify", "pois.csv", "--family",
                                   "negbinomial", "--family-alpha", "0.5",
                                   "--target", "plug-in"],
    "loo-exact": ["loo", "pois.csv", "--family", "poisson", "--exact"],
    "loo-subsets-exact": ["loo", "logit.csv", "--family", "logistic",
                          "--subsets", "1,2", "--subsets", "5-9", "--exact"],
    "screen-plugin": ["screen", "logit.csv", "--family", "logistic"],
    "screen-zeros-squared": ["screen", "ols.csv", "--family", "squared",
                             "--target", "zeros"],
    "posi-exact": ["posi", "logit.csv", "--family", "logistic", "--models",
                   "models.txt", "--exact"],
    "cox-certify-zeros": ["cox-certify", "surv.csv"],
    "cox-certify-plugin": ["cox-certify", "surv.csv", "--target", "plug-in"],
    "nls-certify-plugin": ["nls-certify", "nls.csv", "--link", "logistic",
                           "--target", "plug-in"],
    "nls-certify-identity": ["nls-certify", "ols.csv", "--link", "identity",
                             "--target", "plug-in"],
    "kkt-plugin": ["kkt", "pois.csv", "--family", "poisson", "--constraints",
                   "cons.csv"],
    "kkt-infeasible-target": ["kkt", "logit.csv", "--family", "logistic",
                              "--constraints", "cons.csv", "--target",
                              "zeros"],
    "certify-survival-rejected": ["certify", "surv.csv"],
    # a non-numeric cell in the last row: the bulk parser leaves the file to
    # the cell loop, which names the cell
    "certify-bad-cell": ["certify", "logit-bad-cell.csv", "--family",
                         "logistic"],
    "certify-qref-ragged": ["certify", "logit.csv", "--family", "logistic",
                            "--target", "target.txt", "--q-ref",
                            "q_ref_ragged.csv"],
}


def _run(case, out_path):
    """The report bytes of ``case`` and its exit code, run from ``INPUTS``;
    ``out_path`` must be absolute."""
    cwd = os.getcwd()
    os.chdir(INPUTS)
    try:
        code = main(CASES[case] + ["--out", out_path])
    finally:
        os.chdir(cwd)
    with open(out_path, "rb") as fh:
        return fh.read() + f"exit {code}\n".encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes(case, tmp_path):
    with open(os.path.join(GOLDEN, f"{case}.json"), "rb") as fh:
        expected = fh.read()
    assert _run(case, str(tmp_path / "out.json")) == expected


def _write_csv(name, header, columns):
    rows = [",".join(header)]
    rows += [",".join(format(float(v), ".17g") for v in row)
             for row in zip(*columns)]
    with open(os.path.join(INPUTS, name), "w") as fh:
        fh.write("\n".join(rows) + "\n")


def _write_inputs():
    os.makedirs(INPUTS, exist_ok=True)
    rng = np.random.default_rng(20240)
    x = rng.normal(size=(60, 3)) / np.sqrt(3.0)
    u = x @ np.array([0.8, -0.5, 0.3])
    y = (rng.uniform(size=60) < 1.0 / (1.0 + np.exp(-u))).astype(float)
    _write_csv("logit.csv", ["y", "x1", "x2", "x3"], [y, *x.T])

    x = rng.normal(size=(50, 3)) / np.sqrt(3.0)
    y = rng.poisson(np.exp(x @ np.array([0.4, 0.2, -0.3]))).astype(float)
    _write_csv("pois.csv", ["y", "x1", "x2", "x3"], [y, *x.T])

    x = rng.normal(size=(30, 2))
    y = x @ np.array([1.0, -2.0]) + rng.normal(size=30)
    _write_csv("ols.csv", ["y", "x1", "x2"], [y, *x.T])

    x = rng.normal(size=(50, 2)) / np.sqrt(2.0)
    mean = 1.0 / (1.0 + np.exp(-(x @ np.array([1.5, -1.0]))))
    y = mean + 0.05 * rng.normal(size=50)
    _write_csv("nls.csv", ["y", "x1", "x2"], [y, *x.T])

    # times rounded to one decimal so that several events tie
    x = rng.normal(size=(40, 2)) / np.sqrt(2.0)
    raw = rng.exponential(size=40) * np.exp(-(x @ np.array([0.5, -0.4])))
    censor = rng.uniform(0.5, 3.0, size=40)
    time = np.round(np.minimum(raw, censor), 1)
    status = (raw <= censor).astype(float)
    status[0] = 1.0
    _write_csv("surv.csv", ["y", "x1", "x2", "time", "status"],
               [np.zeros(40), *x.T, time, status])

    with open(os.path.join(INPUTS, "target.txt"), "w") as fh:
        fh.write("0.62 -1.38 -0.66\n")
    q_ref = np.array([[0.2, 0.01, 0.0], [0.01, 0.19, 0.02],
                      [0.0, 0.02, 0.21]])
    with open(os.path.join(INPUTS, "q_ref.csv"), "w") as fh:
        fh.writelines(",".join(format(v, ".17g") for v in row) + "\n"
                      for row in q_ref)
    with open(os.path.join(INPUTS, "models.txt"), "w") as fh:
        fh.write("1,2\n1-3\n3\n")
    with open(os.path.join(INPUTS, "cons.csv"), "w") as fh:
        fh.write("1,1,1,0.5\n")

    # the logistic data with its last cell made non-numeric, and q_ref with
    # its second row one cell short
    with open(os.path.join(INPUTS, "logit.csv")) as fh:
        rows = fh.read().splitlines()
    rows[-1] = rows[-1].rpartition(",")[0] + ",n/a"
    with open(os.path.join(INPUTS, "logit-bad-cell.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(os.path.join(INPUTS, "q_ref.csv")) as fh:
        rows = fh.read().splitlines()
    rows[1] = rows[1].rpartition(",")[0]
    with open(os.path.join(INPUTS, "q_ref_ragged.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")


if __name__ == "__main__":
    _write_inputs()
    scratch = os.path.join(GOLDEN, "_out.json")
    for name in sys.argv[1:] or sorted(CASES):
        report = _run(name, scratch)
        with open(os.path.join(GOLDEN, f"{name}.json"), "wb") as fh:
            fh.write(report)
    os.remove(scratch)
    sys.exit(0)
