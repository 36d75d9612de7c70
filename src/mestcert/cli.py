"""Command-line front end: CSV in, JSON certificate reports out.

Subcommands
-----------
fit           solve the estimating equation for a GLM-type family
certify       root/bracket/expansion certificate at a target vector
loo           certified approximate leave-one/k-out sweep
screen        per-coordinate marginal screening certificates
posi          certified sweep over an explicit list of submodels
cox-certify   Cox partial-likelihood certificate
nls-certify   nonlinear least-squares local certificate
kkt           equality-constrained solve plus expansion certificate

Data CSVs need a header with a ``y`` column; every other numeric column
becomes a covariate, in header order. Survival data additionally carries
``time`` and ``status`` (0/1) columns. Matrix files (certify's ``--q-ref``,
``--constraints``) are headerless numeric CSVs; vector files (``--target``,
screen's ``--q-ref``) hold numbers split by whitespace or commas (for kkt:
``beta``, or ``beta`` then ``nu``). Indices are 1-based, as in reports.

Data and matrix CSVs are parsed in bulk by numpy's C reader. A file it might
read differently from a ``float()`` per cell (a quoted, blank, non-numeric
or non-finite cell, a ragged row) is parsed again cell by cell, and that
loop names the offending row and column; the files accepted, the values
read and every error message are those of the cell loop.

Reports are JSON with every float printed to 17 significant digits, so a
rerun on identical inputs is byte-identical and parsing recovers the exact
doubles. Non-finite values (e.g. an uncertified infinite envelope) are
emitted as ``null``. Exit status is 0 for any completed run, including
certificates whose condition failed, and 2 for hard errors, which are
reported as ``{"error": ...}``; an option the subcommand does not read is
such an error, not a silent no-op. ``--family-alpha`` is read only with
``--family negbinomial``, and ``--tol`` by certify, cox-certify and
nls-certify only with ``--target plug-in`` (fit, loo and kkt always fit).
"""

import argparse
import csv
import dataclasses
import json
import math
import sys
import warnings
from collections import namedtuple
from functools import partial
from itertools import repeat

import numpy as np

from . import cox as coxmod
from . import glm, nls, resample
from .constrained import certify_constrained, kkt_solve
from .errors import MestcertError
from .glm import Dataset, hessian_holder_constant
from .losses import make_family

_FAMILIES = ("squared", "logistic", "poisson", "negbinomial")


# ------------------------------------------------------------------ #
# input parsing
# ------------------------------------------------------------------ #

def read_csv(path):
    """Load a data CSV into a :class:`~mestcert.glm.Dataset` or, when
    ``time`` and ``status`` columns are present, a
    :class:`~mestcert.cox.SurvivalDataset`.

    The first row is the header; a ``y`` column is required (survival files
    carry it too but only ``time``/``status`` are used); the remaining
    columns form the design matrix in header order. Non-numeric or
    non-finite cells are rejected with their row and column named (rows are
    counted from 1 over the non-blank rows, header included).
    """
    header, values = _read_table(path, _check_header)
    survival = "time" in header and "status" in header
    # y is always required and never a covariate; survival files ignore it.
    special = {"y", "time", "status"} if survival else {"y"}
    x_cols = [j for j, h in enumerate(header) if h not in special]
    if not x_cols:
        raise MestcertError(f"{path}: no covariate columns")
    x = values[:, x_cols]
    if survival:
        status = values[:, header.index("status")]
        if np.any((status != 0.0) & (status != 1.0)):
            raise MestcertError(f"{path}: 'status' must be 0 or 1")
        return coxmod.SurvivalDataset(X=x, time=values[:, header.index("time")],
                                      status=status.astype(bool))
    return Dataset(X=x, y=values[:, header.index("y")])


def read_matrix(path):
    """Headerless numeric CSV into a 2-d array. Non-finite cells are read
    as such (the caller rejects them); a non-numeric cell or a row of the
    wrong length is rejected with its row named."""
    return _read_table(path)[1]


def _check_header(path, header):
    """Reject a data CSV header that :func:`read_csv` cannot use."""
    if len(set(header)) != len(header):
        raise MestcertError(f"{path}: duplicate column names in header")
    if ("time" in header) != ("status" in header):
        raise MestcertError(
            f"{path}: survival data needs both 'time' and 'status' columns")
    if "y" not in header:
        raise MestcertError(f"{path}: required column 'y' is missing")


def _read_table(path, check_header=None):
    """``(header, values)`` of a CSV: with ``check_header`` the first
    non-blank row is a header, checked by it, and every cell must be finite;
    without, the header is None and non-finite cells are kept. ``values`` is
    a C-ordered ``(rows, columns)`` float table; blank rows are skipped.

    The numeric block is parsed in bulk; on any doubt the cell loop parses
    the file again, so the same files are accepted with the same values and
    every error is the cell loop's."""
    try:
        table = _bulk_table(path, check_header)
    except Exception:
        table = None
    return table if table is not None else _cell_table(path, check_header)


#: ASCII separators that numpy strips around a cell as whitespace but
#: ``float()`` rejects
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _bulk_table(path, check_header):
    """:func:`_read_table` through numpy's C reader, streamed from the open
    file; None where its result might differ from the cell loop's.

    ``np.loadtxt`` converts a cell with the same C routine as ``float()``,
    and a cell that the loop reads but it does not (a quoted cell,
    underscores, non-ASCII digits) makes it raise. It also strips the ASCII
    separators around a cell, so a file holding one is left to the loop."""
    with open(path, "rb") as fh:
        for chunk in iter(partial(fh.read, 1 << 18), b""):
            if any(sep in chunk for sep in _NUMPY_ONLY_SPACE):
                return None
    with open(path, newline="") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. "input contained no data"
        header = None
        if check_header is not None:
            first = fh.readline()
            if '"' in first:  # a quoted cell may run on over later lines
                return None
            # a blank leading row, which the loop skips, has no 'y' and fails
            header = [h.strip() for h in next(csv.reader([first]))]
            check_header(path, header)
        values = np.loadtxt(fh, delimiter=",", comments=None, quotechar=None,
                            ndmin=2)
    wrong_width = header is not None and values.shape[1] != len(header)
    if wrong_width or not np.isfinite(values).all():
        return None
    return header, values


def _cell_table(path, check_header):
    """:func:`_read_table` one ``float()`` per cell; it names the first bad
    row or cell (rows are counted from 1 over the non-blank rows, header
    included). It reads cells of any length, as the bulk path does."""
    rows, limit = [], csv.field_size_limit(sys.maxsize)
    try:
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if any(cell.strip() for cell in row):
                    rows.append(row)
    except csv.Error as exc:
        raise MestcertError(f"{path}: row {len(rows) + 1}: {exc}") from None
    finally:
        csv.field_size_limit(limit)
    if not rows:
        raise MestcertError(f"{path}: file is empty")
    header = None
    if check_header is None:
        columns = [str(j) for j in range(1, len(rows[0]) + 1)]
        first = 1
    else:
        header = [h.strip() for h in rows.pop(0)]
        check_header(path, header)
        if not rows:
            raise MestcertError(f"{path}: no data rows")
        columns = [f"'{h}'" for h in header]
        first = 2

    ncol = len(columns)
    values = np.empty((len(rows), ncol))
    for i, row in enumerate(rows, start=first):
        if len(row) != ncol:
            raise MestcertError(
                f"{path}: row {i} has {len(row)} cells, expected {ncol}")
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise MestcertError(
                    f"{path}: non-numeric cell at row {i}, column "
                    f"{columns[j]}: {cell.strip()!r}") from None
            if header is not None and not math.isfinite(v):
                raise MestcertError(
                    f"{path}: non-finite cell at row {i}, column "
                    f"{columns[j]}: {cell.strip()!r}")
            values[i - first, j] = v
    return header, values


def read_vector(path):
    """Whitespace/comma-separated numbers into a 1-d array."""
    with open(path) as fh:
        tokens = fh.read().replace(",", " ").split()
    if not tokens:
        raise MestcertError(f"{path}: file is empty")
    try:
        return np.asarray([float(t) for t in tokens])
    except ValueError as exc:
        raise MestcertError(f"{path}: non-numeric entry ({exc})") from None


def parse_index_spec(spec, n):
    """Comma/range syntax like ``1,4-7`` into a 0-based index tuple."""
    spans = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, _, hi = part.partition("-")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                raise MestcertError(f"bad index range {part!r}") from None
            if lo_i > hi_i:
                raise MestcertError(f"empty index range {part!r}")
            spans.append((lo_i, hi_i))
        else:
            try:
                spans.append((int(part),) * 2)
            except ValueError:
                raise MestcertError(f"bad index {part!r}") from None
    if not spans:
        raise MestcertError(f"empty subset spec {spec!r}")
    for lo, hi in spans:
        # the first index out of range, in listed order; a range is checked
        # by its ends, so a huge one is not expanded before it is rejected
        bad = lo if not 1 <= lo <= n else n + 1 if hi > n else None
        if bad is not None:
            raise MestcertError(f"index {bad} out of range 1..{n}")
    return tuple(sorted(set().union(*(range(lo - 1, hi) for lo, hi in spans))))


def read_models(path, p):
    """Model list file (one comma-separated 1-based index set per line)."""
    with open(path) as fh:
        models = [parse_index_spec(ln, p) for ln in map(str.strip, fh) if ln]
    if not models:
        raise MestcertError(f"{path}: no models")
    return models


# ------------------------------------------------------------------ #
# deterministic JSON emission
# ------------------------------------------------------------------ #

def dump_json(obj):
    """Serialize with floats at 17 significant digits (exact round-trip);
    non-finite floats become null. Dataclasses (the certificates) become
    objects keyed by their field names, in declaration order."""
    pieces = []
    _write_json(obj, pieces)
    return "".join(pieces) + "\n"


def _write_json(obj, out):
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        out.append(format(v, ".17g") if math.isfinite(v) else "null")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, str):
        out.append(_json_str(obj))
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, val) in enumerate(obj.items()):
            if k:
                out.append(",")
            out.append(_json_str(str(key)))
            out.append(":")
            _write_json(val, out)
        out.append("}")
    elif isinstance(obj, list) and obj and all(type(v) is float for v in obj):
        # e.g. ndarray.tolist(): one join; "n" only shows up in inf and nan
        text = ",".join(map(format, obj, repeat(".17g")))
        if "n" in text:
            text = ",".join(format(v, ".17g") if math.isfinite(v) else "null"
                            for v in obj)
        out.append(f"[{text}]")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, val in enumerate(obj):
            if k:
                out.append(",")
            _write_json(val, out)
        out.append("]")
    elif dataclasses.is_dataclass(obj):
        _write_json(_fields(obj), out)
    else:
        raise MestcertError(f"cannot serialize {type(obj).__name__}")


def _json_str(text):
    """``json.dumps(text, ensure_ascii=False)``, without the call for plain
    printable ASCII (such as every report key), which it leaves as is."""
    if text.isascii() and text.isprintable() and '"' not in text \
            and "\\" not in text:
        return f'"{text}"'
    return json.dumps(text, ensure_ascii=False)


def _fields(obj):
    """A dataclass's fields by name, in declaration order (no copies)."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


# ------------------------------------------------------------------ #
# command implementations
# ------------------------------------------------------------------ #

def _model_and_data(args):
    """The model named on the command line (the ``--link`` link for
    nls-certify, the ``--family`` loss otherwise) and the data file, which
    must hold regression data."""
    if args.command == "nls-certify":
        model = (nls.logistic_link() if args.link == "logistic"
                 else nls.identity_link())
    elif args.family == "negbinomial" and args.family_alpha is None:
        raise MestcertError("negbinomial needs --family-alpha")
    else:
        model = make_family(args.family, alpha=args.family_alpha)
    data = read_csv(args.data)
    if not isinstance(data, Dataset):
        raise MestcertError(
            f"{args.command} expects regression data (a 'y' column, no "
            f"'time'/'status')")
    return model, data


def _target(args, sizes, fit):
    """The ``--target`` vector: ``zeros`` of length ``sizes[0]``, ``fit()``
    for ``plug-in``, or a vector file holding one of ``sizes`` entries."""
    if args.target == "zeros":
        return np.zeros(sizes[0])
    if args.target == "plug-in":
        return fit()
    vec = read_vector(args.target)
    if vec.shape[0] not in sizes:
        raise MestcertError(
            f"target has length {vec.shape[0]}, expected "
            f"{' or '.join(map(str, sizes))}")
    return vec


def _cmd_fit(args):
    family, data = _model_and_data(args)
    est = glm.fit(data, family, tol=args.tol)
    return {"estimate": est,
            "score_norm": float(np.linalg.norm(glm.score(data, family, est)))}


def _cmd_certify(args):
    family, data = _model_and_data(args)
    target = _target(args, (data.n_features,),
                     lambda: glm.fit(data, family, tol=args.tol))
    q_ref = read_matrix(args.q_ref) if args.q_ref else None
    return _fields(glm.certify(data, family, target, q_ref=q_ref))


def _fold(entry):
    fold = {**_fields(entry), "indices": [i + 1 for i in entry.indices]}
    if entry.exact_estimate is None:
        del fold["exact_estimate"]
    else:
        fold["observed_deviation"] = float(np.linalg.norm(
            entry.exact_estimate - entry.approx_estimate))
    return fold


def _cmd_loo(args):
    family, data = _model_and_data(args)
    theta_hat = glm.fit(data, family, tol=args.tol)
    sets = None
    if args.subsets:
        sets = [parse_index_spec(s, data.n_obs) for s in args.subsets]
    report = resample.loo_sweep(data, family, theta_hat, index_sets=sets,
                                exact=args.exact)
    return {"theta_hat": report.theta_hat,
            "per_fold": [_fold(e) for e in report.entries]}


def _cmd_screen(args):
    family, data = _model_and_data(args)
    targets = _target(args, (data.n_features,), lambda: "plug-in")
    # screening references are per-coordinate curvature scalars
    q_refs = read_vector(args.q_ref) if args.q_ref else None
    report = resample.screen_marginal(data, family, targets=targets,
                                      q_refs=q_refs)
    return {
        "target_source": report.target_source,
        "q_source": report.q_source,
        "per_coordinate": [{**_fields(c), "index": c.index + 1}
                           for c in report.coordinates],
        "max_stat_bound": report.max_stat_bound,
        "all_certified": report.all_certified,
    }


def _cmd_posi(args):
    if args.target != "plug-in":
        raise MestcertError("posi certifies each submodel at its plug-in "
                            "root; --target must be 'plug-in'")
    family, data = _model_and_data(args)
    if not args.models:
        raise MestcertError("posi needs --models FILE")
    models = read_models(args.models, data.n_features)
    report = resample.posi_sweep(data, family, models, exact=args.exact)
    entries = []
    for m in report.models:
        entry = {"indices": [i + 1 for i in m.indices],
                 **_fields(m.certificate)}
        if m.exact_estimate is not None:
            entry["exact_estimate"] = m.exact_estimate
        entries.append(entry)
    return {"per_model": entries,
            "uniform_condition_ok": report.uniform_condition_ok}


def _cmd_cox_certify(args):
    data = read_csv(args.data)
    if not isinstance(data, coxmod.SurvivalDataset):
        raise MestcertError("cox-certify expects 'time' and 'status' columns")
    target = _target(args, (data.n_features,),
                     lambda: coxmod.fit_cox(data, tol=args.tol))
    return _fields(coxmod.certify_cox(data, target))


def _cmd_nls_certify(args):
    link, data = _model_and_data(args)
    p = data.n_features
    target = _target(args, (p,), lambda: nls.fit_nls(data, link, np.zeros(p),
                                                     tol=args.tol))
    return _fields(nls.certify_nls(data, link, target))


def _cmd_kkt(args):
    family, data = _model_and_data(args)
    if not args.constraints:
        raise MestcertError("kkt needs --constraints FILE (rows of a_1..a_p,b)")
    system = read_matrix(args.constraints)
    p = data.n_features
    if system.shape[1] != p + 1:
        raise MestcertError(
            f"constraint rows must have {p + 1} entries "
            f"(a_1..a_p, b), got {system.shape[1]}")
    a_mat, b_vec = system[:, :-1], system[:, -1]

    grad = partial(glm.score, data, family)
    hess = partial(glm.hessian, data, family)
    point = kkt_solve(grad, hess, a_mat, b_vec, tol=args.tol)
    # a target file holds beta, or beta followed by nu
    target = _target(args, (p, p + a_mat.shape[0]),
                     lambda: np.concatenate([point.beta, point.nu]))
    beta0, nu0 = target[:p], (target[p:] if target.shape[0] > p else None)
    holder_l, alpha = hessian_holder_constant(data, family, beta0)
    cert = certify_constrained(grad, hess, a_mat, b_vec, beta0, nu0=nu0,
                               holder_l=holder_l, alpha=alpha)
    return {"kkt_point": point, **_fields(cert)}


#: a subcommand: its implementation, its default ``--target`` (None where it
#: takes none), the options it reads besides the data file and ``--out``, and
#: those it reads only with ``--target plug-in``
_Command = namedtuple("_Command", "run target reads plug_in_reads",
                      defaults=((),))
_GLM = ("family", "family_alpha")
#: every subcommand; setting an option it does not read is an error, not a
#: silent no-op (screen and posi fit at a fixed tolerance: no --tol)
_COMMANDS = {
    "fit": _Command(_cmd_fit, None, _GLM + ("tol",)),
    "certify": _Command(_cmd_certify, "zeros", _GLM + ("target", "q_ref"),
                        ("tol",)),
    "loo": _Command(_cmd_loo, None, _GLM + ("tol", "subsets", "exact")),
    "screen": _Command(_cmd_screen, "plug-in", _GLM + ("target", "q_ref")),
    "posi": _Command(_cmd_posi, "plug-in", _GLM + ("target", "models",
                                                   "exact")),
    "cox-certify": _Command(_cmd_cox_certify, "zeros", ("target",),
                            ("tol",)),
    "nls-certify": _Command(_cmd_nls_certify, "zeros", ("target", "link"),
                            ("tol",)),
    "kkt": _Command(_cmd_kkt, "plug-in", _GLM + ("target", "tol",
                                                 "constraints")),
}
#: values of unset options; the parser leaves them None so that run() can
#: tell an explicit setting from a default
_DEFAULTS = {"family": "squared", "tol": 1e-10, "exact": False,
             "link": "logistic"}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mestcert",
        description="Deterministic certificates for smooth M-estimators.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("data", help="input CSV (header row, 'y' column)")
        p.add_argument("--family", choices=_FAMILIES,
                       help="loss family (default: squared)")
        p.add_argument("--family-alpha", type=float,
                       help="overdispersion parameter for negbinomial")
        p.add_argument("--target",
                       help="'zeros', 'plug-in', or a vector file "
                            "(default depends on the command)")
        p.add_argument("--q-ref", help="certify: reference Hessian CSV; "
                       "screen: vector file, one curvature per covariate")
        p.add_argument("--tol", type=float,
                       help="root tolerance of the fits (default: 1e-10)")
        p.add_argument("--subsets", action="append", default=None,
                       help="1-based row set like '1,4-7'; repeatable "
                            "(loo; default: all singletons)")
        p.add_argument("--models",
                       help="file with one comma-separated 1-based column "
                            "set per line (posi)")
        p.add_argument("--exact", action="store_true", default=None,
                       help="also run exact refit oracles")
        p.add_argument("--link", choices=("logistic", "identity"),
                       help="link for nls-certify (default: logistic)")
        p.add_argument("--constraints",
                       help="headerless CSV of constraint rows a_1..a_p,b (kkt)")
        p.add_argument("--out", help="output path (default: stdout)")
    return parser


def run(args):
    """Execute a parsed command; returns (exit_code, json_text)."""
    command = _COMMANDS[args.command]
    given = [dest for dest, value in vars(args).items()
             if value is not None and dest not in ("command", "data", "out")]
    for dest, value in _DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    if args.target is None:
        args.target = command.target
    reads = command.reads + command.plug_in_reads + ("out",)
    # the (option, value) that some options are read only with
    needs = {"family_alpha": ("family", "negbinomial"),
             **dict.fromkeys(command.plug_in_reads, ("target", "plug-in"))}
    for dest in given:
        other, value = needs.get(dest, (None, None))
        if dest in reads and (other is None or getattr(args, other) == value):
            continue
        why = f" unless {_flag(other)} {value}" if dest in reads else ""
        raise MestcertError(
            f"{args.command} does not read {_flag(dest)}{why}; its options "
            f"are {', '.join(map(_flag, reads))}")
    report = {"command": args.command}
    report.update((dest, getattr(args, dest)) for dest in ("family", "link")
                  if dest in reads)
    report.update(command.run(args))
    return 0, dump_json(report)


def _flag(dest):
    return "--" + dest.replace("_", "-")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code, text = run(args)
    except (MestcertError, OSError) as exc:
        code, text = 2, dump_json({"error": str(exc)})
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
