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
``time`` and ``status`` (0/1) columns. Matrix files (``--q-ref``,
``--constraints``) are headerless numeric CSVs; target files hold one
number per line. Row and column indices on the command line and in reports
are 1-based.

Reports are JSON with every float printed to 17 significant digits, so a
rerun on identical inputs is byte-identical and parsing recovers the exact
doubles. Non-finite values (e.g. an uncertified infinite envelope) are
emitted as ``null``. Exit status is 0 for any completed run, including
certificates whose condition failed, and 2 for hard errors, which are
reported as ``{"error": ...}``.
"""

import argparse
import csv
import dataclasses
import math
import sys

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
    1-based file rows, header included).
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if any(cell.strip() for cell in r)]
    if not rows:
        raise MestcertError(f"{path}: file is empty")
    header = [h.strip() for h in rows[0]]
    if len(set(header)) != len(header):
        raise MestcertError(f"{path}: duplicate column names in header")
    survival = "time" in header and "status" in header
    if ("time" in header) != ("status" in header):
        raise MestcertError(
            f"{path}: survival data needs both 'time' and 'status' columns")
    if "y" not in header:
        raise MestcertError(f"{path}: required column 'y' is missing")
    if len(rows) == 1:
        raise MestcertError(f"{path}: no data rows")

    ncol = len(header)
    values = np.empty((len(rows) - 1, ncol))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != ncol:
            raise MestcertError(
                f"{path}: row {i} has {len(row)} cells, expected {ncol}")
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise MestcertError(
                    f"{path}: non-numeric cell at row {i}, column "
                    f"'{header[j]}': {cell.strip()!r}") from None
            if not math.isfinite(v):
                raise MestcertError(
                    f"{path}: non-finite cell at row {i}, column "
                    f"'{header[j]}': {cell.strip()!r}")
            values[i - 2, j] = v

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
    """Headerless numeric CSV into a 2-d array."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if any(c.strip() for c in r)]
    if not rows:
        raise MestcertError(f"{path}: file is empty")
    try:
        return np.asarray([[float(c) for c in r] for r in rows])
    except ValueError as exc:
        raise MestcertError(f"{path}: non-numeric cell ({exc})") from None


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
    out = []
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
            out.extend(range(lo_i, hi_i + 1))
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise MestcertError(f"bad index {part!r}") from None
    if not out:
        raise MestcertError(f"empty subset spec {spec!r}")
    for i in out:
        if i < 1 or i > n:
            raise MestcertError(f"index {i} out of range 1..{n}")
    return tuple(sorted(set(i - 1 for i in out)))


def read_models(path, p):
    """Model list file (one comma-separated 1-based index set per line)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    models = []
    for ln in lines:
        if not ln:
            continue
        models.append(parse_index_spec(ln, p))
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
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        out.append(format(v, ".17g") if math.isfinite(v) else "null")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, val) in enumerate(obj.items()):
            if k:
                out.append(",")
            _write_json(str(key), out)
            out.append(":")
            _write_json(val, out)
        out.append("}")
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


def _fields(obj):
    """A dataclass's fields by name, in declaration order (no copies)."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


# ------------------------------------------------------------------ #
# command implementations
# ------------------------------------------------------------------ #

def _build_family(args):
    if args.family == "negbinomial":
        if args.family_alpha is None:
            raise MestcertError("negbinomial needs --family-alpha")
        return make_family("negbinomial", alpha=args.family_alpha)
    return make_family(args.family)


def _resolve_target(args, data, family):
    if args.target == "zeros":
        return np.zeros(data.n_features)
    if args.target == "plug-in":
        return glm.fit(data, family, tol=args.tol)
    vec = read_vector(args.target)
    if vec.shape[0] != data.n_features:
        raise MestcertError(
            f"target has length {vec.shape[0]}, expected {data.n_features}")
    return vec


def _require_dataset(data, command):
    if not isinstance(data, Dataset):
        raise MestcertError(
            f"{command} expects regression data (a 'y' column, no "
            f"'time'/'status')")
    return data


def _cmd_fit(args):
    family = _build_family(args)
    data = _require_dataset(read_csv(args.data), "fit")
    est = glm.fit(data, family, tol=args.tol)
    return {
        "command": "fit",
        "family": args.family,
        "estimate": est,
        "score_norm": float(np.linalg.norm(glm.score(data, family, est))),
    }


def _cmd_certify(args):
    family = _build_family(args)
    data = _require_dataset(read_csv(args.data), "certify")
    target = _resolve_target(args, data, family)
    q_ref = None
    if args.q_ref:
        q_ref = read_matrix(args.q_ref)
    cert = glm.certify(data, family, target, q_ref=q_ref)
    return {"command": "certify", "family": args.family, **_fields(cert)}


def _cmd_loo(args):
    family = _build_family(args)
    data = _require_dataset(read_csv(args.data), "loo")
    theta_hat = glm.fit(data, family, tol=args.tol)
    sets = None
    if args.subsets:
        sets = [parse_index_spec(s, data.n_obs) for s in args.subsets]
    report = resample.loo_sweep(data, family, theta_hat, index_sets=sets,
                                exact=args.exact)
    folds = []
    for e in report.entries:
        fold = {
            "indices": [i + 1 for i in e.indices],
            "approx_estimate": e.approx_estimate,
            "delta_i": e.delta_i,
            "certified": e.certified,
            "deviation_bound": e.deviation_bound,
        }
        if e.exact_estimate is not None:
            fold["exact_estimate"] = e.exact_estimate
            fold["observed_deviation"] = float(np.linalg.norm(
                e.exact_estimate - e.approx_estimate))
        folds.append(fold)
    return {
        "command": "loo",
        "family": args.family,
        "theta_hat": report.theta_hat,
        "per_fold": folds,
    }


def _cmd_screen(args):
    family = _build_family(args)
    data = _require_dataset(read_csv(args.data), "screen")
    if args.target in ("plug-in", "zeros"):
        targets = ("plug-in" if args.target == "plug-in"
                   else np.zeros(data.n_features))
    else:
        targets = read_vector(args.target)
    q_refs = None
    if args.q_ref:
        # screening references are per-coordinate curvature scalars
        q_refs = read_vector(args.q_ref)
    report = resample.screen_marginal(data, family, targets=targets,
                                      q_refs=q_refs)
    return {
        "command": "screen",
        "family": args.family,
        "target_source": report.target_source,
        "q_source": report.q_source,
        "per_coordinate": [
            {
                "index": c.index + 1,
                "estimate": c.estimate,
                "target": c.target,
                "delta": c.delta,
                "expansion_bound": c.expansion_bound,
                "certified": c.certified,
            }
            for c in report.coordinates
        ],
        "max_stat_bound": report.max_stat_bound,
        "all_certified": report.all_certified,
    }


def _cmd_posi(args):
    family = _build_family(args)
    data = _require_dataset(read_csv(args.data), "posi")
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
    return {
        "command": "posi",
        "family": args.family,
        "per_model": entries,
        "uniform_condition_ok": report.uniform_condition_ok,
    }


def _cmd_cox_certify(args):
    data = read_csv(args.data)
    if not isinstance(data, coxmod.SurvivalDataset):
        raise MestcertError("cox-certify expects 'time' and 'status' columns")
    if args.target == "zeros":
        target = np.zeros(data.n_features)
    elif args.target == "plug-in":
        target = coxmod.fit_cox(data, tol=args.tol)
    else:
        target = read_vector(args.target)
    cert = coxmod.certify_cox(data, target)
    return {"command": "cox-certify", **_fields(cert)}


def _cmd_nls_certify(args):
    data = _require_dataset(read_csv(args.data), "nls-certify")
    link = nls.logistic_link() if args.link == "logistic" else nls.identity_link()
    if args.target == "zeros":
        target = np.zeros(data.n_features)
    elif args.target == "plug-in":
        target = nls.fit_nls(data, link, np.zeros(data.n_features),
                             tol=args.tol)
    else:
        target = read_vector(args.target)
    cert = nls.certify_nls(data, link, target)
    return {"command": "nls-certify", "link": args.link, **_fields(cert)}


def _cmd_kkt(args):
    family = _build_family(args)
    data = _require_dataset(read_csv(args.data), "kkt")
    if not args.constraints:
        raise MestcertError("kkt needs --constraints FILE (rows of a_1..a_p,b)")
    system = read_matrix(args.constraints)
    if system.shape[1] != data.n_features + 1:
        raise MestcertError(
            f"constraint rows must have {data.n_features + 1} entries "
            f"(a_1..a_p, b), got {system.shape[1]}")
    a_mat = system[:, :-1]
    b_vec = system[:, -1]

    def grad(beta):
        return glm.score(data, family, beta)

    def hess(beta):
        return glm.hessian(data, family, beta)

    point = kkt_solve(grad, hess, a_mat, b_vec, tol=args.tol)
    if args.target == "plug-in":
        beta0, nu0 = point.beta, point.nu
    elif args.target == "zeros":
        beta0, nu0 = np.zeros(data.n_features), None
    else:
        vec = read_vector(args.target)
        if vec.shape[0] == data.n_features:
            beta0, nu0 = vec, None
        elif vec.shape[0] == data.n_features + a_mat.shape[0]:
            beta0, nu0 = vec[:data.n_features], vec[data.n_features:]
        else:
            raise MestcertError(
                f"kkt target needs p={data.n_features} (beta) or p+d="
                f"{data.n_features + a_mat.shape[0]} (beta,nu) entries")
    holder_l, alpha = hessian_holder_constant(data, family, beta0)
    cert = certify_constrained(grad, hess, a_mat, b_vec, beta0, nu0=nu0,
                               holder_l=holder_l, alpha=alpha)
    return {
        "command": "kkt",
        "family": args.family,
        "kkt_point": point,
        "target": cert.target_beta,
        "target_nu": cert.target_nu,
        "delta": cert.delta,
        "holder_l": cert.holder_l,
        "alpha": cert.alpha,
        "condition_ok": cert.condition_ok,
        "step": cert.step,
        "remainder_bound": cert.remainder_bound,
    }


_COMMANDS = {
    "fit": _cmd_fit,
    "certify": _cmd_certify,
    "loo": _cmd_loo,
    "screen": _cmd_screen,
    "posi": _cmd_posi,
    "cox-certify": _cmd_cox_certify,
    "nls-certify": _cmd_nls_certify,
    "kkt": _cmd_kkt,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mestcert",
        description="Deterministic certificates for smooth M-estimators.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("data", help="input CSV (header row, 'y' column)")
        p.add_argument("--family", choices=_FAMILIES, default="squared")
        p.add_argument("--family-alpha", type=float, default=None,
                       help="overdispersion parameter for negbinomial")
        p.add_argument("--target", default=None,
                       help="'zeros', 'plug-in', or a vector file "
                            "(default depends on the command)")
        p.add_argument("--q-ref", default=None,
                       help="reference Hessian as headerless CSV")
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--subsets", action="append", default=None,
                       help="1-based row set like '1,4-7'; repeatable "
                            "(loo; default: all singletons)")
        p.add_argument("--models", default=None,
                       help="file with one comma-separated 1-based column "
                            "set per line (posi)")
        p.add_argument("--exact", action="store_true",
                       help="also run exact refit oracles")
        p.add_argument("--link", choices=("logistic", "identity"),
                       default="logistic", help="link for nls-certify")
        p.add_argument("--constraints", default=None,
                       help="headerless CSV of constraint rows a_1..a_p,b (kkt)")
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")
    return parser


def run(args):
    """Execute a parsed command; returns (exit_code, json_text)."""
    if args.target is None:
        args.target = ("plug-in" if args.command in ("screen", "posi", "kkt")
                       else "zeros")
    report = _COMMANDS[args.command](args)
    return 0, dump_json(report)


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
