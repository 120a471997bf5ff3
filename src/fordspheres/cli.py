"""Command-line front end.

Human-readable tables go to stdout; machine artifacts (CSV or JSON, always
with a metadata header carrying the tool version, the full configuration
echo, the constants bundle, and the seed) go to files.  Identical
configurations produce byte-identical artifacts apart from the elapsed_s
timing column, for any --threads value (accepted for compatibility; no
command starts worker processes).

Exit codes: 0 success, 2 usage or parse error, 3 numeric domain or cap
violation or a request beyond host memory, 4 verification failure,
5 unwritable output path.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import Any, Sequence

from . import __version__, arith, farey, moment, region, verify
from .gint import DomainError, GInt, ParseError, canonical, parse_gint

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4
EXIT_IO = 5


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run; echoed into every artifact."""

    command: str
    parameters: dict[str, Any]
    seed: int
    threads: int
    output_format: str
    output_path: str | None

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def _metadata(config: RunConfig, include_constants: bool = True) -> dict[str, Any]:
    meta: dict[str, Any] = {
        "tool": "fordspheres",
        "version": __version__,
        "config": config.to_dict(),
    }
    if include_constants:
        constants = dataclasses.asdict(moment.constants_bundle())
        del constants["z2_estimate"]
        meta["constants"] = constants
    return meta


REPORT_COLUMNS = ("S", "method", "normalization", "value", "main_term", "residual", "elapsed_s")


def report_rows(reports: Sequence[moment.MomentReport]) -> list[dict[str, Any]]:
    # each column is the report field of the same name; elapsed_s is elapsed
    return [{c: getattr(r, c.removesuffix("_s")) for c in REPORT_COLUMNS} for r in reports]


def write_csv(path: str, meta: dict[str, Any], columns: Sequence[str], rows: list[dict[str, Any]]) -> None:
    import csv
    import io

    buf = io.StringIO()
    buf.write(f"# {json.dumps(meta, sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[c]) for c in columns])
    _write_text(path, buf.getvalue())


def write_json(path: str, meta: dict[str, Any], rows: list[dict[str, Any]]) -> None:
    _write_text(path, json.dumps({"meta": meta, "rows": rows}, sort_keys=True, indent=2) + "\n")


def read_artifact(path: str) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Parse either artifact format back into (meta, rows)."""
    import csv

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return payload["meta"], payload["rows"]
    lines = [ln for ln in text.splitlines() if ln.strip()]
    meta = json.loads(lines[0][2:]) if lines and lines[0].startswith("# ") else {}
    parsed = list(csv.reader(lines[1:]))
    header = parsed[0]
    rows = []
    for cells in parsed[1:]:
        row: dict[str, Any] = {}
        for key, cell in zip(header, cells):
            try:
                row[key] = int(cell)
            except ValueError:
                try:
                    row[key] = float(cell)
                except ValueError:
                    row[key] = cell
        rows.append(row)
    return meta, rows


def _cell(v: Any) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IoFailure(str(exc)) from exc


class _IoFailure(Exception):
    pass


def _emit(config: RunConfig, meta: dict, columns: Sequence[str], rows: list[dict]) -> None:
    if config.output_path:
        if config.output_format == "json":
            write_json(config.output_path, meta, rows)
        else:
            write_csv(config.output_path, meta, columns, rows)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_enumerate(args, config: RunConfig) -> int:
    # G_S grows like S^4: it is built under the direct route's cap
    if args.S > args.direct_cap:
        raise DomainError(
            f"enumerate capped at S = {args.direct_cap}; "
            f"raise --direct-cap or FORDSPHERES_DIRECT_CAP explicitly"
        )
    fractions = farey.enumerate_gs(args.S)
    for f in fractions:
        print(f)
    if args.json or config.output_path:
        spheres = [(f, f.sphere()) for f in fractions]
        rows = [
            {"fraction": str(f), "base_re": str(sp.base_re), "base_im": str(sp.base_im), "radius": str(sp.radius)}
            for f, sp in spheres
        ]
        meta = _metadata(config, include_constants=False)
        _emit(config, meta, ("fraction", "base_re", "base_im", "radius"), rows)
        if args.json:
            print(json.dumps({"meta": meta, "rows": rows}, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_constants(args, config: RunConfig) -> int:
    payload = dataclasses.asdict(moment.constants_bundle(with_z2=args.with_z2))
    print(json.dumps(payload, sort_keys=True, indent=2))
    _emit(config, _metadata(config), tuple(payload), [payload])
    return EXIT_OK


def cmd_area(args, config: RunConfig) -> int:
    spec = region.OmegaSpec(canonical(parse_gint(args.s)), args.S)
    payload = {
        "s": str(spec.s),
        "S": spec.S,
        "area_closed_form": region.omega_area(spec),
        "lattice_count": region.omega_lattice_count(spec, coprime_filter=False),
        "lattice_count_coprime": region.omega_lattice_count(spec, coprime_filter=True),
        "prediction": region.coprime_count_prediction(spec),
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    _emit(config, _metadata(config), tuple(payload), [payload])
    return EXIT_OK


def _print_report_table(reports):
    header = f"{'S':>6} {'method':>10} {'normalization':>14} {'value':>18} {'main_term':>18} {'residual':>14} {'elapsed_s':>10}"
    print(header)
    for r in reports:
        print(
            f"{r.S:>6} {r.method:>10} {r.normalization:>14} {r.value:>18.8f} "
            f"{r.main_term:>18.8f} {r.residual:>14.6f} {r.elapsed:>10.3f}"
        )


def _calibration_meta() -> dict[str, Any]:
    ratios = moment.calibration_ratios(verify.CALIBRATION_RANGE)
    return {
        "full_over_direct": {str(S): r for S, r in ratios.items()},
        "band": [min(ratios.values()), max(ratios.values())],
    }


def cmd_moment(args, config: RunConfig) -> int:
    if args.normalization is not None and args.method != "counting":
        raise ParseError(f"--normalization applies to --method counting only, not {args.method}")
    reports = [
        moment.evaluate(
            args.S,
            args.method.replace("-", "_"),
            (args.normalization or "omega-full").replace("-", "_"),
            args.direct_cap,
            args.counting_cap,
        )
    ]
    _print_report_table(reports)
    meta = _metadata(config)
    if args.with_calibration:
        meta["calibration"] = _calibration_meta()
    _emit(config, meta, REPORT_COLUMNS, report_rows(reports))
    return EXIT_OK


def _tokens(text: str, flag: str, what: str) -> list[str]:
    """The comma-separated tokens of a list flag; an empty list or an empty
    token is refused."""
    tokens = text.split(",")
    if not all(tokens):
        raise ParseError(f"{flag} must be comma-separated {what}, got {text!r}")
    return tokens


def _levels(text: str) -> list[int]:
    try:
        return [int(tok) for tok in _tokens(text, "--S-values", "integers")]
    except ValueError:
        raise ParseError(f"--S-values must be comma-separated integers, got {text!r}") from None


def cmd_report(args, config: RunConfig) -> int:
    if args.kind == "arith":
        sieve = arith.get_sieve(args.radius)
        rows = []
        for x, y, n, mu, phi in zip(sieve.re, sieve.im, sieve.norms, sieve.mu, sieve.phi):
            rows.append(
                {"q": str(GInt(int(x), int(y))), "norm": int(n), "mu_i": int(mu), "phi_i": int(phi)}
            )
        print(f"{len(rows)} canonical values with |q| <= {args.radius}")
        _emit(config, _metadata(config, include_constants=False), ("q", "norm", "mu_i", "phi_i"), rows)
        return EXIT_OK
    S_values = _levels(args.S_values)
    if args.kind == "bsum":
        eps = args.epsilon
        if not 0.0 < eps < 1.0:
            raise DomainError("epsilon must be in (0, 1)")
        # every S is evaluated (and its domain checked) before any output
        growth = moment.sum_B_growth(S_values, epsilon=eps)
        rows = []
        print(f"{'S':>6} {'B':>16} {'B/S^(1+eps)':>14}   eps = {eps}")
        for S, normalized in growth:
            b_val = normalized * S ** (1.0 + eps)
            rows.append({"S": S, "epsilon": eps, "B": b_val, "B_over_S_1_eps": normalized})
            print(f"{S:>6} {b_val:>16.4f} {normalized:>14.4f}")
        meta = _metadata(config, include_constants=False)
        meta["boundary_surrogate"] = "8*pi*S"
        _emit(config, meta, ("S", "epsilon", "B", "B_over_S_1_eps"), rows)
        return EXIT_OK
    sweep = moment.report_sweep(
        S_values,
        methods=[tok.replace("-", "_") for tok in _tokens(args.methods, "--methods", "method names")],
        normalization=args.normalization.replace("-", "_"),
        direct_cap=args.direct_cap,
        counting_cap=args.counting_cap,
    )
    _print_report_table(sweep.reports)
    for S, m, msg in sweep.errors:
        print(f"row failed: S={S} method={m}: {msg}", file=sys.stderr)
    meta = _metadata(config)
    meta["row_errors"] = [{"S": S, "method": m, "error": msg} for S, m, msg in sweep.errors]
    if args.with_calibration:
        meta["calibration"] = _calibration_meta()
    _emit(config, meta, REPORT_COLUMNS, report_rows(sweep.reports))
    return EXIT_OK


def cmd_verify(args, config: RunConfig) -> int:
    results = verify.run_suite(args.suite)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{res.suite:>6}] {status}  {res.name}  ({res.elapsed:.2f}s)\n         {res.detail}")
        failed += 0 if res.passed else 1
    print(f"\n{len(results) - failed}/{len(results)} checks passed in suite '{args.suite}'")
    if config.output_path:
        rows = [
            {
                "suite": r.suite,
                "name": r.name,
                "passed": int(r.passed),
                "detail": r.detail,
                "elapsed_s": r.elapsed,
            }
            for r in results
        ]
        _emit(config, _metadata(config, include_constants=False),
              ("suite", "name", "passed", "detail", "elapsed_s"), rows)
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _env_cap(name: str, default: int) -> int:
    import os

    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ParseError(f"{name} must be >= 1, got {value}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fordspheres",
        description="Exact enumeration and asymptotic verification of consecutive "
        "Ford sphere radius sums over the Gaussian integers.",
    )
    direct_cap = _env_cap("FORDSPHERES_DIRECT_CAP", moment.DIRECT_CAP_DEFAULT)
    counting_cap = _env_cap("FORDSPHERES_COUNTING_CAP", moment.COUNTING_CAP_DEFAULT)
    parser.add_argument("--version", action="version", version=f"fordspheres {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="seed recorded in artifacts (default 0)")
        p.add_argument(
            "--threads", type=_positive_int, default=1,
            help="accepted for compatibility and recorded in artifacts; starts no processes",
        )
        p.add_argument("--out", choices=("csv", "json"), default="csv", help="artifact format")
        p.add_argument("--out-path", default=None, help="artifact file path")

    def direct_cap_arg(p):
        p.add_argument(
            "--direct-cap", type=_positive_int, default=direct_cap,
            help=f"largest S the direct method and enumerate run (default {direct_cap})",
        )

    def caps(p):
        direct_cap_arg(p)
        p.add_argument(
            "--counting-cap", type=_positive_int, default=counting_cap,
            help=f"largest S the counting method runs (default {counting_cap})",
        )
        p.add_argument(
            "--with-calibration", action="store_true",
            help="embed the measured counting/direct calibration ratios in the artifact metadata",
        )

    p = sub.add_parser("enumerate", help="list the fractions at level S")
    p.add_argument("--S", type=int, required=True)
    p.add_argument("--json", action="store_true", help="also print sphere data as JSON")
    direct_cap_arg(p)
    common(p)

    p = sub.add_parser("constants", help="print the constants bundle as JSON")
    p.add_argument("--with-z2", action="store_true", help="fit the z2 intercept (slow)")
    common(p)

    p = sub.add_parser("area", help="region area and lattice counts for one denominator")
    p.add_argument("--s", required=True, help="denominator in a+bi notation")
    p.add_argument("--S", type=int, required=True)
    common(p)

    p = sub.add_parser("moment", help="one moment evaluation")
    p.add_argument("--S", type=int, required=True)
    p.add_argument("--method", choices=("direct", "counting", "main-term"), default="counting")
    p.add_argument(
        "--normalization", choices=("omega-full", "omega-quarter"), default=None,
        help="counting only (default omega-full); direct rows are omega_quarter, main-term rows none",
    )
    caps(p)
    common(p)

    p = sub.add_parser("report", help="multi-row sweeps, arithmetic tables, B-sum diagnostics")
    p.add_argument("--kind", choices=("sweep", "arith", "bsum"), default="sweep")
    p.add_argument("--S-values", default="1,2,4,8", help="comma-separated levels (sweep, bsum)")
    p.add_argument("--methods", default="direct,counting", help="comma-separated methods (sweep)")
    p.add_argument(
        "--normalization", choices=("omega-full", "omega-quarter"), default="omega-full",
        help="applies to counting rows only; direct rows are omega_quarter, main-term rows none",
    )
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--radius", type=int, default=20, help="|q| bound for the arith table")
    caps(p)
    common(p)

    p = sub.add_parser("verify", help="run the named verification checks")
    p.add_argument("--suite", choices=tuple(verify.suites()) + ("all",), default="all")
    common(p)

    return parser


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "constants": cmd_constants,
    "area": cmd_area,
    "moment": cmd_moment,
    "report": cmd_report,
    "verify": cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parser = build_parser()
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = parser.parse_args(argv)
    config = RunConfig(
        command=args.command,
        parameters={
            k: v
            for k, v in vars(args).items()
            if k not in ("command", "seed", "threads", "out", "out_path")
        },
        seed=args.seed,
        threads=args.threads,
        output_format=args.out,
        output_path=args.out_path,
    )
    try:
        return _COMMANDS[args.command](args, config)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"error: out of host memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _IoFailure as exc:
        print(f"error: cannot write artifact: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
