"""Command-line front end: from argv to a printed table and an artifact.

Human-readable tables go to stdout; machine artifacts (CSV or JSON, always
with a metadata header carrying the tool version, the full configuration
echo, the constants bundle, and the seed) go to files, all written by
_emit.  Identical configurations produce byte-identical artifacts apart
from the elapsed_s timing column, for any --threads value (accepted for
compatibility; no command starts worker processes).

The method and normalization names are the library's (moment.METHODS,
moment.NORMALIZATIONS), spelled with '-' for '_' on the command line
(main-term); _library_name maps a token back and refuses a name the
library does not have, so an unknown --methods name is a usage error
before any row runs.  moment and report --kind sweep end in one tail,
_reports: the table, the failed rows of a sweep, the calibration ratios
on request, and the artifact.

Exit codes: 0 success, 2 usage or parse error, 3 numeric domain or cap
violation or a request beyond host memory, 4 verification failure,
5 unwritable output path.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
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


def _metadata(config: RunConfig, include_constants: bool = True) -> dict[str, Any]:
    meta: dict[str, Any] = {
        "tool": "fordspheres",
        "version": __version__,
        "config": dataclasses.asdict(config),
    }
    if include_constants:
        constants = dataclasses.asdict(moment.constants_bundle())
        del constants["z2_estimate"]
        meta["constants"] = constants
    return meta


class _IoFailure(Exception):
    pass


def _emit(config: RunConfig, meta: dict, columns: Sequence[str], rows: list[dict]) -> None:
    """Write the artifact to --out-path, if one is given: JSON holds the
    metadata and the rows; CSV holds the metadata as one '# ' comment line,
    then the columns and one line per row (str of each value, so a float
    is its repr)."""
    if not config.output_path:
        return
    if config.output_format == "json":
        text = json.dumps({"meta": meta, "rows": rows}, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# {json.dumps(meta, sort_keys=True)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([str(row[c]) for c in columns] for row in rows)
        text = buf.getvalue()
    try:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IoFailure(str(exc)) from exc


def _choices(names: Sequence[str]) -> list[str]:
    """The command-line spelling of library names: main_term is main-term."""
    return [name.replace("_", "-") for name in names]


def _library_name(token: str, flag: str, names: Sequence[str]) -> str:
    """The library name of a command-line token (main-term is main_term);
    a token that names none of names is refused."""
    name = token.replace("-", "_")
    if name not in names:
        raise ParseError(f"{flag} takes {', '.join(_choices(names))}; got {token!r}")
    return name


def _tokens(text: str, flag: str, what: str, convert) -> list:
    """The comma-separated tokens of a list flag, each converted; an empty
    list, an empty token or one that convert refuses by ValueError is
    refused."""
    tokens = text.split(",")
    try:
        if all(tokens):
            return [convert(tok) for tok in tokens]
    except ValueError:
        pass
    raise ParseError(f"{flag} must be comma-separated {what}, got {text!r}")


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


REPORT_COLUMNS = ("S", "method", "normalization", "value", "main_term", "residual", "elapsed_s")


def _reports(args, config: RunConfig, reports: list[moment.MomentReport], errors: list | None = None) -> int:
    """The tail of moment and report --kind sweep: the table on stdout,
    one stderr line per failed row, and the artifact, whose metadata
    records the row errors of a sweep and, on request, the calibration
    ratios."""
    print(f"{'S':>6} {'method':>10} {'normalization':>14} {'value':>18} {'main_term':>18} {'residual':>14} {'elapsed_s':>10}")
    for r in reports:
        print(
            f"{r.S:>6} {r.method:>10} {r.normalization:>14} {r.value:>18.8f} "
            f"{r.main_term:>18.8f} {r.residual:>14.6f} {r.elapsed:>10.3f}"
        )
    meta = _metadata(config)
    if errors is not None:
        for S, m, msg in errors:
            print(f"row failed: S={S} method={m}: {msg}", file=sys.stderr)
        meta["row_errors"] = [{"S": S, "method": m, "error": msg} for S, m, msg in errors]
    if args.with_calibration:
        ratios = moment.calibration_ratios(verify.CALIBRATION_RANGE)
        meta["calibration"] = {
            "full_over_direct": {str(S): r for S, r in ratios.items()},
            "band": [min(ratios.values()), max(ratios.values())],
        }
    # each column is the report field of the same name; elapsed_s is elapsed
    rows = [{c: getattr(r, c.removesuffix("_s")) for c in REPORT_COLUMNS} for r in reports]
    _emit(config, meta, REPORT_COLUMNS, rows)
    return EXIT_OK


def cmd_moment(args, config: RunConfig) -> int:
    if args.normalization is not None and args.method != "counting":
        raise ParseError(f"--normalization applies to --method counting only, not {args.method}")
    report = moment.evaluate(
        args.S,
        _library_name(args.method, "--method", moment.METHODS),
        _library_name(args.normalization or "omega-full", "--normalization", moment.NORMALIZATIONS),
        args.direct_cap,
        args.counting_cap,
    )
    return _reports(args, config, [report])


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
    S_values = _tokens(args.S_values, "--S-values", "integers", int)
    if args.kind == "bsum":
        eps = args.epsilon
        # every S and epsilon is evaluated (and its domain checked) before any output
        values = [moment.sum_B(S, eps) for S in S_values]
        rows = []
        print(f"{'S':>6} {'B':>16} {'B/S^(1+eps)':>14}   eps = {eps}")
        for S, b_val in zip(S_values, values):
            normalized = b_val / S ** (1.0 + eps)
            rows.append({"S": S, "epsilon": eps, "B": b_val, "B_over_S_1_eps": normalized})
            print(f"{S:>6} {b_val:>16.4f} {normalized:>14.4f}")
        meta = _metadata(config, include_constants=False)
        meta["boundary_surrogate"] = "8*pi*S"
        _emit(config, meta, ("S", "epsilon", "B", "B_over_S_1_eps"), rows)
        return EXIT_OK
    tokens = _tokens(args.methods, "--methods", "method names", str)
    methods = [_library_name(m, "--methods", moment.METHODS) for m in tokens]
    sweep = moment.report_sweep(
        S_values,
        methods,
        _library_name(args.normalization, "--normalization", moment.NORMALIZATIONS),
        args.direct_cap,
        args.counting_cap,
    )
    return _reports(args, config, sweep.reports, sweep.errors)


def cmd_verify(args, config: RunConfig) -> int:
    results = verify.run_suite(args.suite)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{res.suite:>6}] {status}  {res.name}  ({res.elapsed:.2f}s)\n         {res.detail}")
        failed += 0 if res.passed else 1
    print(f"\n{len(results) - failed}/{len(results)} checks passed in suite '{args.suite}'")
    columns = ("suite", "name", "passed", "detail", "elapsed_s")
    rows = [dict(zip(columns, (r.suite, r.name, int(r.passed), r.detail, r.elapsed))) for r in results]
    _emit(config, _metadata(config, include_constants=False), columns, rows)
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _env_cap(name: str, default: int) -> int:
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
    p.add_argument("--method", choices=_choices(moment.METHODS), default="counting")
    p.add_argument(
        "--normalization", choices=_choices(moment.NORMALIZATIONS), default=None,
        help="counting only (default omega-full); direct rows are omega_quarter, main-term rows none",
    )
    caps(p)
    common(p)

    p = sub.add_parser("report", help="multi-row sweeps, arithmetic tables, B-sum diagnostics")
    p.add_argument("--kind", choices=("sweep", "arith", "bsum"), default="sweep")
    p.add_argument("--S-values", default="1,2,4,8", help="comma-separated levels (sweep, bsum)")
    p.add_argument("--methods", default="direct,counting", help="comma-separated methods (sweep)")
    p.add_argument(
        "--normalization", choices=_choices(moment.NORMALIZATIONS), default="omega-full",
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
