import csv
import json
import os
import platform
import subprocess
import sys

import pytest

from fordspheres import arith, cli, moment, verify


def read_artifact(path):
    """Parse either artifact format back into (meta, rows)."""
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
        row = {}
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


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnumerate:
    def test_level_two_prints_nine_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--S", "2")
        lines = [ln for ln in out.splitlines() if ln]
        assert code == 0
        assert len(lines) == 9
        assert "i/(1+i)" in lines

    def test_json_artifact(self, capsys, tmp_path):
        path = tmp_path / "gs.json"
        code, _, _ = run(capsys, "enumerate", "--S", "1", "--out", "json", "--out-path", str(path))
        assert code == 0
        meta, rows = read_artifact(str(path))
        assert meta["tool"] == "fordspheres"
        assert meta["config"]["command"] == "enumerate"
        assert len(rows) == 4
        assert {r["radius"] for r in rows} == {"1/2"}

    def test_json_is_printed_with_an_artifact(self, capsys, tmp_path):
        # --json prints the rows and --out-path writes them, also together
        path = tmp_path / "gs.json"
        code, out, _ = run(capsys, "enumerate", "--S", "1", "--json", "--out", "json", "--out-path", str(path))
        assert code == 0
        printed = json.loads(out[out.index("{"):])
        meta, rows = read_artifact(str(path))
        assert len(rows) == 4
        assert printed["rows"] == rows
        assert printed["meta"]["config"] == meta["config"]

    def test_level_beyond_the_direct_cap_is_refused_before_any_build(self, capsys, monkeypatch):
        from fordspheres import farey

        def no_cells(max_norm):
            raise AssertionError("G_S was built")

        cells = arith.canonical_cells
        monkeypatch.setattr(arith, "canonical_cells", no_cells)
        for argv in (("--S", "4", "--direct-cap", "3"), ("--S", "2000")):
            code, out, err = run(capsys, "enumerate", *argv)
            assert (code, out) == (cli.EXIT_NUMERIC, "")
            assert "capped" in err
        monkeypatch.setattr(arith, "canonical_cells", cells)
        code, out, _ = run(capsys, "enumerate", "--S", "3", "--direct-cap", "3")
        assert code == 0
        assert len(out.splitlines()) == len(farey.gs_arrays(3)[0])

    def test_cap_override_via_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("FORDSPHERES_DIRECT_CAP", "3")
        assert run(capsys, "enumerate", "--S", "4")[0] == cli.EXIT_NUMERIC
        assert run(capsys, "enumerate", "--S", "3")[0] == 0

    @pytest.mark.parametrize("command", ["enumerate", "moment", "report"])
    def test_direct_cap_help_shows_its_default(self, capsys, monkeypatch, command):
        # one declaration of --direct-cap, with its help, for all three
        monkeypatch.delenv("FORDSPHERES_DIRECT_CAP", raising=False)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert f"--direct-cap DIRECT_CAP largest S the direct method and enumerate run (default {moment.DIRECT_CAP_DEFAULT})" in out


class TestOutFormat:
    @pytest.mark.parametrize(
        "argv, count",
        [
            (("enumerate", "--S", "1"), 4),
            (("constants",), 1),
            (("area", "--s", "1+i", "--S", "4"), 1),
        ],
    )
    def test_csv_and_json_hold_the_same_rows(self, capsys, tmp_path, argv, count):
        rows = {}
        for fmt in ("csv", "json"):
            path = tmp_path / f"artifact.{fmt}"
            code, _, _ = run(capsys, *argv, "--out", fmt, "--out-path", str(path))
            assert code == 0
            assert path.read_text().startswith("{") == (fmt == "json")
            meta, got = read_artifact(str(path))
            assert meta["config"]["output_format"] == fmt
            rows[fmt] = [{k: str(v) for k, v in row.items()} for row in got]
        assert len(rows["csv"]) == count
        assert rows["csv"] == rows["json"]


class TestConstants:
    def test_payload(self, capsys):
        code, out, _ = run(capsys, "constants")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["C"] - 0.68644) < 1e-4
        assert payload["main_coeff"] == pytest.approx(9.3652, abs=2e-4)
        assert payload["z2_estimate"] is None
        assert payload["zeta_i_2"] == arith.ZETA_I_2
        assert set(payload) == {"C", "zeta_i_2", "zeta_i_inv_2", "main_coeff", "z1", "z2_estimate"}


class TestConstantsZ2:
    def test_with_z2_fits_the_intercept(self, capsys):
        code, out, _ = run(capsys, "constants", "--with-z2")
        assert code == 0
        payload = json.loads(out)
        assert payload["z2_estimate"] == pytest.approx(0.4174, abs=0.02)


class TestArea:
    def test_payload(self, capsys):
        code, out, _ = run(capsys, "area", "--s", "1+i", "--S", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["prediction"] == pytest.approx(payload["area_closed_form"] / 2)
        assert payload["lattice_count_coprime"] <= payload["lattice_count"]

    def test_bad_literal_is_usage_error(self, capsys):
        code, _, err = run(capsys, "area", "--s", "zzz", "--S", "4")
        assert code == cli.EXIT_USAGE
        assert "literal" in err

    def test_noncanonical_is_accepted(self, capsys):
        code, out, _ = run(capsys, "area", "--s=-i", "--S", "3")
        assert code == 0
        assert json.loads(out)["s"] == "1"

    def test_modulus_beyond_level_is_numeric_error(self, capsys):
        code, _, err = run(capsys, "area", "--s", "5+5i", "--S", "4")
        assert code == cli.EXIT_NUMERIC
        assert "|s| <= S" in err


class TestMoment:
    def test_direct_row(self, capsys, tmp_path):
        path = tmp_path / "row.csv"
        code, out, _ = run(
            capsys, "moment", "--S", "1", "--method", "direct", "--out-path", str(path)
        )
        assert code == 0
        meta, rows = read_artifact(str(path))
        assert rows[0]["value"] == 4.0
        assert rows[0]["method"] == "direct"
        assert "constants" in meta and "C" in meta["constants"]

    def test_artifact_reproduces_report_exactly(self, capsys, tmp_path):
        from fordspheres import moment as m

        rep = m.moment_first_direct(4)
        path = tmp_path / "row.json"
        run(capsys, "moment", "--S", "4", "--method", "direct", "--out", "json",
            "--out-path", str(path))
        _, rows = read_artifact(str(path))
        assert rows[0]["value"] == rep.value
        assert rows[0]["main_term"] == rep.main_term
        assert rows[0]["residual"] == rep.residual
        assert rows[0]["normalization"] == rep.normalization

    def test_with_calibration_metadata(self, capsys, tmp_path):
        path = tmp_path / "row.json"
        code, _, _ = run(
            capsys, "moment", "--S", "4", "--method", "counting",
            "--with-calibration", "--out", "json", "--out-path", str(path),
        )
        assert code == 0
        meta, _ = read_artifact(str(path))
        cal = meta["calibration"]["full_over_direct"]
        assert cal["4"] == pytest.approx(3.6318, abs=1e-3)
        assert cal["12"] == pytest.approx(3.9436, abs=1e-3)
        lo, hi = meta["calibration"]["band"]
        assert 3.6 < lo < hi < 4.0

    def test_cap_violation_exit_code(self, capsys):
        code, _, err = run(capsys, "moment", "--S", "40", "--method", "direct")
        assert code == cli.EXIT_NUMERIC
        assert "capped" in err

    def test_direct_past_the_int64_limit_exits_numeric(self, capsys):
        # refused by the documented limit check, not by a failed allocation
        code, out, err = run(capsys, "moment", "--S", "8192", "--method", "direct", "--direct-cap", "8192")
        assert (code, out) == (cli.EXIT_NUMERIC, "")
        assert err == "error: G_S arrays are exact in int64 for S < 8192; got 8192\n"

    def test_main_term_beyond_the_float_range_exits_numeric(self, capsys):
        code, out, err = run(capsys, "moment", "--S", str(10**160), "--method", "main-term")
        assert (code, out) == (cli.EXIT_NUMERIC, "")
        assert err == "error: S too large: its main term is beyond the float range\n"

    def test_cap_override_via_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("FORDSPHERES_DIRECT_CAP", "3")
        code, _, _ = run(capsys, "moment", "--S", "4", "--method", "direct")
        assert code == cli.EXIT_NUMERIC
        code, _, _ = run(capsys, "moment", "--S", "3", "--method", "direct")
        assert code == 0

    @pytest.mark.parametrize("name", ["FORDSPHERES_DIRECT_CAP", "FORDSPHERES_COUNTING_CAP"])
    def test_non_integer_cap_in_environment_is_usage_error(self, capsys, monkeypatch, name):
        monkeypatch.setenv(name, "abc")
        code, out, err = run(capsys, "moment", "--S", "2")
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and name in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["-3", "0", "two"])
    def test_bad_thread_count_is_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["moment", "--S", "2", "--threads", value])
        assert exc.value.code == cli.EXIT_USAGE
        assert "--threads" in capsys.readouterr().err

    def test_epsilon_is_not_a_moment_option(self, capsys):
        # the B-sum exponent belongs to report --kind bsum only
        with pytest.raises(SystemExit) as exc:
            cli.main(["moment", "--S", "2", "--epsilon", "0.1"])
        assert exc.value.code == cli.EXIT_USAGE
        assert "--epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["direct", "main-term"])
    @pytest.mark.parametrize("normalization", ["omega-full", "omega-quarter"])
    def test_normalization_is_refused_outside_counting(self, capsys, method, normalization):
        code, out, err = run(
            capsys, "moment", "--S", "4", "--method", method, "--normalization", normalization
        )
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "--normalization" in err

    def test_normalization_rows(self, capsys, tmp_path):
        path = tmp_path / "row.csv"
        argv = ("moment", "--S", "4", "--out-path", str(path))
        for extra, want in (
            ((), "omega_full"),
            (("--normalization", "omega-quarter"), "omega_quarter"),
            (("--method", "direct"), "omega_quarter"),
            (("--method", "main-term"), "none"),
        ):
            code, _, _ = run(capsys, *argv, *extra)
            assert code == 0
            assert read_artifact(str(path))[1][0]["normalization"] == want

    def test_report_normalization_help_names_counting(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["report", "--help"])
        assert "counting rows only" in " ".join(capsys.readouterr().out.split())

    def test_unwritable_path(self, capsys):
        code, _, err = run(
            capsys, "moment", "--S", "1", "--method", "direct",
            "--out-path", "/nonexistent-dir/row.csv",
        )
        assert code == cli.EXIT_IO
        assert "artifact" in err

    def _strip_elapsed(self, text: str) -> str:
        lines = text.splitlines()
        out = []
        for ln in lines:
            if ln.startswith("#") or "," not in ln:
                out.append(ln)
            else:
                out.append(",".join(ln.split(",")[:-1]))
        return "\n".join(out)

    def test_byte_determinism_across_threads(self, capsys, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        run(capsys, "moment", "--S", "5", "--method", "counting", "--out-path", str(p1))
        run(
            capsys, "moment", "--S", "5", "--method", "counting",
            "--threads", "2", "--out-path", str(p2),
        )
        a = self._strip_elapsed(p1.read_text())
        b = self._strip_elapsed(p2.read_text())
        # configs differ only in the threads echo; compare rows
        assert a.splitlines()[1:] == b.splitlines()[1:]

    def test_repeat_run_identical(self, capsys, tmp_path):
        path = tmp_path / "a.csv"
        run(capsys, "moment", "--S", "4", "--method", "counting", "--out-path", str(path))
        first = path.read_text()
        run(capsys, "moment", "--S", "4", "--method", "counting", "--out-path", str(path))
        assert self._strip_elapsed(first) == self._strip_elapsed(path.read_text())


class TestBadInput:
    # each case exits with its documented code, with one error line on
    # stderr, no traceback and nothing on stdout
    def _refused(self, capsys, code, argv, word):
        got, out, err = run(capsys, *argv)
        assert got == code
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert word in err

    @pytest.mark.parametrize("command", ["moment", "report"])
    @pytest.mark.parametrize("flag", ["--direct-cap", "--counting-cap"])
    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_cap_below_one(self, capsys, command, flag, value):
        # refused by the parser, as --threads is: usage lines, then one error line
        argv = [command, flag, value] + (["--S", "4", "--method", "direct"] if command == "moment" else [])
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == cli.EXIT_USAGE
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and flag in errors[0] and "must be >= 1" in errors[0]

    @pytest.mark.parametrize("name", ["FORDSPHERES_DIRECT_CAP", "FORDSPHERES_COUNTING_CAP"])
    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_cap_below_one_in_environment(self, capsys, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        self._refused(capsys, cli.EXIT_USAGE, ("moment", "--S", "4", "--method", "direct"), name)

    @pytest.mark.parametrize(
        "argv, code, word",
        [
            (("--S", "-3", "--method", "counting"), cli.EXIT_NUMERIC, "S must be >= 1"),
            (("--S", "0", "--method", "counting"), cli.EXIT_NUMERIC, "S must be >= 1"),
            (("--S", "-3", "--method", "direct"), cli.EXIT_NUMERIC, "S must be >= 1"),
            (("--S", "0", "--method", "direct"), cli.EXIT_NUMERIC, "S must be >= 1"),
        ],
    )
    def test_moment(self, capsys, argv, code, word):
        self._refused(capsys, code, ("moment",) + argv, word)

    @pytest.mark.parametrize(
        "argv, code, word",
        [
            (("--S-values", "1,x"), cli.EXIT_USAGE, "--S-values"),
            (("--kind", "bsum", "--S-values", "1,x"), cli.EXIT_USAGE, "--S-values"),
            (("--kind", "bsum", "--S-values", "-3"), cli.EXIT_NUMERIC, "S must be >= 1"),
            (("--kind", "bsum", "--S-values", "4,0"), cli.EXIT_NUMERIC, "S must be >= 1"),
            (("--kind", "arith", "--radius", "-2"), cli.EXIT_NUMERIC, "radius"),
            # a sieve to norm 46341^2 >= 2^31 is refused before any table exists
            (("--kind", "arith", "--radius", "46341"), cli.EXIT_NUMERIC, "2^31"),
            # an empty list or an empty token is refused, not dropped
            (("--S-values", ""), cli.EXIT_USAGE, "--S-values"),
            (("--S-values", "1,,2"), cli.EXIT_USAGE, "--S-values"),
            (("--S-values", "1,2,"), cli.EXIT_USAGE, "--S-values"),
            (("--kind", "bsum", "--S-values", ""), cli.EXIT_USAGE, "--S-values"),
            (("--kind", "bsum", "--S-values", "1,,2"), cli.EXIT_USAGE, "--S-values"),
            (("--S-values", "1,2", "--methods", ""), cli.EXIT_USAGE, "--methods"),
            (("--S-values", "1,2", "--methods", "direct,,counting"), cli.EXIT_USAGE, "--methods"),
            # an unknown method name is refused before any row runs
            (("--S-values", "1,2", "--methods", "direct,foo"), cli.EXIT_USAGE, "--methods"),
        ],
    )
    def test_report(self, capsys, argv, code, word):
        self._refused(capsys, code, ("report",) + argv, word)

    def test_zeta_radius_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["constants", "--zeta-radius", "2000"])
        assert exc.value.code == cli.EXIT_USAGE
        assert "--zeta-radius" in capsys.readouterr().err

    def test_host_memory_failure(self, capsys, monkeypatch):
        # stands in for a table beyond host memory (report --kind arith
        # --radius 46340 asks for 12.6 GiB); an empty cache makes the sieve
        # reach canonical_cells
        def out_of_memory(max_norm):
            raise MemoryError(f"cannot allocate the cells to norm {max_norm}")

        monkeypatch.setattr(arith, "_sieve_cache", [])
        monkeypatch.setattr(arith, "canonical_cells", out_of_memory)
        self._refused(capsys, cli.EXIT_NUMERIC, ("report", "--kind", "arith", "--radius", "1000"), "memory")


class TestReport:
    def test_sweep_artifact_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        code, _, _ = run(
            capsys, "report", "--S-values", "1,2", "--methods", "direct,counting",
            "--out", "json", "--out-path", str(path),
        )
        assert code == 0
        meta, rows = read_artifact(str(path))
        assert len(rows) == 4
        values = {(r["S"], r["method"]): r["value"] for r in rows}
        assert values[(1, "direct")] == 4.0
        assert values[(1, "counting")] == 8.0
        assert meta["row_errors"] == []

    def test_arith_table(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "report", "--kind", "arith", "--radius", "5", "--out-path", str(path)
        )
        assert code == 0
        _, rows = read_artifact(str(path))
        by_q = {str(r["q"]): r for r in rows}
        assert by_q["1+i"]["phi_i"] == 1
        assert by_q["2"]["mu_i"] == 0
        assert by_q["3"]["phi_i"] == 8
        assert all(r["norm"] <= 25 for r in rows)

    def test_bsum_diagnostics(self, capsys, tmp_path):
        import math

        path = tmp_path / "bsum.csv"
        code, out, _ = run(
            capsys, "report", "--kind", "bsum", "--S-values", "1,16",
            "--epsilon", "0.1", "--out-path", str(path),
        )
        assert code == 0
        meta, rows = read_artifact(str(path))
        assert meta["boundary_surrogate"] == "8*pi*S"
        assert rows[0]["B"] == pytest.approx(8 * math.pi)
        assert rows[1]["B_over_S_1_eps"] == pytest.approx(rows[1]["B"] / 16**1.1)

    def test_bsum_values_are_those_of_sum_B(self, capsys, tmp_path):
        # B is moment.sum_B itself, not B/S^(1+eps) multiplied back
        path = tmp_path / "bsum.json"
        code, _, _ = run(
            capsys, "report", "--kind", "bsum", "--S-values", "2,8,57",
            "--epsilon", "0.3", "--out", "json", "--out-path", str(path),
        )
        assert code == 0
        _, rows = read_artifact(str(path))
        for row, S in zip(rows, (2, 8, 57)):
            assert row["B"] == moment.sum_B(S, 0.3), S
            assert row["B_over_S_1_eps"] == moment.sum_B(S, 0.3) / S**1.3, S

    @pytest.mark.parametrize("eps", ["1.5", "0", "-0.1"])
    def test_bsum_epsilon_out_of_range_prints_nothing(self, capsys, eps):
        code, out, err = run(capsys, "report", "--kind", "bsum", "--epsilon", eps)
        assert code == cli.EXIT_NUMERIC
        assert out == ""
        assert "epsilon" in err

    def test_row_errors_reported(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys, "report", "--S-values", "1,40", "--methods", "direct",
            "--out-path", str(path),
        )
        assert code == 0
        assert "row failed" in err
        meta, rows = read_artifact(str(path))
        assert len(rows) == 1

    def test_main_term_row_beyond_the_float_range_fails_alone(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys, "report", "--S-values", f"1,{10**160}", "--methods", "main-term",
            "--out-path", str(path),
        )
        assert code == 0
        assert [line.startswith("row failed:") for line in err.splitlines()] == [True]
        meta, rows = read_artifact(str(path))
        assert [row["S"] for row in rows] == [1]
        assert len(meta["row_errors"]) == 1


class TestVerifyCommand:
    def test_artifact_roundtrips_with_commas(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(
            verify,
            "_REGISTRY",
            [("toy", "commas, quotes", lambda: (True, 'detail with, commas and "quotes"'))],
        )
        path = tmp_path / "verify.csv"
        code, _, _ = run(capsys, "verify", "--suite", "toy", "--out-path", str(path))
        assert code == 0
        _, rows = read_artifact(str(path))
        assert rows[0]["detail"] == 'detail with, commas and "quotes"'
        assert rows[0]["passed"] == 1

    def test_failing_check_sets_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verify, "_REGISTRY", [("toy", "always fails", lambda: (False, "by design"))]
        )
        code, out, _ = run(capsys, "verify", "--suite", "toy")
        assert code == cli.EXIT_VERIFY
        assert "FAIL" in out

    def test_passing_suite_exits_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verify, "_REGISTRY", [("toy", "fine", lambda: (True, "ok"))]
        )
        code, out, _ = run(capsys, "verify", "--suite", "toy")
        assert code == 0
        assert "1/1 checks passed" in out


class TestVersionAndUsage:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    def test_unknown_command_is_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2


class TestColdStart:
    @staticmethod
    def _fresh(code):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)

    def test_import_loads_no_scipy(self):
        # the constants build needs no quadrature and no arbitrary
        # precision: mpmath is imported only by the tanh-sinh oracle, and
        # scipy by nothing (the package does not depend on it)
        code = (
            "import sys, fordspheres, fordspheres.cli\n"
            "fordspheres.constants_bundle()\n"
            "print('scipy' in sys.modules, 'mpmath' in sys.modules)\n"
        )
        assert self._fresh(code).stdout.strip() == "False False"
        # the set-up that benchmarks/run.py times loads no checking code
        # either; the CLI above loads verify, and with it the oracles, by
        # design
        code = (
            "import sys\n"
            "from fordspheres import moment\n"
            "moment.constants_bundle()\n"
            "checking = {'fordspheres.oracles', 'fordspheres.verify', 'fordspheres.cli', 'mpmath', 'scipy'}\n"
            "print(sorted(checking & set(sys.modules)))\n"
        )
        assert self._fresh(code).stdout.strip() == "[]"

    def test_quadrature_oracles_run_without_scipy(self):
        # a None entry in sys.modules makes any import of scipy fail
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from fordspheres import verify\n"
            "print(verify.check_constant_schemes()[0], verify.check_area_vs_quadrature()[0])\n"
        )
        assert self._fresh(code).stdout.strip() == "True True"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc thresholds are set on glibc only")
    def test_repeat_calls_reuse_freed_arrays(self):
        # with glibc's default thresholds each counting call at S = 64
        # faults about 850 pages of fresh temporaries in again
        code = (
            "import resource, fordspheres\n"
            "fordspheres.moment_first_counting(64)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(10):\n"
            "    fordspheres.moment_first_counting(64)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert int(self._fresh(code).stdout) < 1000
