"""The CLI contract as a golden file.

Each case below runs cli.main in-process, in an empty working directory,
with the fixed artifact path ``artifact.out`` (the path is echoed into the
artifact), 80 terminal columns (argparse wraps its usage lines to them), no
cap variables in the environment and a two-check toy registry for
``verify``.  cli_golden.json holds, per case, the exit code, stdout, stderr
and the artifact text, with the timings masked: the elapsed_s cells of
both artifact formats, the elapsed column of the moment table and the
``(x.xxs)`` of each verify line.

Regenerate with ``PYTHONPATH=src python tests/test_cli_golden.py``.  The
file was recorded from the CLI before its front end was merged into one
vocabulary, one artifact writer and one report tail; every entry is that
CLI's output except ``report --methods direct,foo``, which then exited 3
from the library's DomainError and is now refused as a usage error
(exit 2) before any row runs, and the B cell of the JSON bsum case at
S = 2, which was B/S^(1+eps) multiplied back by S^(1+eps) (one ulp off
moment.sum_B) and is now moment.sum_B itself.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from fordspheres import cli, verify

GOLDEN = Path(__file__).with_name("cli_golden.json")
OUT = "artifact.out"

CASES = (
    ("enumerate", "--S", "2", "--out-path", OUT),
    ("enumerate", "--S", "1", "--json", "--out", "json", "--out-path", OUT),
    ("constants", "--out-path", OUT),
    ("constants", "--out", "json", "--out-path", OUT),
    ("area", "--s", "1+i", "--S", "4", "--out-path", OUT),
    ("area", "--s=-2+i", "--S", "6", "--out", "json", "--out-path", OUT),
    ("moment", "--S", "4", "--out-path", OUT),
    ("moment", "--S", "5", "--method", "direct", "--out", "json", "--out-path", OUT),
    ("moment", "--S", "3", "--method", "main-term", "--seed", "7", "--threads", "2", "--out-path", OUT),
    ("moment", "--S", "6", "--normalization", "omega-quarter", "--with-calibration", "--out", "json", "--out-path", OUT),
    ("report", "--S-values", "1,2", "--methods", "direct,counting,main-term", "--out-path", OUT),
    ("report", "--S-values", "2,40", "--normalization", "omega-quarter", "--out", "json", "--out-path", OUT),
    ("report", "--S-values", "3", "--methods", "counting", "--with-calibration", "--out-path", OUT),
    ("report", "--kind", "arith", "--radius", "4", "--out-path", OUT),
    ("report", "--kind", "arith", "--radius", "3", "--out", "json", "--out-path", OUT),
    ("report", "--kind", "bsum", "--S-values", "1,16", "--out-path", OUT),
    ("report", "--kind", "bsum", "--S-values", "2,8", "--epsilon", "0.3", "--out", "json", "--out-path", OUT),
    ("verify", "--out-path", OUT),
    ("verify", "--suite", "toy", "--out", "json", "--out-path", OUT),
    # bad input
    ("report", "--S-values", "1,2", "--methods", "direct,foo", "--out-path", OUT),
    ("report", "--S-values", "1,,2"),
    ("report", "--kind", "bsum", "--epsilon", "1.5"),
    ("moment", "--S", "4", "--method", "foo"),
    ("moment", "--S", "4", "--method", "direct", "--normalization", "omega-full"),
    ("moment", "--S", "0", "--method", "direct"),
    ("moment", "--S", "40", "--method", "direct"),
    ("moment", "--S", "1", "--method", "direct", "--out-path", "missing/artifact.out"),
    ("area", "--s", "zzz", "--S", "4"),
)

TOY_REGISTRY = [
    ("toy", "passes, with commas", lambda: (True, 'detail with, commas and "quotes"')),
    ("toy", "always fails", lambda: (False, "by design")),
]


def environment(mp: pytest.MonkeyPatch, workdir: str) -> None:
    mp.chdir(workdir)
    mp.delenv("FORDSPHERES_DIRECT_CAP", raising=False)
    mp.delenv("FORDSPHERES_COUNTING_CAP", raising=False)
    mp.setenv("COLUMNS", "80")
    mp.setattr(verify, "_REGISTRY", TOY_REGISTRY)


_TABLE_ROW = re.compile(r"(\s*\d+ +\S+ +\S+ +\S+ +\S+ +\S+ +)\d+\.\d{3}")


def _mask_csv(text: str) -> str:
    # elapsed_s is the last column wherever it appears: its cells are the
    # text after each row's last comma
    header, *rows = text.split("\n")[1:]
    if not header.endswith(",elapsed_s"):
        return text
    return text.replace("\n".join(rows), "\n".join(re.sub(r",[^,]*$", ",x", row) for row in rows))


def mask(stdout: str, artifact: str | None) -> tuple[str, str | None]:
    stdout = "".join(
        _TABLE_ROW.sub(r"\1x.xxx", line) if _TABLE_ROW.fullmatch(line.rstrip("\n")) else line
        for line in stdout.splitlines(keepends=True)
    )
    stdout = re.sub(r"\(\d+\.\d\ds\)", "(x.xxs)", stdout)
    if artifact is not None:
        if artifact.startswith("{"):
            artifact = re.sub(r'"elapsed_s": [^,\n]+', '"elapsed_s": "x"', artifact)
        else:
            artifact = _mask_csv(artifact)
    return stdout, artifact


def record(argv) -> dict:
    """Run one case in the current directory; its outputs, timings masked."""
    if os.path.exists(OUT):
        os.remove(OUT)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    artifact = Path(OUT).read_text(encoding="utf-8") if os.path.exists(OUT) else None
    stdout, artifact = mask(out.getvalue(), artifact)
    return {"argv": list(argv), "exit": code, "stdout": stdout, "stderr": err.getvalue(), "artifact": artifact}


def _golden() -> dict[str, dict]:
    return {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_golden_file_covers_the_cases():
    assert list(_golden()) == [" ".join(argv) for argv in CASES]


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_matches_golden(argv, tmp_path, monkeypatch):
    environment(monkeypatch, str(tmp_path))
    assert record(argv) == _golden()[" ".join(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        environment(mp, tmp)
        cases = [record(argv) for argv in CASES]
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
