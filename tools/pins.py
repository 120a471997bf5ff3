"""The pinned values and memory bounds of the CI, one function per pin.

    python tools/pins.py [name ...]

runs the named pins, or all of them, each in a fresh Python process, so
that each memory bound measures one process: a pin that runs the CLI
bounds the peak RSS of that CLI process (RUSAGE_CHILDREN), and one that
calls the library bounds its own (RUSAGE_SELF).  Each pin prints one
line with what it measured and returns True when it holds; the script
exits 1 if any pin fails and 2 on an unknown name.  Every pin is called
by exactly one step of .github/workflows/tests.yml
(tests/test_tooling.py checks that).  The package must be importable:
installed, or with PYTHONPATH=src.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
import time


def _cli_row(argv: list[str]) -> dict:
    """The first row of a JSON artifact that the CLI writes, in a child
    process."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "artifact.json")
        subprocess.run([sys.executable, "-m", "fordspheres.cli", *argv, "--out", "json", "--out-path", out], check=True)
        with open(out) as f:
            return json.load(f)["rows"][0]


def _children_peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def direct_64() -> bool:
    """Direct route memory at S = 64: neither G_S nor the finds are kept,
    the run holds the table of pair ends per level and norm (4.2 MB) and
    one shell block at a time (about 47 MiB in all); a list of the pair
    ends took it to 155 MiB and a cached table of G_64 past 500 MiB.  The
    value must also be the exact sum's float, bit for bit."""
    value = _cli_row(["moment", "--S", "64", "--method", "direct", "--direct-cap", "64"])["value"]
    peak = _children_peak_mib()
    print(f"peak RSS {peak:.0f} MiB (at most 96), value {value.hex()}")
    return peak <= 96 and value.hex() == "0x1.28fa99bc37055p+13"


def direct_identity_96() -> bool:
    """Direct identity at S = 96, past verify's reconciliation range
    (2..71): the scan's exact total is the exact counting total over four
    plus the real-axis correction, compared cross-multiplied with the
    oracle's unreduced pair num/den, and its float is pinned bit for bit
    (about 3 s and 61 MiB in one fresh process)."""
    from fordspheres import moment, oracles

    direct = moment.direct_total(96)
    rest = direct - moment.real_axis_correction(96)
    num, den = oracles.counting_total(96)
    ok = 4 * den * rest.numerator == num * rest.denominator
    print(f"identity holds: {ok}, value {float(direct).hex()}")
    return ok and float(direct).hex() == "0x1.4f3b6bb0c9426p+14"


def counting_total_512() -> bool:
    """Exact counting total at S = 512: the per-denominator oracle's exact
    total over 205,868 cells and 60,108 distinct norms, as its unreduced
    pair num/den (about 3 s and 255 MiB in one fresh process, the route
    included); its float num / den is pinned bit for bit.  The route is
    1 ulp low here (0x1.2b5b986eef255p+21), so it is held within 2^-50
    relative, not to the exact float, by comparing |vn den - num vd| with
    num vd / 2^50 in integers."""
    from fordspheres import moment, oracles

    num, den = oracles.counting_total(512)
    route = moment.moment_first_counting(512).value
    vn, vd = route.as_integer_ratio()
    gap, scale = abs(vn * den - num * vd), num * vd
    print(f"exact {(num / den).hex()}, route {route.hex()}, relative error {gap / scale:.2e}")
    return (num / den).hex() == "0x1.2b5b986eef256p+21" and gap * 2**50 <= scale


def counting_total_1024() -> bool:
    """Exact counting total at S = 1024: the same oracle over 823,524 cells
    and 226,419 distinct norms, with a root of 4.19 million bits that is
    never reduced (about 16 s and 1,020 MiB in one fresh process; reducing
    it took another 14 s); its float is pinned bit for bit, and the peak
    RSS is bounded at 1.2 GiB."""
    from fordspheres import oracles

    t0 = time.perf_counter()
    num, den = oracles.counting_total(1024)
    elapsed = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"exact {(num / den).hex()} in {elapsed:.1f} s, peak RSS {peak:.0f} MiB (at most 1229)")
    return (num / den).hex() == "0x1.2b86211845596p+23" and peak <= 1.2 * 1024


def counting_2048() -> bool:
    """Counting route at S = 2048: the lattice kernel on 5.7 million
    (t, bound) pairs, whose float boundaries lie up to 2,047 rows out; the
    value must be the route's float bit for bit, at a peak RSS of about
    470 MiB."""
    value = _cli_row(["moment", "--S", "2048", "--method", "counting", "--counting-cap", "2048"])["value"]
    peak = _children_peak_mib()
    print(f"peak RSS {peak:.0f} MiB (at most 640), value {value.hex()}")
    return peak <= 640 and value.hex() == "0x1.2b9b86296a57bp+25"


def per_spec_counts() -> bool:
    """Per-spec counts through the CLI: the benchmark's fixed spec, (1 + i)
    times a prime of norm 76 541 at S = 512, where the plain count is one t
    in the per-t mode and the coprime count a Moebius batch of four
    divisors built from the primes of the norm; and 195 + 195i at S = 300,
    the product of six Gaussian primes, whose batch of 64 divisors runs on
    arrays.  Every count must equal those of the benchmark's independent
    oracles (region_count_rows, partner_count)."""
    want = {("89+381i", 512): (769116, 384548), ("195+195i", 300): (280396, 67924)}
    ok = True
    for (s, S), expected in want.items():
        row = _cli_row(["area", "--s", s, "--S", str(S)])
        counts = row["lattice_count"], row["lattice_count_coprime"]
        print(f"{s} at S = {S}: lattice_count {counts[0]}, lattice_count_coprime {counts[1]}")
        ok &= counts == expected
    return ok


PINS = {f.__name__: f for f in (direct_64, direct_identity_96, counting_total_512, counting_total_1024, counting_2048, per_spec_counts)}


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in PINS]
    if unknown:
        print(f"unknown pin {', '.join(unknown)}; the pins are {', '.join(PINS)}", file=sys.stderr)
        return 2
    names = names or list(PINS)
    failed = []
    for name in names:
        print(f"== {name}", flush=True)
        code = f"import runpy, sys; sys.exit(not runpy.run_path({os.path.abspath(__file__)!r})[{name!r}]())"
        if subprocess.run([sys.executable, "-c", code]).returncode:
            failed.append(name)
    print(f"{len(names) - len(failed)}/{len(names)} pins hold" + "".join(f"; {n} failed" for n in failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
