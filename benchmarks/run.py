"""Benchmark of fordspheres: three workloads, timed end to end or layer by layer.

Run from the root of a checkout (the package is imported from ./src):

    python3 benchmarks/run.py --workload counting --seed 1 --seconds 28 --trace 0

Workloads (one operation is one case: one S of a ladder, or one region spec):

  counting      moment.moment_first_counting(S, "omega_full") on S = 32, 48, 64
  direct        moment.moment_first_direct(S) on S = 8, 10, 12
  region-specs  region.omega_lattice_count(spec, coprime_filter=False/True) on
                95 random specs (s, S), 16 <= S < 512, and one fixed spec
                at S = 512, every S different; the 10 of largest S run
                last, the others in an order drawn from the seed

Each run sets up the package several times in fresh processes for setup_s,
sets it up once more in this process, then repeats whole rounds of the
workload's cases until --seconds is spent (at least one round), checks every
output against benchmarks/oracles.py and prints one JSON line.  Times are
medians over the rounds of the run, each round taken at a fixed reference
speed of the host (benchmarks/calibration.py): on a shared host the same
round runs up to twice as slow while other tenants are busy, in phases of
seconds to minutes.  With --trace 0 the line holds the end-to-end metrics;
with --trace 1 the public functions of the program are wrapped
(benchmarks/layers.py) and it holds the per-layer metrics instead, in
seconds of the host as it ran.  Details of the run go to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import layers
import oracles
from calibration import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

COUNTING_LADDER = (32, 48, 64)
DIRECT_LADDER = (8, 10, 12)
REGION_SPECS = 96
REGION_S_RANGE = (16, 512)
# (1+i) times a prime of norm 76 541: a denominator of the median cost
# among random s at S = 512
REGION_TOP_SPEC = ((89, 381), 512)
REGION_TOP_SPECS = 10
REGION_SPECS_SEED = 0
SETUP_SAMPLES = 3
CALIBRATE_EVERY_S = 0.5

# set-up as a user pays it: import the package, build the constants of the
# main term (zeta sieve to norm 4e6, quadrature of C); timed in the child
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from fordspheres import moment
moment.constants_bundle()
elapsed = time.perf_counter() - t0
if not moment.__file__.startswith(sys.argv[1]):
    raise SystemExit("fordspheres imported from " + moment.__file__)
print(elapsed)
"""


class Workload:
    """Cases of one workload, how to run one, and what one round amounts to."""

    name: str
    cases: list
    top: int  # the cases from this index on are reported as top_case_s
    calibration: str  # the kind of work it is made of (calibration.py)

    def run(self, fs, case):
        raise NotImplementedError

    def references(self) -> list:
        """Independent value of every case, in case order."""
        raise NotImplementedError

    def check(self, case, output, reference) -> str | None:
        raise NotImplementedError

    def work(self, refs: list) -> tuple[int, int]:
        """(denominators, consecutive pairs) handled in one round."""
        raise NotImplementedError


class Counting(Workload):
    name = "counting"
    calibration = "objects"

    def __init__(self, seed: int):
        self.cases = list(COUNTING_LADDER)
        self.top = len(self.cases) - 1

    def run(self, fs, S):
        return fs.moment.moment_first_counting(S, "omega_full").value

    def references(self):
        return [oracles.counting_moment(S) for S in self.cases]

    def check(self, S, value, ref):
        return oracles.check_moment("counting", S, value, ref[0])

    def work(self, refs):
        dens = sum(len(oracles.canonical_denominators(S)) for S in self.cases)
        return dens, sum(r[1] for r in refs)


class Direct(Workload):
    name = "direct"
    calibration = "objects"

    def __init__(self, seed: int):
        self.cases = list(DIRECT_LADDER)
        self.top = len(self.cases) - 1

    def run(self, fs, S):
        return fs.moment.moment_first_direct(S).value

    def references(self):
        return [oracles.direct_moment(S) for S in self.cases]

    def check(self, S, value, ref):
        return oracles.check_moment("direct", S, value, ref[0])

    def work(self, refs):
        dens = sum(len(oracles.canonical_denominators(S)) for S in self.cases)
        return dens, sum(r[1] for r in refs)


class RegionSpecs(Workload):
    name = "region-specs"
    calibration = "arrays"

    def __init__(self, seed: int):
        # one S drawn in each of REGION_SPECS - 1 equal strata of
        # [lo, hi - 1], so that every S differs; s uniform over the
        # canonical cells of modulus <= S.  The specs are drawn once, from
        # REGION_SPECS_SEED, and the run's seed sets the order they run in:
        # drawn from the run's seed, the arithmetic of the large-S
        # denominators (a Gaussian prime has nearly every point coprime and
        # a cheap Moebius sum, a composite far fewer and a dearer one) moved
        # the work of a round, and consecutive_pairs_per_s by a quarter,
        # from seed to seed.  The top cases are the REGION_TOP_SPECS specs
        # of largest S, the last of them a fixed spec at S = 512, run last
        # and in the same order in every round: one spec of 40 ms alone
        # spread by a seventh from run to run as the host's speed flickered.
        rng = random.Random(REGION_SPECS_SEED)
        lo, hi = REGION_S_RANGE
        strata = REGION_SPECS - 1
        width = (hi - lo) / strata
        levels = [rng.randint(lo + int(i * width), lo + int((i + 1) * width) - 1) for i in range(strata)]
        specs = [(oracles.random_canonical(rng, S), S) for S in levels]
        cut = len(specs) - (REGION_TOP_SPECS - 1)
        rest, top = specs[:cut], specs[cut:] + [REGION_TOP_SPEC]
        random.Random(seed).shuffle(rest)
        self.cases = rest + top
        self.top = len(rest)

    def run(self, fs, case):
        (a, b), S = case
        spec = fs.region.OmegaSpec(fs.gint.GInt(a, b), S)
        plain = fs.region.omega_lattice_count(spec, coprime_filter=False)
        coprime = fs.region.omega_lattice_count(spec, coprime_filter=True)
        return plain, coprime

    def references(self):
        return [(oracles.region_count_rows(s, S), oracles.partner_count(s, S)) for s, S in self.cases]

    def check(self, case, output, ref):
        s, S = case
        return oracles.check_region(s, S, *output, *ref)

    def work(self, refs):
        return len(self.cases), sum(r[1] for r in refs)


WORKLOADS = {w.name: w for w in (Counting, Direct, RegionSpecs)}


class Package:
    """The modules of fordspheres the workloads call."""

    def __init__(self):
        from fordspheres import arith, farey, gint, moment, region

        self.arith, self.farey, self.gint, self.moment, self.region = arith, farey, gint, moment, region


def setup_sample() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.split()[-1])


def timed_pass(fs, workload: Workload, seconds: float):
    """Whole rounds of every case until `seconds` is spent: a round starts
    only when the median round so far still fits, and at least one runs.

    The calibration runs before the first case, right before the top cases,
    after the last case of every round, and after any case that ends
    CALIBRATE_EVERY_S or more after the last calibration.  Each case is
    taken at the reference speed by the mean of the calibrations just
    before and after it (calibration.py).  Returns per-round case times,
    the same at the reference speed, the calibration times, per-round
    outputs and the failures."""
    clock = time.perf_counter
    calibration = Calibration(workload.calibration)
    last_case = len(workload.cases) - 1
    times, scaled, outputs, failures, spans = [], [], [], [], []
    start = clock()
    calibrations = [calibration()]
    since = clock()
    while True:
        r0 = clock()
        t_round, s_round, o_round, waiting = [], [], [], []
        for i, case in enumerate(workload.cases):
            t0 = clock()
            try:
                out = workload.run(fs, case)
            except Exception as exc:  # noqa: BLE001 - a failed case is data
                out = None
                failures.append(f"{case}: {type(exc).__name__}: {exc}")
            t_round.append(clock() - t0)
            o_round.append(out)
            waiting.append(i)
            if i in (workload.top - 1, last_case) or clock() - since >= CALIBRATE_EVERY_S:
                calibrations.append(calibration())
                since = clock()
                k = 2 * calibration.reference_s / (calibrations[-2] + calibrations[-1])
                s_round += [t_round[j] * k for j in waiting]
                waiting = []
        times.append(t_round)
        scaled.append(s_round)
        outputs.append(o_round)
        spans.append(clock() - r0)
        if clock() - start + statistics.median(spans) > seconds:
            return times, scaled, calibrations, outputs, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fordspheres" / "__init__.py").is_file():
        print(f"error: no fordspheres package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    setup_s = [setup_sample() for _ in range(SETUP_SAMPLES)]

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    fs = Package()
    import_s = time.perf_counter() - t0
    if not fs.moment.__file__.startswith(str(SRC)):
        print(f"error: fordspheres imported from {fs.moment.__file__}", file=sys.stderr)
        return 2
    setup_reg, timed_reg = layers.Registry(), layers.Registry()
    if args.trace:
        layers.wrap_setup(setup_reg, fs.arith, fs.moment)
    fs.moment.constants_bundle()
    if args.trace:
        layers.wrap_workload(timed_reg, fs.gint, fs.farey, fs.region, fs.moment)

    hits0, misses0 = layers.disc_cache_counts(fs.region)
    times, scaled, calibrations, outputs, failures = timed_pass(fs, workload, args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    hits1, misses1 = layers.disc_cache_counts(fs.region)

    refs = workload.references()
    errors = []
    for o_round in outputs:
        for case, out, ref in zip(workload.cases, o_round, refs):
            if out is not None:
                msg = workload.check(case, out, ref)
                if msg:
                    errors.append(msg)
    denominators, pairs = workload.work(refs)
    rounds = len(times)
    round_s = statistics.median(sum(t) for t in scaled)
    wall_s = statistics.median(sum(t) for t in times)
    cases = len(workload.cases)

    if args.trace:
        metrics = layers.layer_metrics(setup_reg, timed_reg, (hits1 - hits0, misses1 - misses0), import_s, rounds)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "round_s": (round_s, "s"),
            "top_case_s": (statistics.median(sum(t[workload.top:]) for t in scaled), "s"),
            "denominators_per_s": (denominators / round_s, "1/s"),
            "consecutive_pairs_per_s": (pairs / round_s, "1/s"),
            "specs_per_s": (cases / round_s, "1/s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    result = {
        "correct": not errors,
        "attempted": rounds * cases,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    detail = dict(
        result,
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        cases=[str(c) for c in workload.cases], rounds=rounds, round_case_s=times,
        calibration_s=calibrations, round_s=round_s, wall_s=wall_s, setup_samples_s=setup_s, import_s=import_s,
        errors=errors, failures=failures,
        spans={k: vars(v) for k, v in {**setup_reg.spans, **timed_reg.spans}.items()},
        machine=dict(cpus=os.cpu_count(), python=platform.python_version(),
                     numpy=numpy.__version__, platform=platform.platform()),
    )
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    for msg in errors[:10] + failures[:10]:
        print(msg, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
