"""Per-layer tracing from outside the program.

The public functions of gint, arith, farey, region and moment are wrapped
by replacing the module attributes the program looks them up through, so
the program's source stays as it is.  Each wrapper adds its call count and
the wall time of its calls (children included) to a shared registry;
self times are derived by subtracting the children afterwards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    calls: int = 0
    seconds: float = 0.0
    items: int = 0  # work counted from the results, where one is given


class Registry:
    def __init__(self):
        self.spans: dict[str, Span] = {}

    def wrap(self, module, name: str, key: str, items=None) -> None:
        """Replace module.name with a timed, counted wrapper; items(result),
        when given, is added to the span's work count."""
        fn = getattr(module, name)
        span = self.spans.setdefault(key, Span())
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.calls += 1
                span.seconds += clock() - t0
            if items is not None:
                span.items += items(out)
            return out

        setattr(module, name, wrapper)


def wrap_setup(reg: Registry, arith, moment) -> None:
    """Set-up layers: the zeta sieve and the quadrature of C."""
    reg.wrap(arith, "get_sieve", "arith.get_sieve", items=lambda sieve: len(sieve.norms))
    reg.wrap(moment, "constant_C", "moment.constant_C")


def wrap_workload(reg: Registry, gint, farey, region, moment) -> None:
    """Layers entered by the timed pass.

    moment looks up consecutive_partner_counts and farey looks up
    enumerate_gs, is_consecutive and is_coprime as module globals;
    moment reaches region and farey through the module objects;
    region.omega_lattice_count imports gint.factor at call time.  So the
    wrappers below sit on every call the workloads make.
    """
    reg.wrap(moment, "moment_first_counting", "moment.moment_first_counting")
    reg.wrap(moment, "consecutive_partner_counts", "moment.consecutive_partner_counts", items=len)
    reg.wrap(moment, "moment_first_direct", "moment.moment_first_direct")
    reg.wrap(region, "omega_lattice_count", "region.omega_lattice_count")
    reg.wrap(gint, "factor", "gint.factor")
    reg.wrap(farey, "consecutive_pairs", "farey.consecutive_pairs", items=len)
    reg.wrap(farey, "enumerate_gs", "farey.enumerate_gs", items=len)
    reg.wrap(farey, "is_consecutive", "farey.is_consecutive")
    reg.wrap(farey, "is_coprime", "gint.is_coprime")


def disc_cache_counts(region) -> tuple[int, int]:
    """(hits, misses) of region._disc_points while that LRU cache exists."""
    info = getattr(getattr(region, "_disc_points", None), "cache_info", None)
    if info is None:
        return 0, 0
    ci = info()
    return ci.hits, ci.misses


def layer_metrics(setup: Registry, timed: Registry, cache: tuple[int, int],
                  import_s: float, rounds: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics: set-up layers once, timed-pass layers per
    round; cache holds the disc-cache (hits, misses) of the timed pass."""
    zero = Span()

    def d(key: str) -> Span:
        return timed.spans.get(key, zero)

    def per_round(x: float) -> float:
        return x / rounds

    count_s = d("region.omega_lattice_count").seconds
    factor_s = d("gint.factor").seconds
    pairs_s = d("farey.consecutive_pairs").seconds
    enum_s = d("farey.enumerate_gs").seconds
    examined = d("farey.is_consecutive").calls
    found = d("farey.consecutive_pairs").items
    hits, misses = cache
    sieve = setup.spans.get("arith.get_sieve", zero)
    return {
        "import.s": (import_s, "s"),
        "arith.get_sieve.s": (sieve.seconds, "s"),
        "arith.sieve.cells": (sieve.items, "count"),
        "moment.constant_C.s": (setup.spans.get("moment.constant_C", zero).seconds, "s"),
        "moment.consecutive_partner_counts.s": (per_round(d("moment.consecutive_partner_counts").seconds), "s"),
        "moment.reduction.s": (per_round(d("moment.moment_first_counting").seconds
                                         - d("moment.consecutive_partner_counts").seconds), "s"),
        "moment.denominators": (per_round(d("moment.consecutive_partner_counts").items), "count"),
        "region.omega_lattice_count.s": (per_round(count_s), "s"),
        "region.omega_lattice_count.calls": (per_round(d("region.omega_lattice_count").calls), "count"),
        "gint.factor.s": (per_round(factor_s), "s"),
        "gint.factor.calls": (per_round(d("gint.factor").calls), "count"),
        "region.kernel_self.s": (per_round(count_s - factor_s), "s"),
        "region.disc_cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "farey.enumerate_gs.s": (per_round(enum_s), "s"),
        "farey.fractions": (per_round(d("farey.enumerate_gs").items), "count"),
        "farey.pair_scan_self.s": (per_round(pairs_s - enum_s), "s"),
        "farey.is_consecutive.calls": (per_round(examined), "count"),
        "farey.consecutive_pairs.count": (per_round(found), "count"),
        "farey.consecutive_yield": (found / examined if examined else 0.0, "ratio"),
        "moment.direct_accumulate.s": (per_round(d("moment.moment_first_direct").seconds - pairs_s), "s"),
        "gint.is_coprime.calls": (per_round(d("gint.is_coprime").calls), "count"),
        "gint.is_coprime.s": (per_round(d("gint.is_coprime").seconds), "s"),
    }
