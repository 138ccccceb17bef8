#!/usr/bin/env python3
"""Checks fresh bench results against every speed, size and time bar.

    bench/run_benches.sh build bench-out
    python3 bench/check_gates.py bench-out

Each gate names one record of one BENCH_*.json file by exact field match,
one metric of it, the direction that is better, and one bar: an absolute
`limit`, or a `tolerance` relative to the same record in the committed file
of the same name at the repository root. The measured record is read from
<out-dir>/<file>. A gate marked optional prints a note when the measured run
has no such record (the bench emits it only where the bar means something:
a multi-core host, a SIMD-capable host); any other missing record fails.

Exit status: 0 when every gate holds, 1 when one fails, 2 on bad usage.
Correctness (bitwise equality, oracle checks, invariants) is not gated here:
the bench binaries check it and exit non-zero themselves.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Bars shared by CI and local runs. Speedups are same-run ratios, so they
# transfer across hosts better than absolute rates, but hosted runners still
# differ from the 4-vCPU AVX-512 Xeon that produced the committed files:
# the machine-dependent relative bars are wide. Model seconds, byte counts
# and modelled makespans are deterministic, so their 10% band is strict.
GATES = [
    {"name": "fig2 tiled minplus b=1024 (floor)",
     "file": "BENCH_kernels.json",
     "match": {"kernel": "minplus", "variant": "tiled", "b": 1024},
     "metric": "speedup_vs_naive", "better": "higher", "limit": 1.5},
    {"name": "fig2 tiled minplus b=1024 (vs baseline)",
     "file": "BENCH_kernels.json",
     "match": {"kernel": "minplus", "variant": "tiled", "b": 1024},
     "metric": "speedup_vs_naive", "better": "higher", "tolerance": 0.69},
    {"name": "fig2 bit-packed boolean closure b=1024 (floor)",
     "file": "BENCH_kernels.json",
     "match": {"kernel": "boolean_packed", "variant": "bitpacked",
               "b": 1024},
     "metric": "speedup_vs_naive", "better": "higher", "limit": 2.0},
    {"name": "fig2 bit-packed boolean closure b=1024 (vs baseline)",
     "file": "BENCH_kernels.json",
     "match": {"kernel": "boolean_packed", "variant": "bitpacked",
               "b": 1024},
     "metric": "speedup_vs_naive", "better": "higher", "tolerance": 0.69},
    # AVX2 is the lowest common denominator of x86 runners, so this record
    # compares like with like across hosts; a host without AVX2 has none.
    {"name": "fig2 SIMD avx2 minplus b=1024 (vs baseline)",
     "file": "BENCH_kernels.json",
     "match": {"kernel": "minplus_simd", "variant": "avx2", "b": 1024},
     "metric": "speedup_vs_naive", "better": "higher", "tolerance": 0.69,
     "optional": True},
    {"name": "fig2 SIMD host-best minplus b=1024 (floor)",
     "file": "BENCH_kernels.json",
     "match": {"kernel": "minplus_simd", "host_best": True, "b": 1024},
     "metric": "speedup_vs_naive", "better": "higher", "limit": 1.2,
     "optional": True},
    {"name": "fig2 work-stealing task batch b=128 (floor)",
     "file": "BENCH_kernels.json",
     "match": {"kernel": "sched_batch", "variant": "work_steal", "b": 128},
     "metric": "speedup_vs_naive", "better": "higher", "limit": 1.2,
     "optional": True},
    {"name": "fig3 blocked-CB MD B=2 b=1024 model time",
     "file": "BENCH_fig3.json",
     "match": {"section": "fig3", "solver": "cb", "partitioner": "MD",
               "B": 2, "b": 1024},
     "metric": "model_seconds", "better": "lower", "tolerance": 0.10},
    {"name": "ksource tiled rect kernel b=1024 k=64 (floor)",
     "file": "BENCH_ksource.json",
     "match": {"section": "rect_kernel", "variant": "tiled", "b": 1024,
               "k": 64},
     "metric": "speedup_vs_naive", "better": "higher", "limit": 0.9},
    {"name": "ksource tiled rect kernel b=1024 k=64 (vs baseline)",
     "file": "BENCH_ksource.json",
     "match": {"section": "rect_kernel", "variant": "tiled", "b": 1024,
               "k": 64},
     "metric": "speedup_vs_naive", "better": "higher", "tolerance": 0.55},
    {"name": "ksource shuffle-plane solve driver peak",
     "file": "BENCH_ksource.json",
     "match": {"section": "solve", "variant": "tiled",
               "data_plane": "shuffle"},
     "metric": "driver_peak_bytes", "better": "lower", "tolerance": 0.10},
    {"name": "multitenant fair-share makespan",
     "file": "BENCH_multitenant.json",
     "match": {"section": "multitenant"},
     "metric": "fair_makespan_seconds", "better": "lower",
     "tolerance": 0.10},
    # Wall-clock qps on a shared runner: trips only when the hot-vertex
    # path (zipf) or the cache-miss path (uniform: block read, CRC32C
    # check, decode) gets several times slower, not on runner-to-runner
    # variance.
    {"name": "serve zipf qps",
     "file": "BENCH_serve.json",
     "match": {"section": "serve", "workload": "zipf"},
     "metric": "qps", "better": "higher", "tolerance": 0.80},
    {"name": "serve uniform qps",
     "file": "BENCH_serve.json",
     "match": {"section": "serve", "workload": "uniform"},
     "metric": "qps", "better": "higher", "tolerance": 0.80},
    # The overheads are noisy ratios near zero, where a band around the
    # baseline means nothing: fixed ceilings. A traced solve that is not
    # bitwise-identical has no matching record.
    {"name": "obs traced-solve overhead",
     "file": "BENCH_obs.json",
     "match": {"section": "obs", "bitwise_equal": True},
     "metric": "overhead", "better": "lower", "limit": 0.05},
    {"name": "obs disabled-hook overhead",
     "file": "BENCH_obs.json",
     "match": {"section": "obs", "bitwise_equal": True},
     "metric": "overhead_disabled", "better": "lower", "limit": 0.01},
]


def load_records(path):
    """The `results` list of a bench JSON file, or None if it is absent."""
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)["results"]


def find(records, match):
    """The one record whose fields equal `match`, or None. A bool field
    matches only a JSON bool (True == 1 in Python)."""
    hits = [r for r in records or []
            if all(k in r and r[k] == v
                   and isinstance(r[k], bool) == isinstance(v, bool)
                   for k, v in match.items())]
    if len(hits) > 1:
        raise ValueError("%d records match %s" % (len(hits), match))
    return hits[0] if hits else None


def bar(gate, baseline):
    """The bar the measured metric must reach, and how it was derived."""
    if "limit" in gate:
        return gate["limit"], "limit"
    base = baseline[gate["metric"]]
    factor = (1 - gate["tolerance"] if gate["better"] == "higher"
              else 1 + gate["tolerance"])
    return base * factor, "baseline %g x %g" % (base, factor)


def check(gate, out_dir):
    """One gate's verdict: (ok, message)."""
    measured = find(load_records(os.path.join(out_dir, gate["file"])),
                    gate["match"])
    if measured is None:
        if gate.get("optional"):
            return True, "note: no measured record, skipped"
        return False, "no measured record matching %s" % gate["match"]
    baseline = None
    if "tolerance" in gate:
        baseline = find(load_records(os.path.join(ROOT, gate["file"])),
                        gate["match"])
        if baseline is None:
            return False, "no baseline record matching %s" % gate["match"]
    value = measured[gate["metric"]]
    threshold, source = bar(gate, baseline)
    if gate["better"] == "higher":
        ok, op = value >= threshold, ">="
    else:
        ok, op = value <= threshold, "<="
    return ok, "%s %g, bar %s %g (%s)" % (gate["metric"], value, op,
                                          threshold, source)


def main(argv):
    if len(argv) != 2 or not os.path.isdir(argv[1]):
        print("usage: check_gates.py <out-dir>", file=sys.stderr)
        return 2
    failed = 0
    for gate in GATES:
        try:
            ok, message = check(gate, argv[1])
        except (OSError, ValueError, KeyError) as e:
            ok, message = False, "%s: %s" % (type(e).__name__, e)
        print("%-4s %s [%s]: %s" % ("ok" if ok else "FAIL", gate["name"],
                                     gate["file"], message))
        failed += not ok
    print("%d of %d gates failed" % (failed, len(GATES)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
