#!/usr/bin/env python3
"""Tests bench/check_gates.py on synthetic bench outputs.

Every measured file starts as a copy of the committed baseline of the same
name. For each gate the gated metric is then set just past its bar (the
checker must exit 1 and name the gate) and just inside it (the gate must
pass; the run exits 0 unless another gate on the same record has a
stricter bar). A missing record fails unless its gate is optional, an
absent optional record passes with a note, a record matched twice or an
unparseable file fails, and every committed baseline passes against
itself.

Run: python3 tests/check_gates_test.py   (ctest: bench_check_gates)
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(ROOT, "bench", "check_gates.py")
sys.path.insert(0, os.path.dirname(CHECKER))
import check_gates  # noqa: E402

GATES = check_gates.GATES
failures = []


def expect(cond, what, output):
    if not cond:
        failures.append("%s\n%s" % (what, output))


def committed():
    docs = {}
    for name in sorted({g["file"] for g in GATES}):
        with open(os.path.join(ROOT, name)) as f:
            docs[name] = json.load(f)
    # Committed files may predate the host-best mark: give it to the fastest
    # SIMD record so the host-best gate has a record to move.
    simd = [r for r in docs["BENCH_kernels.json"]["results"]
            if r.get("kernel") == "minplus_simd" and r.get("b") == 1024]
    if simd and not any(r.get("host_best") for r in simd):
        max(simd, key=lambda r: r["speedup_vs_naive"])["host_best"] = True
    return docs


def check(out_dir):
    p = subprocess.run([sys.executable, CHECKER, out_dir],
                       capture_output=True, text=True)
    return p.returncode, p.stdout + p.stderr


def run(docs):
    """Writes `docs` ({file: parsed JSON or raw text}) to a fresh out-dir
    and runs the checker on it."""
    with tempfile.TemporaryDirectory() as out_dir:
        for name, doc in docs.items():
            with open(os.path.join(out_dir, name), "w") as f:
                f.write(doc if isinstance(doc, str) else json.dumps(doc))
        return check(out_dir)


def line_of(gate, output):
    """The checker's verdict line for `gate`."""
    tag = " %s [%s]:" % (gate["name"], gate["file"])
    return next((l for l in output.splitlines() if tag in l), "")


def same_record(a, b):
    return (a["file"], a["match"], a["metric"]) == (b["file"], b["match"],
                                                    b["metric"])


def expected_bar(gate, baseline):
    """The bar the table states, worked out here rather than by the
    checker."""
    if "limit" in gate:
        return gate["limit"]
    t = gate["tolerance"]
    return baseline[gate["metric"]] * (1 - t if gate["better"] == "higher"
                                       else 1 + t)


def record(docs, gate):
    return check_gates.find(docs[gate["file"]]["results"], gate["match"])


def main():
    base = committed()
    names = {g["name"] for g in GATES}
    expect(len(names) == len(GATES), "gate names must be unique", "")

    rc, out = check(ROOT)
    expect(rc == 0, "committed baselines fail against themselves", out)
    rc, out = run({})
    expect(rc == 1, "an empty out-dir passes", out)

    for gate in GATES:
        baseline = record(base, gate)
        expect(baseline is not None, "%s: no record" % gate["name"], "")
        if baseline is None:
            continue
        threshold = expected_bar(gate, baseline)
        step = max(abs(threshold) * 1e-6, 1e-12)
        outward = -step if gate["better"] == "higher" else step
        shared = [h for h in GATES if h is not gate and same_record(h, gate)]

        for label, value in (("past", threshold + outward),
                             ("inside", threshold - outward)):
            docs = copy.deepcopy(base)
            record(docs, gate)[gate["metric"]] = value
            rc, out = run(docs)
            verdict = line_of(gate, out)
            what = "%s: metric %r %s the bar %r" % (gate["name"], value,
                                                    label, threshold)
            if label == "past":
                expect(rc == 1 and verdict.startswith("FAIL"), what, out)
                continue
            expect(verdict.startswith("ok"), what, out)
            others = [h for h in GATES
                      if line_of(h, out).startswith("FAIL")]
            expect(all(h in shared for h in others), what, out)
            if not shared:
                expect(rc == 0, what, out)

        docs = copy.deepcopy(base)
        docs[gate["file"]]["results"].remove(record(docs, gate))
        rc, out = run(docs)
        verdict = line_of(gate, out)
        if gate.get("optional"):
            expect(rc == 0 and verdict.startswith("ok") and "note" in verdict,
                   "%s: absent optional record" % gate["name"], out)
        else:
            expect(rc == 1 and verdict.startswith("FAIL"),
                   "%s: missing record" % gate["name"], out)

    docs = copy.deepcopy(base)
    gate = GATES[0]
    docs[gate["file"]]["results"].append(dict(record(docs, gate)))
    rc, out = run(docs)
    expect(rc == 1 and line_of(gate, out).startswith("FAIL"),
           "a record matched twice passes", out)

    docs = copy.deepcopy(base)
    docs["BENCH_obs.json"] = "JSON: {\"results\": [\n"
    rc, out = run(docs)
    expect(rc == 1 and all(line_of(g, out).startswith("FAIL") for g in GATES
                           if g["file"] == "BENCH_obs.json"),
           "an unparseable file passes", out)

    for f in failures:
        print("FAILED: " + f)
    print("%d checks failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
