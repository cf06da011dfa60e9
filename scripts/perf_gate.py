#!/usr/bin/env python3
"""CI perf gate: compare osim_perf medians against the committed budget.

    perf_gate.py [--bench BENCH_replay.json]
                 [--scaled-bench BENCH_replay.256.json]
                 [--budget bench/perf_budget.json]

Reads the BENCH_replay.json produced by `osim_perf` and the floors in
bench/perf_budget.json. Every path in the budget must be present in the
bench record, report the same unit, and have a median at or above its
floor. The budget's "scaling" floors compare two records from the same
machine: the median of a path in --scaled-bench (osim_perf at more
ranks) divided by its median in --bench must be at or above min_ratio.
A replay or lint pass that grows worse than linearly with ranks loses
events/s or records/s as ranks grow, which a fixed floor at one rank
count cannot see.

Exit 0 when everything passes, 1 on any violation, 2 on malformed
input. Malformed covers everything short of a well-formed record: a
missing or truncated file, JSON that is not an object, version skew, a
budget with no floors, non-numeric medians, or a record taken at a rank
count other than the one its floor names -- each exits 2 with a
one-line diagnosis, never a traceback, and never a silent pass. The
floors are intentionally generous (about 8x below a small reference
machine) -- this gate exists to catch order-of-magnitude regressions
such as an accidental O(n^2) in the replay loop, not to referee noisy
CI runners.
"""

import argparse
import json
import sys


class GateInputError(Exception):
    """Malformed bench or budget input; message is the one-line diagnosis."""


def load_object(path: str, what: str) -> dict:
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise GateInputError(f"cannot read {what} {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise GateInputError(
            f"{what} {path!r} is not valid JSON ({e}); "
            "truncated write?") from e
    if not isinstance(data, dict):
        raise GateInputError(
            f"{what} {path!r}: expected a JSON object, got "
            f"{type(data).__name__}")
    return data


def check_schema(data: dict, path: str, what: str, expected: str) -> None:
    schema = data.get("schema")
    if schema != expected:
        raise GateInputError(
            f"{what} {path!r}: schema {schema!r} (expected {expected!r}); "
            "version skew between osim_perf and this gate?")


def as_number(value, what: str) -> float:
    # bool is an int subclass; a true/false median is still malformed.
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise GateInputError(f"{what}: expected a number, got {value!r}")
    return float(value)


def load_bench(path: str) -> dict:
    """A bench record, checked down to its 'paths' object."""
    bench = load_object(path, "bench record")
    check_schema(bench, path, "bench record", "osim-bench-replay-v1")
    if not isinstance(bench.get("paths"), dict):
        raise GateInputError(
            f"bench record {path!r}: missing 'paths' object; "
            "truncated osim_perf run?")
    return bench


def bench_ranks(bench: dict, path: str) -> float:
    workload = bench.get("workload")
    if not isinstance(workload, dict):
        raise GateInputError(f"bench record {path!r}: missing 'workload'")
    return as_number(workload.get("ranks"),
                     f"bench record {path!r} workload ranks")


def path_median(bench: dict, path: str, name: str, unit: str) -> float:
    record = bench["paths"].get(name)
    if not isinstance(record, dict) or record.get("unit") != unit:
        raise GateInputError(
            f"bench record {path!r}: no {name!r} path in {unit!r}")
    median = as_number(record.get("median"),
                       f"bench record {path!r} {name!r} median")
    if median <= 0:
        raise GateInputError(
            f"bench record {path!r}: {name!r} median {median} is not "
            "positive")
    return median


def check_scaling(scaling, base: dict, args: argparse.Namespace) -> list:
    """Checks the ratio floors; returns the failures."""
    if not isinstance(scaling, dict) or not scaling:
        raise GateInputError(
            f"budget {args.budget!r}: 'scaling' must be a non-empty object")
    scaled = load_bench(args.scaled_bench)
    failures = []
    for name, floor in scaling.items():
        if not isinstance(floor, dict) or not all(
                key in floor
                for key in ("unit", "base_ranks", "ranks", "min_ratio")):
            raise GateInputError(
                f"budget scaling floor {name!r}: needs 'unit', "
                "'base_ranks', 'ranks' and 'min_ratio'")
        minimum = as_number(floor["min_ratio"],
                            f"budget scaling floor {name!r} min_ratio")
        for bench, path, key in ((base, args.bench, "base_ranks"),
                                 (scaled, args.scaled_bench, "ranks")):
            want = as_number(floor[key],
                             f"budget scaling floor {name!r} {key}")
            got = bench_ranks(bench, path)
            if got != want:
                raise GateInputError(
                    f"bench record {path!r}: taken at {got:g} ranks, but "
                    f"scaling floor {name!r} needs {key} = {want:g}")
        ratio = (path_median(scaled, args.scaled_bench, name, floor["unit"])
                 / path_median(base, args.bench, name, floor["unit"]))
        label = f"{name}@{floor['ranks']}/{floor['base_ranks']}"
        verdict = "ok" if ratio >= minimum else "FAIL"
        print(f"perf_gate: {label:14s} ratio {ratio:6.3f} "
              f"(floor {minimum:.3f}) {verdict}")
        if ratio < minimum:
            failures.append(
                f"{label}: median ratio {ratio:.3f} below floor "
                f"{minimum:.3f}; worse than linear scaling with ranks?")
    return failures


def run_gate(args: argparse.Namespace) -> int:
    bench = load_bench(args.bench)
    budget = load_object(args.budget, "budget")
    check_schema(budget, args.budget, "budget", "osim-perf-budget-v1")

    paths = bench["paths"]
    floors = budget.get("floors")
    if not isinstance(floors, dict) or not floors:
        # An empty budget must fail loudly: a gate with nothing to check
        # would otherwise pass forever.
        raise GateInputError(
            f"budget {args.budget!r}: no floors to enforce")

    failures = []
    for name, floor in floors.items():
        if not isinstance(floor, dict):
            raise GateInputError(
                f"budget floor {name!r}: expected an object, got "
                f"{floor!r}")
        if "min_median" not in floor or "unit" not in floor:
            raise GateInputError(
                f"budget floor {name!r}: needs 'min_median' and 'unit'")
        minimum = as_number(floor["min_median"],
                            f"budget floor {name!r} min_median")
        record = paths.get(name)
        if record is None:
            failures.append(f"{name}: missing from bench record")
            continue
        if not isinstance(record, dict):
            raise GateInputError(
                f"bench path {name!r}: expected an object, got {record!r}")
        if record.get("unit") != floor["unit"]:
            failures.append(
                f"{name}: unit mismatch (bench {record.get('unit')!r} vs "
                f"budget {floor['unit']!r})")
            continue
        median = as_number(record.get("median", 0.0),
                           f"bench path {name!r} median")
        verdict = "ok" if median >= minimum else "FAIL"
        print(f"perf_gate: {name:8s} {median:14.1f} {floor['unit']} "
              f"(floor {minimum:.1f}) {verdict}")
        if median < minimum:
            failures.append(
                f"{name}: median {median:.1f} {floor['unit']} below floor "
                f"{minimum:.1f}")

    if "scaling" in budget:
        failures += check_scaling(budget["scaling"], bench, args)

    if failures:
        for failure in failures:
            print(f"perf_gate: FAIL {failure}", file=sys.stderr)
        return 1
    print("perf_gate: all paths within budget")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", default="BENCH_replay.json")
    parser.add_argument("--scaled-bench", default="BENCH_replay.256.json",
                        help="osim_perf record at the rank count the "
                        "budget's scaling floors name")
    parser.add_argument("--budget", default="bench/perf_budget.json")
    args = parser.parse_args()
    try:
        return run_gate(args)
    except GateInputError as e:
        print(f"perf_gate: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
