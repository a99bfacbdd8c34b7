#!/usr/bin/env python3
"""Diff BENCH_*.json files against a baseline and report per-row regressions.

Usage:
  tools/bench_diff.py OLD.json NEW.json [NEW.json ...] [--threshold PCT]
  tools/bench_diff.py --write-median OUT.json RUN.json [RUN.json ...]

All files must come from the same benchmark binary (matching "benchmark"
fields). Rows are matched on their identity fields (every key except the
measured ones); for each match the measured fields are compared and rows whose
time grew by more than --threshold percent (default 5) are flagged as
regressions. Given several NEW files (repeated runs of the same binary), each
measured field is the median over the runs that have the row, so one noisy
run of a sub-millisecond phase does not flag it. Exit status is 1 if any
regression was found, so the script can gate CI.

With --write-median, every file given is a run, and OUT.json gets the same
per-field medians in the benchmark's own layout: a baseline made that way
carries no more noise than the NEW side it is compared with.
"""

import argparse
import json
import statistics
import sys

# Fields that carry measurements; everything else identifies the row.
MEASURE_FIELDS = (
    "seconds",
    "preprocess_seconds",
    "reexec_seconds",
    "postprocess_seconds",
    "ops_per_second",
    "speedup",
    "baseline_seconds",
    "speedup_vs_baseline",
    # fig6_server_overhead record-path fields.
    "off_seconds",
    "karousos_seconds",
    "overhead_seconds",
    "ratio",
    "off_p50_ms",
    "off_p99_ms",
    "karousos_p50_ms",
    "karousos_p99_ms",
    "off_rps",
    "karousos_rps",
    "baseline_overhead_seconds",
    "overhead_speedup",
    # check_overhead static model-check fields.
    "check_seconds",
    "check_per_epoch_ms",
    "audit_seconds",
    # auction_contention hot-key fields. conflicts/abort_rate are workload
    # shape, not speed — reported in the diff but never gated on time.
    "conflicts",
    "abort_rate",
    "serve_off_seconds",
    "serve_karousos_seconds",
    "record_overhead_ratio",
    # advice_size storage-class codec fields: stored bytes per stage, the
    # compression ratios, and the codec's clock cost.
    "raw_advice_bytes",
    "lanes_advice_bytes",
    "lanes_dict_advice_bytes",
    "packed_advice_bytes",
    "advice_ratio",
    "raw_trace_bytes",
    "packed_trace_bytes",
    "trace_ratio",
    "raw_advice_bytes_per_request",
    "packed_advice_bytes_per_request",
    "tags_bytes",
    "handler_logs_bytes",
    "var_logs_bytes",
    "tx_logs_bytes",
    "write_order_bytes",
    "other_bytes",
    "imports_bytes",
    "record_seconds",
    "encode_seconds",
    "decode_seconds",
    "codec_overhead_pct",
    # net_wire front-end fields: throughput, client-observed wire latency,
    # server-side serve time, the karousos-off transport baseline and its
    # record-overhead ratio, and the slow-client bounded-memory counters.
    "wire_rps",
    "wire_p50_ms",
    "wire_p99_ms",
    "serve_seconds",
    "wire_off_rps",
    "wire_record_overhead",
    "peak_buffered_bytes",
    "read_disables",
    # shard_audit scale-out fields: wall-clock is recorded but informational
    # (K real processes on a shared runner are too noisy to gate); the
    # per-process peak RSS is the gated number — sharding exists to shrink it.
    "shard_seconds",
    "audit_parallel_seconds",
    "merge_seconds",
    "shard_peak_rss_mb",
    "merge_peak_rss_mb",
)

# Of the measured fields, the ones where bigger is worse. off_seconds is the
# uninstrumented server and p50/p99 are noisy single-request tails, so for
# fig6 only the instrumented serve time and the collection overhead gate.
TIME_FIELDS = (
    "seconds",
    "preprocess_seconds",
    "reexec_seconds",
    "postprocess_seconds",
    "karousos_seconds",
    "overhead_seconds",
    # check_overhead: gate the checker pass and the screened audit; the
    # per-epoch and percentage columns are derived from these two.
    "check_seconds",
    "audit_seconds",
    # auction_contention: gate the instrumented serve time (audit_seconds
    # above already covers its audit column).
    "serve_karousos_seconds",
    # advice_size: gate the codec's clock cost (sizes are deterministic, so
    # byte fields are covered by the ratio gate below instead).
    "encode_seconds",
    "decode_seconds",
    # net_wire: gate the median client-observed wire latency; p99 and the
    # wall-clock serve time are too noisy on shared runners.
    "wire_p50_ms",
    # shard_audit: gate the per-process peak RSS (smaller is the whole point
    # of sharding; it is also deterministic enough to gate). The three
    # wall-clock columns stay informational.
    "shard_peak_rss_mb",
)

# Measured fields where bigger is BETTER: a shrink beyond the threshold is the
# regression. Used for the advice_size compression ratios — a codec change
# that quietly stops compressing must fail the gate even though no time grew.
RATIO_FIELDS = (
    "advice_ratio",
    "trace_ratio",
    # net_wire throughput: a shrink beyond the threshold is the regression.
    "wire_rps",
)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")


def row_key(row):
    return tuple(sorted((k, v) for k, v in row.items() if k not in MEASURE_FIELDS))


def fmt_key(key):
    return ", ".join(f"{k}={v}" for k, v in key)


def median_rows(docs):
    """Each row's measured fields as their median over the runs that have the
    row, keyed by row identity in first-seen order."""
    runs = {}
    for doc in docs:
        for r in doc.get("rows", []):
            runs.setdefault(row_key(r), []).append(r)
    rows = {}
    for key, group in runs.items():
        fields = {f for r in group for f in r if f in MEASURE_FIELDS}
        median = dict(group[0])
        for f in fields:
            median[f] = statistics.median(r[f] for r in group if f in r)
        rows[key] = median
    return rows


def check_same_benchmark(docs):
    for doc in docs[1:]:
        if docs[0].get("benchmark") != doc.get("benchmark"):
            sys.exit(
                f"error: benchmark mismatch: {docs[0].get('benchmark')!r} vs "
                f"{doc.get('benchmark')!r}"
            )


def write_median(out_path, docs):
    """Writes the runs' median as one BENCH file: the first run's top-level
    fields, then one row per line as the benchmarks print them."""
    head = {k: v for k, v in docs[0].items() if k != "rows"}
    lines = ["{"]
    lines += [f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in head.items()]
    rows = [json.dumps(r, separators=(", ", ": ")) for r in median_rows(docs).values()]
    lines.append('  "rows": [')
    lines.append(",\n".join(f"    {r}" for r in rows))
    lines.append("  ]")
    lines.append("}")
    try:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as e:
        sys.exit(f"error: cannot write {out_path}: {e}")
    print(f"wrote the median of {len(docs)} runs to {out_path}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files",
        nargs="+",
        help="OLD.json then NEW.json runs; with --write-median, the runs alone",
    )
    parser.add_argument(
        "--write-median",
        metavar="OUT",
        help="write the per-field median of the given runs to OUT and exit",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=5.0,
        help="regression threshold in percent (default: 5)",
    )
    args = parser.parse_args()

    if args.write_median:
        docs = [load(path) for path in args.files]
        check_same_benchmark(docs)
        return write_median(args.write_median, docs)
    if len(args.files) < 2:
        parser.error("need OLD.json and at least one NEW.json")

    old = load(args.files[0])
    news = [load(path) for path in args.files[1:]]
    check_same_benchmark([old] + news)

    old_rows = {row_key(r): r for r in old.get("rows", [])}
    new_rows = median_rows(news)

    regressions = []
    print(f"benchmark: {news[0].get('benchmark')}")
    if len(news) > 1:
        print(f"  (each measured field is the median of {len(news)} runs)")
    for key, new_row in new_rows.items():
        old_row = old_rows.get(key)
        if old_row is None:
            print(f"  NEW ROW   {fmt_key(key)}")
            continue
        deltas = []
        regressed = False
        for field in TIME_FIELDS:
            if field not in old_row or field not in new_row:
                continue
            before, after = old_row[field], new_row[field]
            if not before:
                continue
            pct = (after - before) / before * 100.0
            deltas.append(f"{field} {before:.4f}->{after:.4f} ({pct:+.1f}%)")
            if pct > args.threshold:
                regressed = True
        for field in RATIO_FIELDS:
            if field not in old_row or field not in new_row:
                continue
            before, after = old_row[field], new_row[field]
            if not before:
                continue
            pct = (after - before) / before * 100.0
            deltas.append(f"{field} {before:.2f}x->{after:.2f}x ({pct:+.1f}%)")
            if pct < -args.threshold:
                regressed = True
        line = f"{fmt_key(key)}: " + ("; ".join(deltas) if deltas else "no timed fields")
        if regressed:
            regressions.append(line)
            print(f"  REGRESSED {line}")
        else:
            print(f"  ok        {line}")
    for key in old_rows:
        if key not in new_rows:
            print(f"  DROPPED   {fmt_key(key)}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) above {args.threshold:.1f}%:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
