#!/usr/bin/env sh
# bench.sh — run the hot-path benchmark suite and record a
# benchstat-comparable baseline.
#
# Usage: scripts/bench.sh [count]
#
# Writes its artifacts under .bench_build/ (gitignored: these are
# per-host measurements, not files to commit):
#   BENCH_hotpath.txt  — raw `go test -bench` output; feed two of these
#                        to benchstat to compare revisions.
#   BENCH_hotpath.json — parsed {benchmark: {ns_op, b_op, allocs_op}}
#                        for trajectory tracking across PRs.
#   BENCH_eventq.txt   — event-queue depth sweep: calendar vs heap at
#                        1k/16k/256k standing events, plus the
#                        end-to-end Figure 3 regeneration.
#   BENCH_eventq.json  — the sweep parsed, with the pre-calendar
#                        (binary-heap, PR 1) baselines embedded so one
#                        file carries the before/after comparison.
#   BENCH_fusion.txt   — hop-fusion differential: the fused fast path
#                        against the -fuse=off per-hop event oracle, at
#                        the single-traversal and end-to-end levels.
#   BENCH_fusion.json  — the differential parsed, with fused/unfused
#                        speedup columns.
#   BENCH_arb.txt      — arbitration differential: the wake-list
#                        arbiter (default) against the -arb=scan
#                        round-robin rescan oracle, uncongested and
#                        hot-spot congested, medians of >=3 counts.
#   BENCH_arb.json     — the differential parsed, with wake speedup
#                        columns per regime.
#
# The suite covers the three hot-path layers (table lookup, engine
# push/pop, one switch traversal) plus the end-to-end Figure 3
# regeneration whose allocs/op the alloc-regression tests gate.
set -eu

cd "$(dirname "$0")/.."
count="${1:-1}"
dir=.bench_build
mkdir -p "$dir"

out_txt=$dir/BENCH_hotpath.txt
out_json=$dir/BENCH_hotpath.json

{
  go test -run '^$' -bench 'BenchmarkLookup$' -benchmem -count "$count" ./internal/core/
  go test -run '^$' -bench 'BenchmarkEnginePushPop' -benchmem -count "$count" ./internal/sim/
  go test -run '^$' -bench 'BenchmarkSwitchHop$' -benchmem -count "$count" ./internal/fabric/
  go test -run '^$' -bench 'BenchmarkFigure3$|BenchmarkSimulationEngine$' -benchmem -benchtime 3x -count "$count" .
} | tee "$out_txt"

awk '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns[name] = $3; b[name] = $5; al[name] = $7
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
  }
  END {
    printf "{\n"
    for (i = 1; i <= n; i++) {
      k = order[i]
      printf "  \"%s\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}%s\n",
        k, ns[k], b[k], al[k], (i < n ? "," : "")
    }
    printf "}\n"
  }
' "$out_txt" > "$out_json"

# Event-queue depth sweep. BenchmarkEventQueueDepth pits the calendar
# queue against the heap at three standing depths; the depth=1k point
# of the heap reproduces the old BenchmarkEnginePushPopDepth regime.
# The sweep reuses one engine per sub-benchmark, so allocs/op doubles
# as the zero-steady-state-allocation check at every depth.
eq_txt=$dir/BENCH_eventq.txt
eq_json=$dir/BENCH_eventq.json

{
  go test -run '^$' -bench 'BenchmarkEnginePushPopDepth$|BenchmarkEventQueueDepth' \
    -benchmem -count "$count" ./internal/sim/
  go test -run '^$' -bench 'BenchmarkFigure3$' -benchmem -benchtime 3x -count "$count" .
} | tee "$eq_txt"

awk '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns[name] = $3; b[name] = $5; al[name] = $7
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
  }
  END {
    printf "{\n"
    printf "  \"baseline_pr1_heap\": {\n"
    printf "    \"BenchmarkEnginePushPopDepth\": {\"ns_op\": 159.8, \"b_op\": 0, \"allocs_op\": 0},\n"
    printf "    \"BenchmarkFigure3\": {\"ns_op\": 423900000}\n"
    printf "  },\n"
    printf "  \"current\": {\n"
    for (i = 1; i <= n; i++) {
      k = order[i]
      printf "    \"%s\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}%s\n",
        k, ns[k], b[k], al[k], (i < n ? "," : "")
    }
    printf "  }\n"
    printf "}\n"
  }
' "$eq_txt" > "$eq_json"

# Hop-fusion differential. The fused and unfused engines are
# bit-identical in results (the fusion differential suite enforces
# it), so the pair is purely a wall-clock measurement: the unfused
# numbers are the per-hop event oracle, and the speedup columns are
# what fusing the uncongested arrival→route→arbitrate→depart chain
# into single dispatches buys at each level.
fu_txt=$dir/BENCH_fusion.txt
fu_json=$dir/BENCH_fusion.json

{
  go test -run '^$' -bench 'BenchmarkSwitchHop$|BenchmarkSwitchHopUnfused$' \
    -benchmem -count "$count" ./internal/fabric/
  go test -run '^$' -bench 'BenchmarkFigure3$|BenchmarkFigure3Unfused$' \
    -benchmem -benchtime 3x -count "$count" .
} | tee "$fu_txt"

awk '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns[name] = $3; b[name] = $5; al[name] = $7
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
  }
  END {
    printf "{\n"
    for (i = 1; i <= n; i++) {
      k = order[i]
      printf "  \"%s\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s},\n",
        k, ns[k], b[k], al[k]
    }
    hop = "BenchmarkSwitchHop"; hopu = "BenchmarkSwitchHopUnfused"
    fig = "BenchmarkFigure3"; figu = "BenchmarkFigure3Unfused"
    printf "  \"fusion_speedup\": {"
    if (ns[hop] > 0 && ns[hopu] > 0)
      printf "\"switch_hop\": %.3f", ns[hopu] / ns[hop]
    if (ns[fig] > 0 && ns[figu] > 0)
      printf ", \"figure3\": %.3f", ns[figu] / ns[fig]
    printf "}\n"
    printf "}\n"
  }
' "$fu_txt" > "$fu_json"

# Arbitration differential. The wake-list arbiter and the scanning
# oracle are bit-identical in results (the arbiter differential suite
# enforces it), so the pair is purely a wall-clock measurement. Four
# regimes: a single uncongested traversal (BenchmarkSwitchHop vs
# BenchmarkSwitchHopScanArb), a contended 4-packet burst fighting for
# one link (BenchmarkArbCongested/{wake,scan}), the end-to-end
# Figure 3 panel (BenchmarkFigure3 vs BenchmarkFigure3ArbScan), and a
# saturated hot-spot run (BenchmarkArbHotSpot/{wake,scan}) — the
# congested regimes are where retiring the O(points^2) rescan pays.
# Runs at a minimum of 3 counts and reports MEDIAN ns/op.
arb_txt=$dir/BENCH_arb.txt
arb_json=$dir/BENCH_arb.json

arb_count="$count"
[ "$arb_count" -lt 3 ] && arb_count=3

{
  go test -run '^$' -bench 'BenchmarkSwitchHop$|BenchmarkSwitchHopScanArb$|BenchmarkArbCongested' \
    -benchmem -count "$arb_count" ./internal/fabric/
  go test -run '^$' -bench 'BenchmarkFigure3$|BenchmarkFigure3ArbScan$|BenchmarkArbHotSpot' \
    -benchmem -benchtime 3x -count "$arb_count" .
} | tee "$arb_txt"

awk '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    cnt[name]++
    samples[name, cnt[name]] = $3
    b[name] = $5; al[name] = $7
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
  }
  function median(key,    m, i, j, tmp, vals) {
    m = cnt[key]
    for (i = 1; i <= m; i++) vals[i] = samples[key, i] + 0
    for (i = 1; i <= m; i++)
      for (j = i + 1; j <= m; j++)
        if (vals[j] < vals[i]) { tmp = vals[i]; vals[i] = vals[j]; vals[j] = tmp }
    if (m % 2) return vals[(m + 1) / 2]
    return (vals[m / 2] + vals[m / 2 + 1]) / 2
  }
  function speedup(wake, scan,    mw, ms) {
    mw = median(wake); ms = median(scan)
    if (mw > 0 && ms > 0) return ms / mw
    return 0
  }
  END {
    printf "{\n"
    printf "  \"metric\": \"median ns/op of %d counts\",\n", cnt[order[1]]
    for (i = 1; i <= n; i++) {
      k = order[i]
      printf "  \"%s\": {\"ns_op\": %.0f, \"b_op\": %s, \"allocs_op\": %s},\n",
        k, median(k), b[k], al[k]
    }
    printf "  \"wake_speedup\": {"
    printf "\"switch_hop\": %.3f", speedup("BenchmarkSwitchHop", "BenchmarkSwitchHopScanArb")
    printf ", \"congested_burst\": %.3f", speedup("BenchmarkArbCongested/wake", "BenchmarkArbCongested/scan")
    printf ", \"figure3\": %.3f", speedup("BenchmarkFigure3", "BenchmarkFigure3ArbScan")
    printf ", \"hot_spot\": %.3f", speedup("BenchmarkArbHotSpot/wake", "BenchmarkArbHotSpot/scan")
    printf "}\n"
    printf "}\n"
  }
' "$arb_txt" > "$arb_json"

echo "wrote $out_txt, $out_json, $eq_txt, $eq_json, $fu_txt, $fu_json, $arb_txt and $arb_json"
