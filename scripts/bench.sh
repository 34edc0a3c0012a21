#!/bin/sh
# Benchmark snapshot: runs the Go benchmarks with allocation reporting
# plus a serial-vs-parallel sweep wall-clock comparison, and emits the
# results as BENCH_<n>.json so the perf trajectory across PRs has data
# points (see EXPERIMENTS.md, "Performance").
#
# Environment:
#   BENCH_OUT       output file            (default BENCH_9.json)
#   BENCHTIME       go test -benchtime    (default 1x; use e.g. 3x to average)
#   BENCH_RE        go test -bench regexp (default .)
#   SWEEP_SCALE     sweep -scale          (default 0.25; 0 skips the sweep)
#   BENCH_BASELINE  earlier BENCH_<n>.json to diff ns/op against (optional)
#   BENCH_NOTE      free-text note embedded in the JSON (e.g. host state)
#   BENCH_GUARD     0 skips the regression guard (recording on a noisy host)
set -eu
cd "$(dirname "$0")/.."

out=${BENCH_OUT:-BENCH_9.json}
benchtime=${BENCHTIME:-1x}
benchre=${BENCH_RE:-.}
sweepscale=${SWEEP_SCALE:-0.25}
baseline=${BENCH_BASELINE:-}
note=${BENCH_NOTE:-}

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

echo "== go test -bench=$benchre -benchmem -count=1 -benchtime $benchtime ==" >&2
go test -run '^$' -bench="$benchre" -benchmem -count=1 -benchtime "$benchtime" \
    . ./internal/sim ./internal/noc ./internal/core ./internal/cache | tee "$raw" >&2

# The sweep compares one serial leg (-j 1) against one all-CPUs leg (-j 0).
# The jN leg must actually be parallel to mean anything: BENCH_1.json once
# recorded a "1.03x speedup" that was really 1 worker vs 1 worker, so the
# resolved worker count is interrogated from the binary, recorded in the
# JSON, and a single-CPU host skips the comparison loudly instead of
# logging a meaningless ratio.
sweep_j1=0
sweep_jn=0
sweep_ran=false
ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
workers=1
if [ "$sweepscale" != "0" ]; then
    go build -o /tmp/snackbench.$$ ./cmd/snackbench
    workers=$(/tmp/snackbench.$$ -j 0 -print-workers)
    if [ "$ncpu" -gt 1 ] && [ "$workers" -le 1 ]; then
        echo "ERROR: host has $ncpu CPUs but the -j 0 leg would run with $workers worker(s);" >&2
        echo "       the j1-vs-jN comparison would be meaningless. Aborting." >&2
        rm -f /tmp/snackbench.$$
        exit 1
    fi
    if [ "$workers" -le 1 ]; then
        echo "WARNING: single-CPU host ($ncpu CPU, $workers worker) — skipping the" >&2
        echo "         j1-vs-jN sweep comparison; recording it as skipped." >&2
        rm -f /tmp/snackbench.$$
    else
        echo "== fig1+fig2 sweep, -j 1 vs -j 0 ($workers workers, $ncpu CPUs, scale $sweepscale) ==" >&2
        t0=$(date +%s.%N)
        /tmp/snackbench.$$ -exp fig1 -scale "$sweepscale" -j 1 >/dev/null
        /tmp/snackbench.$$ -exp fig2 -scale "$sweepscale" -j 1 >/dev/null
        t1=$(date +%s.%N)
        /tmp/snackbench.$$ -exp fig1 -scale "$sweepscale" -j 0 >/dev/null
        /tmp/snackbench.$$ -exp fig2 -scale "$sweepscale" -j 0 >/dev/null
        t2=$(date +%s.%N)
        rm -f /tmp/snackbench.$$
        sweep_j1=$(awk "BEGIN{printf \"%.3f\", $t1-$t0}")
        sweep_jn=$(awk "BEGIN{printf \"%.3f\", $t2-$t1}")
        sweep_ran=true
        echo "sweep wall: -j 1 ${sweep_j1}s, -j 0 (${workers} workers) ${sweep_jn}s" >&2
    fi
fi

# DSE throughput: a deterministic pooled-fork grid through cmd/snackdse,
# reported as cells/second — the sweep-scale figure of merit for design-
# space exploration (256 legs at paper dims take minutes; the smoke dims
# keep the snapshot cheap while still exercising the fork-per-leg path).
dse_cells=0
dse_wall=0
dse_ran=false
if [ "$sweepscale" != "0" ]; then
    go build -o /tmp/snackdse.$$ ./cmd/snackdse
    dse_grid=${DSE_GRID:-buf=1,2,4,8:chan=16,32:vc=2,4:rcu=16,32}
    echo "== snackdse -grid $dse_grid -kernels MAC -dims smoke -j 1 ==" >&2
    t0=$(date +%s.%N)
    /tmp/snackdse.$$ -grid "$dse_grid" -kernels MAC -dims smoke -j 1 \
        >/dev/null 2>/tmp/snackdse.$$.log
    t1=$(date +%s.%N)
    dse_cells=$(awk '/cells x/ {print $2; exit}' /tmp/snackdse.$$.log)
    rm -f /tmp/snackdse.$$ /tmp/snackdse.$$.log
    dse_wall=$(awk "BEGIN{printf \"%.3f\", $t1-$t0}")
    dse_ran=true
    echo "dse wall: ${dse_cells} cells in ${dse_wall}s" >&2
fi

# Benchmark lines are "<name> <N> <value> <unit> <value> <unit> ...";
# fold each into JSON with every metric keyed by its unit. When a baseline
# file is given, append a before/after ns/op comparison per benchmark.
awk -v sweep_j1="$sweep_j1" -v sweep_jn="$sweep_jn" -v ncpu="$ncpu" \
    -v workers="$workers" -v sweep_ran="$sweep_ran" -v baseline="$baseline" \
    -v dse_cells="$dse_cells" -v dse_wall="$dse_wall" -v dse_ran="$dse_ran" \
    -v note="$note" \
    -v goos="$(go env GOOS)" -v goarch="$(go env GOARCH)" '
BEGIN {
    printf "{\n  \"benchmarks\": {\n"
    # Baseline ns/op, allocs/op and B/op values, keyed by benchmark name,
    # parsed from our own output format: one
    # "Name": {... "ns/op": V ...}  object per line.
    if (baseline != "") {
        while ((getline bl < baseline) > 0) {
            if (match(bl, /"Benchmark[^"]+"/)) {
                bname = substr(bl, RSTART+1, RLENGTH-2)
                if (match(bl, /"ns\/op": [0-9.e+]+/)) {
                    v = substr(bl, RSTART+9, RLENGTH-9)
                    base[bname] = v + 0
                }
                if (match(bl, /"allocs\/op": [0-9.e+]+/)) {
                    v = substr(bl, RSTART+13, RLENGTH-13)
                    basealloc[bname] = v + 0
                }
                if (match(bl, /"B\/op": [0-9.e+]+/)) {
                    v = substr(bl, RSTART+8, RLENGTH-8)
                    basebytes[bname] = v + 0
                }
            }
        }
        close(baseline)
    }
}
/^Benchmark/ {
    if (nb++) printf ",\n"
    printf "    \"%s\": {\"iterations\": %s, \"metrics\": {", $1, $2
    nm = 0
    for (i = 3; i < NF; i += 2) {
        if (nm++) printf ", "
        printf "\"%s\": %s", $(i+1), $i
        if ($(i+1) == "ns/op") nsop[$1] = $i + 0
        if ($(i+1) == "allocs/op") alloc[$1] = $i + 0
        if ($(i+1) == "B/op") bytes[$1] = $i + 0
    }
    printf "}}"
    order[no++] = $1
}
END {
    printf "\n  },\n"
    if (sweep_ran == "true") {
        printf "  \"sweep\": {\"experiments\": [\"fig1\", \"fig2\"],\n"
        printf "    \"workers\": %s, \"cpus\": %s,\n", workers, ncpu
        printf "    \"wall_s_j1\": %s, \"wall_s_jN\": %s,\n", sweep_j1, sweep_jn
        speedup = (sweep_jn > 0) ? sweep_j1 / sweep_jn : 0
        printf "    \"speedup\": %.2f},\n", speedup
    } else {
        printf "  \"sweep\": {\"skipped\": true, \"reason\": \"single-CPU host\",\n"
        printf "    \"workers\": %s, \"cpus\": %s},\n", workers, ncpu
    }
    if (dse_ran == "true") {
        printf "  \"dse\": {\"kernels\": [\"MAC\"], \"dims\": \"smoke\",\n"
        printf "    \"cells\": %s, \"wall_s\": %s,\n", dse_cells, dse_wall
        cps = (dse_wall > 0) ? dse_cells / dse_wall : 0
        printf "    \"cells_per_s\": %.2f},\n", cps
    } else {
        printf "  \"dse\": {\"skipped\": true},\n"
    }
    if (baseline != "") {
        printf "  \"baseline\": \"%s\",\n  \"vs_baseline\": {\n", baseline
        nc = 0
        for (k = 0; k < no; k++) {
            b = order[k]
            if (!(b in base) || !(b in nsop)) continue
            if (nc++) printf ",\n"
            impr = (base[b] > 0) ? 100 * (base[b] - nsop[b]) / base[b] : 0
            printf "    \"%s\": {\"before_ns_op\": %s, \"after_ns_op\": %s, \"improvement_pct\": %.1f", \
                b, base[b], nsop[b], impr
            if ((b in basealloc) && (b in alloc))
                printf ", \"before_allocs_op\": %s, \"after_allocs_op\": %s", basealloc[b], alloc[b]
            if ((b in basebytes) && (b in bytes))
                printf ", \"before_B_op\": %s, \"after_B_op\": %s", basebytes[b], bytes[b]
            printf "}"
        }
        printf "\n  },\n"
    }
    if (note != "") {
        gsub(/["\\]/, "", note)
        printf "  \"note\": \"%s\",\n", note
    }
    printf "  \"goos\": \"%s\", \"goarch\": \"%s\"\n", goos, goarch
    printf "}\n"
}
' "$raw" > "$out"

echo "wrote $out" >&2

# Guard: when diffing against a baseline, a >BENCH_GUARD_PCT (default 2%)
# regression of the trace-disabled Fig 2 router benchmark fails the run —
# the tracing fast path is contractually free when disabled. BENCH_GUARD=0
# skips it: absolute ns/op comparisons across sessions are only meaningful
# when the host is in the same state as when the baseline was recorded
# (use an interleaved A/B run to judge a real regression, see
# EXPERIMENTS.md "Performance").
if [ -n "$baseline" ] && [ "${BENCH_GUARD:-1}" != "0" ]; then
    guard_pct=${BENCH_GUARD_PCT:-2}
    base_ns=$(awk -F'"ns/op": ' '/"BenchmarkFig2RouterUsage"/ {split($2, a, /[,}]/); print a[1]; exit}' "$baseline")
    new_ns=$(awk -F'"ns/op": ' '/"BenchmarkFig2RouterUsage"/ {split($2, a, /[,}]/); print a[1]; exit}' "$out")
    if [ -n "$base_ns" ] && [ -n "$new_ns" ]; then
        if awk "BEGIN{exit !($new_ns > $base_ns * (1 + $guard_pct / 100))}"; then
            echo "ERROR: BenchmarkFig2RouterUsage regressed: $new_ns ns/op vs baseline $base_ns" \
                "(budget ${guard_pct}%)" >&2
            exit 1
        fi
        echo "bench guard: $new_ns ns/op vs baseline $base_ns — within ${guard_pct}%" >&2
    fi
fi
