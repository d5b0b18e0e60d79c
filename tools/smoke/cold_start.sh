#!/usr/bin/env bash
# Cold-start smoke: exercise the persistent plan cache end to end. Runs
# bench_cold_start and gates warm time-to-first-validation >= 5x faster
# than cold, then reconciles the plan-cache counters the CLI's serve-batch
# emits against its metrics dump. The plan_* suites' cache lifecycle
# (publish, mmap, corrupt, fall through) runs under ASan+UBSan through
# ctest.
#
#   tools/smoke/cold_start.sh <build-dir> [work-dir]
#
# <build-dir> holds a Release build with bench/bench_cold_start and
# tools/xmlreval. Exits non-zero on any failed check.
set -euo pipefail
build="$(cd "$1" && pwd)"
note="$(cd "$(dirname "$0")/note" && pwd)"
work="${2:-$(mktemp -d)}"
mkdir -p "$work" && cd "$work"

"$build/bench/bench_cold_start"
python3 - <<'EOF'
import json

data = json.load(open('BENCH_cold_start.json'))
cold = data['cold_ns']
warm = data['warm_ns']
speedup = data['warm_speedup']
print(f"no_cache={data['no_cache_ns']/1e3:.1f}us "
      f"cold={cold/1e3:.1f}us warm={warm/1e3:.1f}us "
      f"speedup=x{speedup:.1f} "
      f"artifact={data['plan_bytes']:.0f}B")
# Acceptance: warm start at least 5x faster than cold.
assert speedup >= 5.0, f'warm_speedup x{speedup:.2f} < x5'
# The warm loop must be pure hits: one mmap per rep, no recompiles, no
# corruption.
assert data['warm_hits'] >= 1, data
assert data['warm_misses'] == 0, data
assert data['warm_corrupt'] == 0, data
print('ok')
EOF

cli="$build/tools/xmlreval"
mkdir -p plansmoke/plans && cd plansmoke
# Precompile the plan, then confirm `compile` sees it warm.
"$cli" compile "$note/v1.dtd" "$note/v2.dtd" --plan-cache-dir plans
"$cli" compile "$note/v1.dtd" "$note/v2.dtd" --plan-cache-dir plans
# Cold pass into a SECOND dir: serve-batch itself compiles and publishes
# exactly one artifact.
mkdir -p plans-cold
"$cli" serve-batch "$note/v1.dtd" "$note/v2.dtd" "$note/ok.xml" \
  --repeat 10 --plan-cache-dir plans-cold --metrics-out cold.json
# Warm pass: a fresh process mmaps the published artifact.
"$cli" serve-batch "$note/v1.dtd" "$note/v2.dtd" "$note/ok.xml" \
  --repeat 10 --plan-cache-dir plans-cold --metrics-out warm.json

python3 - <<'EOF'
import json

def counters(path):
    dump = json.load(open(path))
    return {c['name']: c['value'] for c in dump['counters']
            if not c.get('labels')}, dump

cold, _ = counters('cold.json')
warm, warm_dump = counters('warm.json')
# Two misses on the cold path: the pre-lock probe and the post-lock
# recheck both find no artifact before the compile.
assert cold.get('xmlreval_plan_cache_misses_total') == 2, cold
assert cold.get('xmlreval_plan_cache_saves_total') == 1, cold
assert cold.get('xmlreval_plan_cache_hits_total', 0) == 0, cold
assert warm.get('xmlreval_plan_cache_hits_total') == 1, warm
assert warm.get('xmlreval_plan_cache_misses_total', 0) == 0, warm
assert warm.get('xmlreval_plan_cache_saves_total', 0) == 0, warm
assert warm.get('xmlreval_plan_cache_corrupt_total', 0) == 0, warm
mapped = [g['value'] for g in warm_dump['gauges']
          if g['name'] == 'xmlreval_plan_cache_bytes_mapped']
assert mapped and mapped[0] > 0, mapped
print(f'ok: cold miss+save, warm hit, {mapped[0]:.0f} bytes mapped')
EOF
