#!/usr/bin/env bash
# Parallel cast perf smoke: run bench_parallel's scaling curve once and
# gate it twice.
#  - 1-thread overhead: a 1-thread parallel run stays within 10% of the
#    serial engine on the 1000-item document (lazy splitting never fires
#    without an idle peer, so the only overhead is one task dispatch; the
#    SoA layout halved the serial walk, so that fixed cost is now a larger
#    fraction — hence 10%, not the earlier 5%). Smaller documents measure
#    the fixed microseconds of dispatch and wake, so they are only printed.
#  - Scaling: speedup_t2 >= 1.2 and speedup_t4 > 1.0 on the 1000-item
#    corpus (5468 nodes — the >=5k acceptance target).
# Both need real parallelism, so the script FAILS on fewer than 2 cores
# instead of skipping. BENCH_parallel.json and the extracted
# BENCH_speedup_curve.json stay in the work directory.
#
#   tools/smoke/parallel.sh <build-dir> [work-dir]
#
# <build-dir> holds a Release build with bench/bench_parallel. Exits
# non-zero on any failed check.
set -euo pipefail
bench="$(cd "$1" && pwd)/bench/bench_parallel"
work="${2:-$(mktemp -d)}"
mkdir -p "$work" && cd "$work"

cores="$(nproc)"
echo "runner cores: $cores"
if [ "$cores" -lt 2 ]; then
  echo "::error::the parallel smoke requires >=2 cores, got $cores"
  exit 1
fi

"$bench"

python3 - <<'EOF'
import json

data = json.load(open('BENCH_parallel.json'))
cores = data['hardware_concurrency']
print(f'hardware_concurrency={cores}')
assert cores >= 2, f'hardware_concurrency={cores} despite nproc gate'

for items in (2, 50, 100, 200, 500, 1000):
    serial = data[f'serial_ns_items_{items}']
    par1 = data[f'par_t1_ns_items_{items}']
    print(f'items={items}: serial={serial:.0f}ns '
          f'par_t1={par1:.0f}ns overhead={par1/serial-1.0:+.2%}')
gated = data['par_t1_ns_items_1000'] / data['serial_ns_items_1000'] - 1.0
assert gated <= 0.10, (
    f'1-thread parallel exceeds serial by {gated:.2%} (> 10%) '
    'on the 1000-item document')

curve = {'hardware_concurrency': cores}
for items in (2, 50, 100, 200, 500, 1000):
    for t in (1, 2, 4, 8):
        key = f'speedup_t{t}_items_{items}'
        curve[key] = data[key]
for items in (200, 500, 1000):
    row = '  '.join(f't={t}: x{curve[f"speedup_t{t}_items_{items}"]:.2f}'
                    for t in (1, 2, 4, 8))
    print(f'items={items}: {row}')
json.dump(curve, open('BENCH_speedup_curve.json', 'w'), indent=2)

# Hosted runners are 4-core, so t=4 still has real parallelism to find.
t2 = data['speedup_t2_items_1000']
t4 = data['speedup_t4_items_1000']
assert t2 >= 1.2, f'speedup_t2_items_1000 = x{t2:.2f} < x1.2'
assert t4 > 1.0, f'speedup_t4_items_1000 = x{t4:.2f} <= x1.0'
print(f'ok: t1 overhead {gated:+.2%} (<=10%), t2=x{t2:.2f} (>=1.2), '
      f't4=x{t4:.2f} (>1.0)')
EOF
