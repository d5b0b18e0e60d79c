#!/usr/bin/env bash
# Observability smoke: run the real serve-batch binary with --metrics-out on
# a tiny corpus and assert the dump parses AND the cast latency histogram's
# count equals the number of submitted items — the reconciliation guarantee
# the metrics pipeline promises. Also validates the Chrome trace, the
# trace-sink health gauges and the flight recorder's ring gauges.
#
#   tools/smoke/obs.sh <build-dir> [work-dir]
#
# <build-dir> holds a Release build with tools/xmlreval; [work-dir]
# (default: a fresh temporary directory) receives the dumps. Exits
# non-zero on any failed check.
set -euo pipefail
cli="$(cd "$1" && pwd)/tools/xmlreval"
note="$(cd "$(dirname "$0")/note" && pwd)"
work="${2:-$(mktemp -d)}"
mkdir -p "$work" && cd "$work"

# --intra-doc-threads exercises the second (intra-document) executor end
# to end; the notes are below the node threshold so they still route
# serially — this smoke covers wiring, parallel.sh covers the parallel
# engine itself.
"$cli" serve-batch "$note/v1.dtd" "$note/v2.dtd" "$note/ok.xml" \
  --repeat 25 --threads 4 --intra-doc-threads 2 \
  --metrics-out metrics.json --trace-out trace.json \
  --flight-recorder flight.json
# The latency decomposition must digest its own trace output.
"$cli" trace-report trace.json

python3 - <<'EOF'
import json

dump = json.load(open('metrics.json'))

def find(section, name, **labels):
    for e in dump[section]:
        if e['name'] == name and all(
                e['labels'].get(k) == v for k, v in labels.items()):
            return e
    raise SystemExit(f'missing {section} entry {name} {labels}')

items = 25
assert find('counters', 'xmlreval_batch_items_total')['value'] == items
casts = find('counters', 'xmlreval_op_requests_total', op='cast')
assert casts['value'] == items, casts
hist = find('histograms', 'xmlreval_request_latency_us', op='cast')
assert hist['count'] == items, hist
assert hist['count'] == sum(c for _, c in hist['buckets'])
svc = find('histograms', 'xmlreval_batch_service_us')
assert svc['count'] == items, svc

trace = json.load(open('trace.json'))
events = trace['traceEvents']
assert events, 'empty trace'
# Chrome trace-event schema: complete spans carry a duration, flow events
# (cross-thread causal arrows) carry a shared id.
for e in events:
    assert e['ph'] in ('X', 's', 't', 'f'), e
    assert 'ts' in e and 'pid' in e and 'tid' in e, e
    if e['ph'] == 'X':
        assert 'dur' in e, e
    else:
        assert 'id' in e, e
ts = [e['ts'] for e in events]
assert ts == sorted(ts), 'non-monotone trace timestamps'
names = {e['name'] for e in events}
for expected in ('batch.item', 'item.parse', 'svc.cast', 'cast.traverse',
                 'relations.fixpoint'):
    assert expected in names, f'missing span {expected}'
# Request-scoped causality: every batch item's spans share one nonzero
# trace id, and ids are distinct across items.
item_ids = {e['args']['trace_id'] for e in events
            if e['ph'] == 'X' and e['name'] == 'batch.item'}
assert len(item_ids) == items, (len(item_ids), items)
assert 0 not in item_ids

# Trace-sink health gauges reconcile with the exported trace: everything
# recorded is still buffered (capacity far above this corpus), nothing
# dropped, nothing left staged.
buffered = find('gauges', 'xmlreval_trace_buffered_events')
assert buffered['value'] == len(events), (buffered, len(events))
assert find('gauges', 'xmlreval_trace_dropped_events')['value'] == 0
assert find('gauges', 'xmlreval_trace_tail_dropped_events')['value'] == 0
assert find('gauges', 'xmlreval_trace_staged_events')['value'] == 0

# Queue-depth gauges expose the interval's high-water mark: the 25-item
# burst must have registered on the batch executor.
depth = find('gauges', 'xmlreval_executor_queue_depth', executor='batch')
assert depth['value'] > 0, depth

# Flight recorder armed: per-thread ring occupancy gauges show the spans
# the run recorded, and no crash dump was written.
occupancy = sum(
    g['value'] for g in dump['gauges']
    if g['name'] == 'xmlreval_flight_ring_occupancy')
assert occupancy > 0, 'flight rings empty despite --flight-recorder'
import os
assert not os.path.exists('flight.json'), 'unexpected crash dump'
print(f'ok: {items} items reconciled, {len(events)} trace events, '
      f'{occupancy} flight-ring records')
EOF
