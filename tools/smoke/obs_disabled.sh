#!/usr/bin/env bash
# Trace schema in an XMLREVAL_OBS_DISABLED build: spans compile out, but
# the batch pipeline's manual queue-wait events remain — whatever is
# exported has to obey the same Chrome trace-event schema, and the metrics
# dump still counts every batch item.
#
#   tools/smoke/obs_disabled.sh <build-dir> [work-dir]
#
# <build-dir> holds a build configured with -DXMLREVAL_OBS_DISABLED=ON.
# Exits non-zero on any failed check.
set -euo pipefail
cli="$(cd "$1" && pwd)/tools/xmlreval"
note="$(cd "$(dirname "$0")/note" && pwd)"
work="${2:-$(mktemp -d)}"
mkdir -p "$work" && cd "$work"

"$cli" serve-batch "$note/v1.dtd" "$note/v2.dtd" "$note/ok.xml" \
  --repeat 25 --threads 4 --metrics-out metrics_noobs.json \
  --trace-out trace_noobs.json
"$cli" trace-report trace_noobs.json

python3 - <<'EOF'
import json

trace = json.load(open('trace_noobs.json'))
events = trace['traceEvents']
for e in events:
    assert e['ph'] in ('X', 's', 't', 'f'), e
    assert 'ts' in e and 'pid' in e and 'tid' in e, e
    if e['ph'] == 'X':
        assert 'dur' in e, e
    else:
        assert 'id' in e, e
ts = [e['ts'] for e in events]
assert ts == sorted(ts), 'non-monotone trace timestamps'
# No RAII spans in this build: whatever survives must be the service's
# manual events only.
names = {e['name'] for e in events}
assert 'cast.traverse' not in names, names
dump = json.load(open('metrics_noobs.json'))
counters = {c['name']: c['value'] for c in dump['counters']
            if not c.get('labels')}
assert counters.get('xmlreval_batch_items_total') == 25
print(f'ok: disabled build, {len(events)} events, schema holds')
EOF
