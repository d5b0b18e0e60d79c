#!/usr/bin/env bash
# Streaming cast smoke: the §7 memory claim made falsifiable. Generates a
# >=256 MB heavily-subsumed document with EXACT ground-truth skip
# accounting (each <rec> subtree hands everything after its start tag's
# '>' through its end tag's '>' to the skip scanner), casts it with
# `xmlreval cast --stream` under an address-space cap far below the
# document size, and reconciles the CLI's `stream:` line byte-for-byte
# against the generator's arithmetic. RSS independence is asserted
# directly: the 256 MB run may use at most 16 MiB more resident memory
# than a 16 MB run of the same corpus. The chunked parser and scanner
# suites, differential fuzz included, run under ASan+UBSan through ctest.
#
#   tools/smoke/streaming.sh <build-dir> [work-dir]
#
# <build-dir> holds a Release build with tools/xmlreval; the corpora
# (about 272 MB) are written to [work-dir], default a fresh temporary
# directory. Exits non-zero on any failed check.
set -euo pipefail
cli="$(cd "$1" && pwd)/tools/xmlreval"
work="${2:-$(mktemp -d)}"
mkdir -p "$work" && cd "$work"

cat > src.dtd <<'EOF'
<!ELEMENT r (rec*)>
<!ELEMENT rec (k, v)>
<!ELEMENT k (#PCDATA)>
<!ELEMENT v (#PCDATA)>
EOF
cat > tgt.dtd <<'EOF'
<!ELEMENT r (rec+)>
<!ELEMENT rec (k, v)>
<!ELEMENT k (#PCDATA)>
<!ELEMENT v (#PCDATA)>
EOF

python3 - <<'EOF'
import json, os

REC = '<rec><k>key</k><v>value-of-record</v></rec>'
BLOCK = REC * 10000

def write(path, target_bytes):
    reps = target_bytes // len(BLOCK) + 1
    with open(path, 'w') as f:
        f.write('<r>')
        for _ in range(reps):
            f.write(BLOCK)
        f.write('</r>')
    recs = reps * 10000
    # Ground truth: the start tag of a subsumed element is tokenized;
    # every byte after its '>' through the matching end tag's '>' goes to
    # the skip scanner.
    return {'bytes': os.path.getsize(path),
            'skipped': recs * (len(REC) - len('<rec>')),
            'recs': recs}

gt = {'big': write('big.xml', 256 * 1024 * 1024),
      'small': write('small.xml', 16 * 1024 * 1024)}
json.dump(gt, open('gt.json', 'w'))
print(json.dumps(gt, indent=2))
EOF

# Each run is a shell that sets `ulimit -v` and execs the CLI; wait4's
# rusage then reports the CLI's peak resident set (the shell's own is far
# below it). A failed cast fails the smoke.
cap_kb=$((192 * 1024))
echo "document: $(du -k big.xml | cut -f1) KiB; cap: ${cap_kb} KiB"
python3 - "$cli" "$cap_kb" <<'EOF'
import json, os, subprocess, sys

cli, cap_kb = sys.argv[1], sys.argv[2]

def capped_cast(doc, out, stdin=None):
    with open(out, 'wb') as sink:
        child = subprocess.Popen(
            ['bash', '-c', f'ulimit -v {cap_kb} && exec "$@"', 'cast', cli,
             'cast', 'src.dtd', 'tgt.dtd', doc, '--stream'],
            stdout=sink, stdin=stdin)
        _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    assert code == 0, f'{doc} -> {out}: exit {code}'
    return usage.ru_maxrss  # KiB on Linux

rss = {'big': capped_cast('big.xml', 'big.out'),
       'small': capped_cast('small.xml', 'small.out')}
# Same verdict from a pipe: '-' streams stdin through the identical
# chunked path.
with open('big.xml', 'rb') as stdin:
    capped_cast('-', 'pipe.out', stdin=stdin)
json.dump(rss, open('rss.json', 'w'))
for out in ('big.out', 'pipe.out'):
    print(open(out).read(), end='')
print(f'Maximum resident set size (kbytes): {rss["big"]}')
EOF

python3 - <<'EOF'
import json, re

gt = json.load(open('gt.json'))

def stream_line(path):
    text = open(path).read()
    m = re.search(r'stream: bytes_fed=(\d+) bytes_skipped=(\d+) '
                  r'max_live_frames=(\d+) peak_carry_bytes=(\d+)', text)
    assert m, f'{path}: no stream accounting line:\n{text}'
    return [int(g) for g in m.groups()]

for name, out in (('big', 'big.out'), ('small', 'small.out'),
                  ('big', 'pipe.out')):
    fed, skipped, frames, carry = stream_line(out)
    assert fed == gt[name]['bytes'], (out, fed, gt[name])
    assert skipped == gt[name]['skipped'], (out, skipped, gt[name])
    # Only the root is ever live: subsumed subtrees open no frames. Carry
    # is the longest construct that straddled a chunk boundary — a handful
    # of tag bytes.
    assert frames == 1, (out, frames)
    assert carry <= 64, (out, carry)
    print(f'{out}: fed={fed} skipped={skipped} '
          f'frames={frames} carry={carry} ok')

rss = json.load(open('rss.json'))
big_rss, small_rss = rss['big'], rss['small']
print(f'max RSS: 256MB doc {big_rss} KiB, 16MB doc {small_rss} KiB')
# 16x the input, same resident footprint (1 MiB chunk buffer + fixed
# engine state): allow 16 MiB of noise, nothing like the 240 MiB a
# resident document would cost.
assert big_rss <= small_rss + 16 * 1024, (big_rss, small_rss)
print('ok: peak RSS independent of document size')
EOF
