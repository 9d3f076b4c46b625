#!/usr/bin/env python3
"""Regenerate the measured tables inside EXPERIMENTS.md from bench artifacts.

Preferred input is the machine-readable run report each table bench writes
with --report-out (schema fastsc.run_report.v1, which embeds the rendered
tables verbatim):

  mkdir -p bench_reports
  for b in build/bench/bench_table*; do
      "$b" --report-out=bench_reports/$(basename $b).json; done
  python3 bench/fill_experiments.py        # rewrites the ``` blocks in place

Benches without a report in bench_reports/ (e.g. the ablations) fall back to
scraped stdout collected the old way:

  for b in build/bench/*; do [ -f "$b" ] && [ -x "$b" ] || continue; \
      echo "===== $(basename $b) ====="; "$b"; echo; done > bench_output.txt

The script matches each measured block by the bench section and table header
it came from, so EXPERIMENTS.md prose stays untouched while the numbers are
refreshed.
"""
import json
import os
import re
import sys

OUT = 'bench_output.txt'
REPORT_DIR = 'bench_reports'
DOC = 'EXPERIMENTS.md'


def report_section(name):
    """Rendered tables from a --report-out JSON, or None if absent."""
    path = os.path.join(REPORT_DIR, name + '.json')
    if not os.path.exists(path):
        return None
    with open(path) as f:
        doc = json.load(f)
    if doc.get('schema') != 'fastsc.run_report.v1':
        sys.exit(f'{path}: unexpected schema {doc.get("schema")!r}')
    return '\n\n'.join(t['text'].rstrip('\n') for t in doc['tables'])


def section(out, name):
    from_report = report_section(name)
    if from_report is not None:
        return from_report
    if out is None:
        sys.exit(f'no {REPORT_DIR}/{name}.json and no {OUT} to fall back on')
    m = re.search(r'===== ' + name + r' =====\n(.*?)(?:\n===== |\Z)', out,
                  re.S)
    if not m:
        sys.exit(f'bench section {name} missing from {OUT}')
    return m.group(1).strip()


def block(text, header):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if header in line:
            j = i
            res = []
            while j < len(lines) and lines[j].strip():
                res.append(lines[j])
                j += 1
            return '\n'.join(res)
    sys.exit(f'table header {header!r} not found')


def main():
    out = open(OUT).read() if os.path.exists(OUT) else None
    doc = open(DOC).read()

    # (bench section, [table headers to join]) per measured block, in the
    # order the ``` blocks appear in EXPERIMENTS.md.
    plan = [
        ('bench_table3_dti',
         ['== Running time', 'Clustering quality', 'Section V.C']),
        ('bench_table4_fb', ['== Running time']),
        ('bench_table5_syn200', ['== Running time', 'Clustering quality']),
        ('bench_table6_dblp', ['== Running time']),
        ('bench_table7_comm', ['communication time', 'Transfer detail']),
        ('bench_ablation_kscaling', None),
        ('bench_ablation_spectrum_side', None),
        ('bench_ablation_seeding', None),
        ('bench_ablation_kmeans_dist', None),
        ('bench_ablation_embedding_norm', None),
        ('bench_ablation_bisection', None),
        ('bench_ablation_pcie', None),
    ]
    blocks = []
    for name, headers in plan:
        text = section(out, name)
        if headers is None:
            blocks.append(text)
        else:
            blocks.append('\n\n'.join(block(text, h) for h in headers))

    parts = re.split(r'```\n.*?\n```', doc, flags=re.S)
    if len(parts) != len(blocks) + 1:
        sys.exit(f'expected {len(blocks)} code blocks in {DOC}, '
                 f'found {len(parts) - 1}')
    rebuilt = parts[0]
    for body, tail in zip(blocks, parts[1:]):
        rebuilt += '```\n' + body + '\n```' + tail
    open(DOC, 'w').write(rebuilt)
    print(f'refreshed {len(blocks)} measured blocks in {DOC}')


if __name__ == '__main__':
    main()
