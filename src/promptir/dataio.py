"""On-disk formats shared across the pipeline.

TSV for the synthetic dataset (corpus / queries / qrels, written by
synth.write_dataset), JSON for the pretraining skip report and JSON-lines
for step logs. All JSON is dumped with sorted keys so identical content
means identical bytes.
"""

from __future__ import annotations

import json


def write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))
        fh.write("\n")


def write_jsonl(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


# -- corpus / queries: `id \t text` -----------------------------------------


def write_pairs_tsv(rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        for key, text in rows:
            fh.write(f"{key}\t{text}\n")


def read_pairs_tsv(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            key, text = line.split("\t", 1)
            rows.append((key, text))
    return rows


# -- qrels: `query_id \t passage_id` ----------------------------------------


def write_qrels_tsv(qrels, path):
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(qrels):
            for pid in sorted(qrels[qid]):
                fh.write(f"{qid}\t{pid}\n")


def read_qrels_tsv(path):
    qrels = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            qid, pid = line.split("\t")
            qrels.setdefault(qid, set()).add(pid)
    return qrels
