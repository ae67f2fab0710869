#!/usr/bin/env python3
"""Every numeric cell of EXPERIMENTS.md's Table 1 and Table 3 against the
paper goldens, at the precision the cell prints.

    python3 experiments_cells_test.py EXPERIMENTS.md GOLDEN_DIR

GOLDEN_DIR holds table1_properties.golden and table3_ara.golden (the
stdout of bench/table1_properties and bench/table3_ara). A cell "786"
matches a golden 786.0 and "2538" matches 2537.7. A Table 3 row covers
the threads whose benchmark its Thread cell names: a single value must
match every one of them, and "a/b" matches them one by one, in golden
order. Prints every mismatch and exits 1 if there is one.
"""

import re
import sys
from decimal import ROUND_HALF_UP, Decimal


def golden_table(lines, start):
    """The fixed-width table whose header is lines[start]: a list of
    {column: cell} rows, ending at the first blank line."""
    header = re.split(r"\s{2,}", lines[start].strip())
    rows = []
    for line in lines[start + 2:]:
        if not line.strip():
            break
        cells = line.split()
        if len(cells) != len(header):
            raise ValueError(f"golden row does not fit its header: {line!r}")
        rows.append(dict(zip(header, cells)))
    return rows


def markdown_table(text, heading):
    """The first markdown table after `## <heading>`: a list of
    {column: cell} rows."""
    section = text.split("\n## " + heading, 1)[1].split("\n## ", 1)[0]
    lines = [l for l in section.splitlines() if l.startswith("|")]
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    return [dict(zip(header, (c.strip() for c in l.strip("|").split("|"))))
            for l in lines[2:]]


def number(cell):
    """A printed number as a Decimal: markdown emphasis, spaces, '%' and
    a leading '+' dropped, the typographic minus read as '-'."""
    cell = cell.replace("**", "").replace("%", "").replace("−", "-")
    return Decimal(cell.strip().lstrip("+"))


def same_at_printed_precision(printed, golden):
    """True when golden, rounded half up to printed's decimals, equals it."""
    exponent = printed.as_tuple().exponent
    return golden.quantize(Decimal(1).scaleb(exponent),
                           rounding=ROUND_HALF_UP) == printed


class Checker:
    def __init__(self):
        self.cells = 0
        self.failures = []

    def check(self, where, cell, goldens):
        """Cell `cell` against the golden strings `goldens` (one per thread
        it covers): one printed value for all, or one per '/' part."""
        parts = cell.split("/")
        if len(parts) == 1:
            parts = parts * len(goldens)
        if len(parts) != len(goldens):
            self.failures.append(f"{where}: '{cell}' has {len(parts)} "
                                 f"value(s) for {len(goldens)} golden(s)")
            return
        self.cells += 1
        for part, golden in zip(parts, goldens):
            if not same_at_printed_precision(number(part), number(golden)):
                self.failures.append(f"{where}: EXPERIMENTS.md reads "
                                     f"'{cell}', the golden {golden}")


def check_table1(text, golden_lines, checker):
    start = next(i for i, l in enumerate(golden_lines)
                 if l.startswith("Benchmark "))
    golden = {row["Benchmark"]: row for row in golden_table(golden_lines,
                                                            start)}
    rows = markdown_table(text, "Table 1")
    if len(rows) != len(golden):
        checker.failures.append(f"Table 1: {len(rows)} rows, the golden "
                                f"{len(golden)}")
    for row in rows:
        name = row["Benchmark"]
        if name not in golden:
            checker.failures.append(f"Table 1: no golden row for {name}")
            continue
        for column, cell in row.items():
            if column != "Benchmark":
                checker.check(f"Table 1 {name} {column}", cell,
                              [golden[name][column]])


def check_table3(text, golden_lines, checker):
    # Golden scenarios in order S1, S2, S3: each one's thread rows, with
    # the spill ops of its baseline allocation added per thread.
    scenarios = []
    for i, line in enumerate(golden_lines):
        if line.startswith("  baseline spills:"):
            ops = re.findall(r"=\d+rng/(\d+)ops", line)
            threads = golden_table(golden_lines, i + 2)
            for thread, spill_ops in zip(threads, ops):
                thread["Spill ops"] = spill_ops
            scenarios.append(threads)
    columns = {"Spill ops/iter removed": "Spill ops",
               "Cyc/iter spill": "Cyc/iter spill",
               "Cyc/iter share": "Cyc/iter share",
               "Change": "Change"}
    # A row covers the threads of its scenario whose benchmark it names:
    # "md5 (critical) ×2" both md5 threads, "l2l3fwd rx/tx" l2l3fwd_rx and
    # l2l3fwd_tx, in golden order.
    covered = [[0] * len(threads) for threads in scenarios]
    for row in markdown_table(text, "Table 3"):
        scenario = int(row["Scenario"].lstrip("S")) - 1
        words = set(re.findall(r"[a-z0-9]+", row["Thread"]))
        indices = [i for i, t in enumerate(scenarios[scenario])
                   if set(t["Benchmark"].split("_")) <= words]
        for i in indices:
            covered[scenario][i] += 1
        where = f"Table 3 {row['Scenario']} {row['Thread']}"
        if not indices:
            checker.failures.append(f"{where}: names no golden thread")
            continue
        for column, golden_column in columns.items():
            checker.check(f"{where} {column}", row[column],
                          [scenarios[scenario][i][golden_column]
                           for i in indices])
    for scenario, counts in enumerate(covered):
        for i, count in enumerate(counts):
            if count != 1:
                checker.failures.append(
                    f"Table 3 S{scenario + 1}: thread {i} is covered by "
                    f"{count} rows")


def main():
    experiments, golden_dir = sys.argv[1], sys.argv[2]
    with open(experiments, encoding="utf-8") as f:
        text = f.read()
    checker = Checker()
    with open(f"{golden_dir}/table1_properties.golden") as f:
        check_table1(text, f.read().splitlines(), checker)
    with open(f"{golden_dir}/table3_ara.golden") as f:
        check_table3(text, f.read().splitlines(), checker)
    for failure in checker.failures:
        print(failure)
    print(f"{checker.cells} cell(s) checked, {len(checker.failures)} "
          f"mismatch(es)")
    return 1 if checker.failures else 0


if __name__ == "__main__":
    sys.exit(main())
