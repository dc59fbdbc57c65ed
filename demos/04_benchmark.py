# The benchmark protocol end to end on synthetic shift data: five methods,
# a growing target-label budget, a few folds, mean scores per cell. The same
# run is available from the shell as:
#
#   gpde bench --synth --folds 3 --metrics acc --out results.csv
#
# Run with: python3 demos/04_benchmark.py  (about a half minute)

import io
import sys

from gpde import BenchmarkSpec, ShiftConfig, run_benchmark, write_result_table

spec = BenchmarkSpec(
    methods=("gp_source", "gp_target", "gpa", "gpde_ss", "gpde"),
    schedule=(10, 30, 50, 100),
    folds=3,
    metrics=("acc",),
    seed=0,
)
result = run_benchmark(spec, shift_cfg=ShiftConfig())
# Two source representations are requested here (pooled for gp_source/gpa/
# gpde_ss, per-domain for gpde), so source-side fits = 2 x folds. They never
# scale with the schedule length.
print(f"config hash {result.config_hash}, {result.spec.folds} folds\n")

# Mean accuracy per method and target-set size. Things to notice:
#   - gp_source is flat: it never sees target data.
#   - gp_target climbs steeply with the label budget.
#   - gpa (adapted source) is strong early but can be overtaken by the
#     committee once enough target data exists (negative transfer).
#   - gpde tracks the better of source/target at every budget.
methods = spec.methods
print("n_t   " + "".join(f"{m:>10s}" for m in methods))
for n_t in spec.schedule:
    row = "".join(f"{result.mean(m, n_t, 'acc'):10.3f}" for m in methods)
    print(f"{n_t:<4d}  {row}")

# Per-fold rows in the stable CSV schema (first few lines):
buf = io.StringIO()
write_result_table(buf, result)
print("\n" + "\n".join(buf.getvalue().splitlines()[:8]))
sys.stdout.write("...\n")
