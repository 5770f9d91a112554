#!/usr/bin/env bash
# A/B comparison of perfbench between a parent revision and a change.
#
#   scripts/ab.sh PARENT_REV
#
# Side "a" is PARENT_REV; side "b" is the working tree (uncommitted and
# untracked files included). Each side is exported into its own
# directory, at paths of equal length, and perfbench is built there in
# each layout: "default" (a plain release build) and "aligned" (every
# function 64-byte aligned, with `-C llvm-args=-align-all-functions=6`).
# A gap that holds in both layouts is the change's own work; one that
# closes under alignment is code placement.
#
# Per layout and workload, the first pair's digests must agree between
# the sides on every seed, or the script stops with exit 1. Then PAIRS
# untraced pairs alternate a,b / b,a on seed 1 and on the workload's
# held-out seed, each run as long as BENCHMARK.json's run_seconds.
# For every metric the summary prints each side's median and IQR, the
# median change, and in how many pairs b was better; "better" is the
# direction BENCHMARK.json declares. perfbench normalises host times by
# its reference loop, and a change can move that loop too (a compiler
# flag, a build profile, or the loop's own placement), so each side's
# median of it ("host reference workload") is printed, and the "raw"
# columns undo the normalisation with each run's median and the side's
# REFERENCE_NS (perfbench/src/host.rs). For an end-to-end metric the
# last column holds b against its BENCHMARK.json bound: "unresolved"
# when either side's IQR is wider than the bound, "worse" when b's
# median is worse by more than the bound, else "ok".
#
# Knobs (environment):
#   PAIRS=10                 pairs per workload, seed and layout
#   WORKLOADS="monitor-sweep fault-campaign static-check"
#   LAYOUTS="default aligned"
#   SEEDS                    default: 1 and the workload's held-out seed
#                            from perfbench/baseline.json
#
# The builds and runs are kept in a new directory under ${TMPDIR:-/tmp},
# named on the first line of output. Needs git, cargo (offline) and
# python3. Run it from the repository.
set -euo pipefail

if [ $# -ne 1 ]; then
  sed -n '2,4p' "$0" >&2
  exit 2
fi
PARENT_REV=$1
PAIRS=${PAIRS:-10}
WORKLOADS=${WORKLOADS:-monitor-sweep fault-campaign static-check}
LAYOUTS=${LAYOUTS:-default aligned}
ROOT=$(git rev-parse --show-toplevel)
RUN_SECONDS=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$ROOT/BENCHMARK.json")
AB_DIR=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
echo "ab: work directory $AB_DIR"

# Export both sides: $AB_DIR/a and $AB_DIR/b have equal-length paths.
mkdir -p "$AB_DIR/a/src" "$AB_DIR/b/src"
git -C "$ROOT" archive "$PARENT_REV" | tar -x -C "$AB_DIR/a/src"
(cd "$ROOT" && git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
  tar --null -T - -cf -) | tar -x -C "$AB_DIR/b/src"
echo "ab: a = $(git -C "$ROOT" rev-parse --short "$PARENT_REV"), b = working tree"

for side in a b; do
  for layout in $LAYOUTS; do
    case $layout in
      default) flags= ;;
      aligned) flags="-C llvm-args=-align-all-functions=6" ;;
      *) echo "ab: unknown layout $layout" >&2; exit 2 ;;
    esac
    echo "ab: building $side ($layout)"
    RUSTFLAGS=$flags CARGO_TARGET_DIR="$AB_DIR/$side/t/$layout" \
      cargo build --release --offline --quiet --manifest-path "$AB_DIR/$side/src/perfbench/Cargo.toml"
  done
done

held_out() {
  python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["workloads"][sys.argv[2]]["held_out_seed"])' \
    "$AB_DIR/a/src/perfbench/baseline.json" "$1"
}

# run SIDE LAYOUT WORKLOAD SEED OUT: one untraced perfbench run.
run() {
  (cd "$AB_DIR/$1/src" &&
    "$AB_DIR/$1/t/$2/release/perfbench" --workload "$3" --seed "$4" --seconds "$RUN_SECONDS" --trace 0) > "$5"
}

digest() { grep '^digest ' "$1" | cut -d' ' -f3; }

for layout in $LAYOUTS; do
  for w in $WORKLOADS; do
    for seed in ${SEEDS:-1 $(held_out "$w")}; do
      out="$AB_DIR/runs/$layout/$w/$seed"
      mkdir -p "$out"
      for i in $(seq 1 "$PAIRS"); do
        if [ $((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
        for side in $order; do
          run "$side" "$layout" "$w" "$seed" "$out/$side.$i.txt"
        done
        if [ "$i" -eq 1 ] && [ "$(digest "$out/a.1.txt")" != "$(digest "$out/b.1.txt")" ]; then
          echo "ab: $w seed $seed ($layout): digests differ:" \
            "a $(digest "$out/a.1.txt"), b $(digest "$out/b.1.txt")" >&2
          exit 1
        fi
        echo "ab: $layout $w seed $seed pair $i/$PAIRS done"
      done
    done
  done
done

python3 - "$AB_DIR" "$ROOT/BENCHMARK.json" "$PAIRS" <<'PY'
import json, os, re, statistics, sys

ab_dir, bench, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
spec = json.load(open(bench))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
line = re.compile(r"^  (\S+)\s+(-?[0-9.eE+-]+|NaN|inf|-inf) (\S+)$")

def nominal_ns(side):
    """The side's REFERENCE_NS: the reference loop's nominal time."""
    host = open(os.path.join(ab_dir, side, "src", "perfbench", "src", "host.rs")).read()
    m = re.search(r"pub const REFERENCE_NS: f64 = ([0-9_.]+);", host)
    if not m:
        sys.exit(f"ab: no REFERENCE_NS in side {side}'s perfbench/src/host.rs")
    return float(m.group(1).replace("_", ""))

nominal = {side: nominal_ns(side) for side in "ab"}

def parse(path):
    """The run's metrics as {name: (value, unit)} and its reference median."""
    metrics, ref = {}, None
    for text in open(path):
        if text.startswith("  untraced lane"):
            break
        m = line.match(text.rstrip("\n"))
        if m:
            metrics[m.group(1)] = (float(m.group(2)), m.group(3))
        r = re.match(r"^  host reference workload: median (\d+) ns", text)
        if r:
            ref = float(r.group(1))
    return metrics, ref

def raw(value, unit, ref, nominal):
    """Undoes the normalisation by the run's reference-loop median: a
    host time was scaled by nominal/ref, a host rate by ref/nominal."""
    if unit in ("s", "ms", "us", "ns"):
        return value * ref / nominal
    if "/" in unit:
        return value * nominal / ref
    return value

def quartiles(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return q[1], q[2] - q[0]

def compare(name, xa, xb):
    (ma, _), (mb, _) = quartiles(xa), quartiles(xb)
    change = f"{100 * (mb / ma - 1):+.1f}%" if ma else "n/a"
    sense = better.get(name)
    if sense is None:
        return change, "?"
    won = sum((y < x) if sense == "lower" else (y > x) for x, y in zip(xa, xb))
    return change, f"{won}/{len(xa)}"

def verdict(name, ma, ia, mb, ib):
    """Against an end-to-end metric's bound: "unresolved" when either
    side's IQR is wider than the bound allows, "worse" when b's median
    is worse than a's by more than it, else "ok"."""
    if name not in bound:
        return ""
    if ma == 0 or mb == 0:
        return "ok" if ma == mb else "unresolved"
    if max(ia / abs(ma), ib / abs(mb)) > bound[name]:
        return "unresolved"
    loss = mb / ma - 1 if better[name] == "lower" else ma / mb - 1
    return "worse" if loss > bound[name] else "ok"

runs = os.path.join(ab_dir, "runs")
for layout in sorted(os.listdir(runs)):
    for w in sorted(os.listdir(os.path.join(runs, layout))):
        for seed in sorted(os.listdir(os.path.join(runs, layout, w)), key=int):
            d = os.path.join(runs, layout, w, seed)
            a = [parse(os.path.join(d, f"a.{i}.txt")) for i in range(1, pairs + 1)]
            b = [parse(os.path.join(d, f"b.{i}.txt")) for i in range(1, pairs + 1)]
            print(f"\n== {w} seed {seed}, {layout} layout, {pairs} pairs ==")
            print(f"{'metric':<36} {'a median':>11} {'a IQR':>9} {'b median':>11} {'b IQR':>9}"
                  f" {'change':>8} {'b wins':>7} {'raw chg':>8} {'raw wins':>8} {'vs bound':>10}")
            for name in a[0][0]:
                if not all(name in m for m, _ in a + b):
                    continue
                xa = [m[name][0] for m, _ in a]
                xb = [m[name][0] for m, _ in b]
                ra = [raw(*m[name], r, nominal["a"]) for m, r in a]
                rb = [raw(*m[name], r, nominal["b"]) for m, r in b]
                (ma, ia), (mb, ib) = quartiles(xa), quartiles(xb)
                change, wins = compare(name, xa, xb)
                raw_change, raw_wins = compare(name, ra, rb)
                print(f"{name:<36} {ma:>11.4f} {ia:>9.4f} {mb:>11.4f} {ib:>9.4f}"
                      f" {change:>8} {wins:>7} {raw_change:>8} {raw_wins:>8}"
                      f" {verdict(name, ma, ia, mb, ib):>10}")
            ra = statistics.median(r for _, r in a)
            rb = statistics.median(r for _, r in b)
            print(f"{'host reference loop, median ns':<36} {ra:>11.0f} {'':>9} {rb:>11.0f}")
PY
