#!/usr/bin/env bash
# determinism_lint: greps the determinism-critical layers (src/core,
# src/index, src/matching) for constructs that break the byte-identity
# contract ("same input -> same committed bytes, for any thread or shard
# count", see docs/ARCHITECTURE.md "The determinism contract"):
#
#   rule 1  banned nondeterminism sources: rand/srand/random/drand48/
#           rand_r, time/clock/gettimeofday/system_clock. Anything
#           time- or RNG-seeded in these layers would leak into mined
#           sets, counts, or rankings.
#   rule 2  range-for over a std::unordered_{map,set} or a
#           util::FlatCountMap (the counting path's open-addressing
#           table): iteration order is implementation-, seed- or
#           capacity-dependent, so it must never feed committed output.
#           Every site needs an explicit
#           `lint:allow-unordered-iter` marker (same line or the two
#           lines above) arguing why order cannot escape — a sort
#           downstream, or a commutative merge.
#   rule 3  raw float formatting (%e/%f/%g): committed text must use the
#           pinned round-trip formats (%.9g float32 in the index writer,
#           %.17g binary64 in wire.cc/model_io.cc — the latter two live
#           outside the scanned layers). A scanned-layer site needs a
#           `lint:allow-float-format` marker naming the pinned format.
#
# `//` comments are stripped before rules run, so prose mentioning
# "time (" or "%g" does not trip them; markers are comments, so they are
# looked up in the ORIGINAL lines. docs/STATIC_ANALYSIS.md documents the
# rules and marker policy.
#
# Usage: determinism_lint.sh [repo-root]   (default: the script's ../../)
set -u

root="${1:-$(cd "$(dirname "$0")/../.." && pwd)}"
fail=0

dirs=""
for d in core index matching; do
  if [ ! -d "$root/src/$d" ]; then
    echo "determinism_lint: missing directory $root/src/$d" >&2
    exit 1
  fi
  dirs="$dirs $root/src/$d"
done

re_banned='(^|[^A-Za-z0-9_])(rand|srand|random|drand48|rand_r|time|clock|gettimeofday)[[:space:]]*\(|std::chrono::system_clock'
re_float='%[-+ #0-9.*]*l?[efgEFG]'
marker_iter='lint:allow-unordered-iter'
marker_float='lint:allow-float-format'

# ---- self-test: every rule regex must fire on a known-bad line and stay
# quiet on a near-miss, so a silently broken regex fails the lint itself.
selftest() {
  local re="$1" bad="$2" good="$3"
  if ! printf '%s\n' "$bad" | grep -qE "$re"; then
    echo "determinism_lint: SELF-TEST FAILED: regex did not match: $bad" >&2
    exit 1
  fi
  if printf '%s\n' "$good" | grep -qE "$re"; then
    echo "determinism_lint: SELF-TEST FAILED: regex wrongly matched: $good" >&2
    exit 1
  fi
}
selftest "$re_banned" 'int x = rand();'            'operand(x);'
selftest "$re_banned" 'seed = time(nullptr);'      'double runtime(int);'
selftest "$re_banned" 'auto t = std::chrono::system_clock::now();' \
                      'auto t = std::chrono::steady_clock::now();'
selftest "$re_float"  'snprintf(b, n, "%f", v);'   'snprintf(b, n, "%d", v);'
selftest "$re_float"  'snprintf(b, n, "%-12.6g", v);' 'printf("100%%");'

# The rule-2 range-extraction awk program (shared by its self-test and
# the scan below). Prints `line:name:text` for each range-for whose range
# expression names an unordered container.
awk_rule2='
  BEGIN { n = split(names, nm, " ") }
  {
    s = $0
    if (!match(s, /for[ \t]*\(/)) next
    i = RSTART + RLENGTH; depth = 1; hdr = ""
    while (i <= length(s) && depth > 0) {
      c = substr(s, i, 1)
      if (c == "(") depth++
      else if (c == ")") depth--
      if (depth > 0) hdr = hdr c
      i++
    }
    p = index(hdr, " : ")
    if (p == 0) next
    range = substr(hdr, p + 3)
    for (k = 1; k <= n; k++) {
      if (range ~ ("(^|[^A-Za-z0-9_])" nm[k] "([^A-Za-z0-9_]|$)")) {
        print NR ":" nm[k] ":" s
        break
      }
    }
  }'
if [ -z "$(printf 'for (auto& [k, v] : bad.the_map()) {\n' \
           | awk -v names="the_map " "$awk_rule2")" ]; then
  echo "determinism_lint: SELF-TEST FAILED: rule 2 missed a range-for" \
       "over an unordered container" >&2
  exit 1
fi
if [ -n "$(printf 'for (auto k : dirty) SortRow(the_map[k]);\n' \
           | awk -v names="the_map " "$awk_rule2")" ]; then
  echo "determinism_lint: SELF-TEST FAILED: rule 2 flagged a container" \
       "used only in the loop body" >&2
  exit 1
fi

# The rule-2 name harvest: the declared name of every unordered container
# or FlatCountMap (members, locals, params, and accessors returning
# references), one per line.
harvest_names() {
  sed -n 's/.*\(unordered_\(map\|set\)\|FlatCountMap\)<.*>[&*]\{0,1\} *\([A-Za-z_][A-Za-z0-9_]*\).*/\3/p'
}
for decl in 'std::unordered_map<uint64_t, uint32_t> the_slots;' \
            'const util::FlatCountMap<NodeId>& the_counts() const {'; do
  if [ -z "$(printf '%s\n' "$decl" | harvest_names)" ]; then
    echo "determinism_lint: SELF-TEST FAILED: rule 2 harvested no name" \
         "from: $decl" >&2
    exit 1
  fi
done

# Strips // comments, preserving line count so grep -n numbers line up
# with the original file.
strip_comments() { sed 's%//.*%%' "$1"; }

# True when `lint:allow-...` appears on line $2 of file $1 or on one of
# the two lines above it (markers are comments, read from the original).
has_marker() {
  local file="$1" line="$2" marker="$3" from
  from=$((line - 2)); [ "$from" -lt 1 ] && from=1
  sed -n "${from},${line}p" "$file" | grep -q "$marker"
}

files=$(find $dirs -name '*.h' -o -name '*.cc' | sort)

# ---- rule 1: banned nondeterminism sources (no marker can allow these).
for f in $files; do
  while IFS=: read -r ln text; do
    [ -z "$ln" ] && continue
    echo "determinism_lint: $f:$ln: banned nondeterminism source:" \
         "${text# }" >&2
    fail=1
  done < <(strip_comments "$f" | grep -nE "$re_banned")
done

# ---- rule 2: range-for over unordered containers. Names are harvested
# from unordered_{map,set} and FlatCountMap declarations across the
# scanned layers (harvest_names above), then every
# range-for whose RANGE expression mentions one of them must carry the
# marker. The awk pass extracts the balanced `for (...)` header and looks
# only at the part after the ` : ` separator, so a name in the loop BODY
# (e.g. `for (k : dirty) SortRow(pairs[k]);`) does not trip it.
# Limitation: a for-header wrapped across source lines is not seen —
# keep range-fors over unordered containers on one line.
names=$(cat $files | harvest_names | sort -u)
if [ -z "$names" ]; then
  echo "determinism_lint: harvested no unordered container names —" \
       "declaration regex has gone stale" >&2
  exit 1
fi
names_joined=$(printf '%s ' $names)
for f in $files; do
  while IFS=: read -r ln name text; do
    [ -z "$ln" ] && continue
    if ! has_marker "$f" "$ln" "$marker_iter"; then
      echo "determinism_lint: $f:$ln: range-for over unordered" \
           "container '$name' without $marker_iter: $text" >&2
      fail=1
    fi
  done < <(strip_comments "$f" | awk -v names="$names_joined" "$awk_rule2")
done

# ---- rule 3: raw float formatting.
for f in $files; do
  while IFS=: read -r ln text; do
    [ -z "$ln" ] && continue
    if ! has_marker "$f" "$ln" "$marker_float"; then
      echo "determinism_lint: $f:$ln: float format without" \
           "$marker_float:" "${text# }" >&2
      fail=1
    fi
  done < <(strip_comments "$f" | grep -nE "$re_float")
done

if [ "$fail" -eq 0 ]; then
  nfiles=$(printf '%s\n' $files | wc -l)
  nnames=$(printf '%s\n' $names | wc -l)
  echo "determinism_lint: OK ($nfiles files, $nnames unordered names" \
       "tracked, 3 rules self-tested)"
fi
exit "$fail"
