#!/usr/bin/env bash
# docs_links_check: keeps docs/SERVING.md's reference tables and the
# code they document from drifting apart.
#
# Error codes (the "Limits and their E codes" table vs wire.h):
#   forward: every `| <num> | `k<Name>` |` row in SERVING.md must have a
#            matching `k<Name> = <num>` enumerator in wire.h
#   reverse: every ErrorCode enumerator in wire.h must appear (name and
#            number) in SERVING.md
# Server options (the "Every `ServerOptions` field" table vs
# query_server.h):
#   forward: every `| `<field>` ... |` row of that table must name a field
#            of struct ServerOptions (no documented option that is gone)
#   reverse: every field of struct ServerOptions must have a row (no
#            undocumented option)
#
# Usage: docs_links_check.sh [repo-root]   (default: the script's ../)
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
serving="$root/docs/SERVING.md"
wire="$root/src/server/wire.h"
server_h="$root/src/server/query_server.h"
fail=0

for f in "$serving" "$wire" "$server_h"; do
  if [ ! -f "$f" ]; then
    echo "docs_links_check: missing $f" >&2
    exit 1
  fi
done

# SERVING.md table rows: "| 18 | `kSlowConsumer` | ... |"
doc_rows=$(sed -n 's/^| *\([0-9][0-9]*\) *| *`\(k[A-Za-z]*\)`.*/\1 \2/p' \
  "$serving" | sort -u)
if [ -z "$doc_rows" ]; then
  echo "docs_links_check: no error-code table rows found in $serving" >&2
  exit 1
fi

# wire.h enumerators: "kSlowConsumer = 18,"
enum_rows=$(sed -n 's/^ *\(k[A-Za-z]*\) *= *\([0-9][0-9]*\),.*/\2 \1/p' \
  "$wire" | sort -u)
if [ -z "$enum_rows" ]; then
  echo "docs_links_check: no ErrorCode enumerators found in $wire" >&2
  exit 1
fi

while read -r num name; do
  if ! printf '%s\n' "$enum_rows" | grep -qx "$num $name"; then
    echo "docs_links_check: SERVING.md documents '$name' as code $num," \
         "but wire.h has no such enumerator" >&2
    fail=1
  fi
done <<EOF
$doc_rows
EOF

while read -r num name; do
  if ! printf '%s\n' "$doc_rows" | grep -qx "$num $name"; then
    echo "docs_links_check: wire.h defines '$name = $num' but SERVING.md's" \
         "error table does not document it" >&2
    fail=1
  fi
done <<EOF
$enum_rows
EOF

# SERVING.md option rows: "| `max_batch` (64) | `--max-batch=B` | ... |",
# from the table that follows "Every `ServerOptions` field" up to the next
# heading.
doc_opts=$(awk '/^Every `ServerOptions` field/ { on = 1; next }
                on && /^#/ { on = 0 }
                on' "$serving" |
  sed -n 's/^| *`\([a-z_][a-z0-9_]*\)`.*/\1/p' | sort -u)
if [ -z "$doc_opts" ]; then
  echo "docs_links_check: no ServerOptions table rows found in $serving" >&2
  exit 1
fi

# query_server.h fields: "  size_t max_batch = 64;" inside
# "struct ServerOptions { ... };". Every non-comment line holding a ';'
# is one declaration; its name is the last identifier before the first
# '=', '{' or ';', whatever the type's spelling ("unsigned int x = 1;",
# "std::function<void()> cb;"). A declaration that yields no name fails
# the check instead of passing as documented.
struct_decls=$(awk '/^struct ServerOptions \{/ { on = 1; next }
                    on && /^\};/ { on = 0 }
                    on' "$server_h" |
  grep -v '^ *//' | grep ';' || true)
if [ -z "$struct_decls" ]; then
  echo "docs_links_check: no ServerOptions fields found in $server_h" >&2
  exit 1
fi
struct_names=$(printf '%s\n' "$struct_decls" |
  sed -e 's/[={;].*//' -e 's/\[[^]]*\]//g' -e 's/[[:space:]]*$//' |
  sed -n 's/^\(.*[^A-Za-z0-9_]\)\{0,1\}\([A-Za-z_][A-Za-z0-9_]*\)$/\2/p')
decl_count=$(printf '%s\n' "$struct_decls" | wc -l)
name_count=$(printf '%s\n' "$struct_names" | grep -c . || true)
if [ "$decl_count" -ne "$name_count" ]; then
  echo "docs_links_check: struct ServerOptions has $decl_count declarations" \
       "but only $name_count field names could be parsed from them" >&2
  fail=1
fi
struct_opts=$(printf '%s\n' "$struct_names" | sort -u)

while read -r name; do
  if ! printf '%s\n' "$struct_opts" | grep -qx "$name"; then
    echo "docs_links_check: SERVING.md documents option '$name'," \
         "but struct ServerOptions has no such field" >&2
    fail=1
  fi
done <<EOF
$doc_opts
EOF

while read -r name; do
  if ! printf '%s\n' "$doc_opts" | grep -qx "$name"; then
    echo "docs_links_check: struct ServerOptions has field '$name' but" \
         "SERVING.md's option table does not document it" >&2
    fail=1
  fi
done <<EOF
$struct_opts
EOF

if [ "$fail" -eq 0 ]; then
  count=$(printf '%s\n' "$doc_rows" | wc -l)
  opts=$(printf '%s\n' "$doc_opts" | wc -l)
  echo "docs_links_check: OK ($count error codes, $opts server options" \
       "in sync)"
fi
exit "$fail"
