#!/bin/sh
# dtsort_cli must refuse an input file whose size disagrees with its
# header: a truncated file and a header claiming 2^60 records both exit 1
# with a message, while the intact file still sorts.
#   usage: rejects_bad_input.sh <path/to/dtsort_cli> <scratch dir>
set -u
cli=$1
dir=$2
mkdir -p "$dir" || exit 2

"$cli" gen --dist unif-1e5 --n 1000 --bits 32 -o "$dir/good.bin" >/dev/null || exit 2
"$cli" sort -i "$dir/good.bin" --verify >/dev/null || { echo "intact file failed to sort"; exit 1; }

# 12-byte header + 1000 kv32 records = 8012 bytes; keep the header and a
# fraction of the records.
head -c 100 "$dir/good.bin" >"$dir/truncated.bin"
# Little-endian record count 2^60 in the first 8 bytes, rest unchanged.
{ printf '\000\000\000\000\000\000\000\020'; tail -c +9 "$dir/good.bin"; } >"$dir/oversized.bin"

status=0
for f in truncated oversized; do
  "$cli" sort -i "$dir/$f.bin" >"$dir/$f.out" 2>"$dir/$f.err"
  rc=$?
  if [ "$rc" -ne 1 ] || ! grep -q "size does not match" "$dir/$f.err"; then
    echo "$f.bin: expected exit 1 with a size message, got exit $rc:"
    cat "$dir/$f.out" "$dir/$f.err"
    status=1
  fi
done
exit $status
