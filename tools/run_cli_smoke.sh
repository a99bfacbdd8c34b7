#!/bin/sh
# Smoke-checks the streamed `karousos audit` over a compressed KSEG container:
# the containers state their epoch size, so an honest pair is accepted with no
# --epoch-size or with the stated one, and another value (or a checkpoint taken
# at another size) exits 2 without a verdict; --checkpoint must write its file,
# --resume must restore it and reach the uninterrupted verdict, a forged trace
# must be rejected on the same streamed path, and a truncated last frame must
# be rejected only after the epochs before it were fed. A monolithic pair
# without --epoch-size must stream at the default epoch size with that size's
# verdict, and a numeric flag whose
# value does not parse whole and in range must exit 2. Also checks that
# `serve --inputs` refuses a request nested past the decoder's depth cap with
# a JSON error instead of crashing or recording a trace the audit cannot read,
# that `inspect --advice` counts the patches a motd run stores (and none in
# the pre-patch lint fixture) and totals the file's own bytes, and which error
# a broken monolithic pair reports: a read failure before any decode, then a
# malformed trace before a malformed advice. The sharded path (`shard`,
# `audit-shard`, `audit-merge`) must accept an honest run and refuse a shard
# file with a flipped payload byte under KAR-SEG-001.
#
#   usage: run_cli_smoke.sh <karousos-binary> <work-dir>
set -u

bin="$1"
dir="$2"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

rm -rf "$dir"
mkdir -p "$dir" || fail "cannot create $dir"

"$bin" serve --app stacks --requests 200 --concurrency 8 \
    --out-trace "$dir/trace.bin" --out-advice "$dir/advice.bin" \
    --out-segments "$dir/seg" --epoch-size 50 ||
  fail "serve exited $?"

# Uninterrupted audit of the KSEG directory, checkpointing after every epoch.
out="$("$bin" audit --app stacks --segments "$dir/seg" --epoch-size 50 \
    --checkpoint "$dir/ckpt")"
status=$?
printf '%s\n' "$out"
[ "$status" -eq 0 ] || fail "audit exited $status on an honest run"
accepted="$(printf '%s\n' "$out" | grep '^ACCEPTED: ')" || fail "audit printed no ACCEPTED line"
epochs="$(printf '%s\n' "$out" | sed -n 's/^streamed \([0-9][0-9]*\) epochs.*/\1/p')"
[ -n "$epochs" ] || fail "audit printed no epoch count"
[ -s "$dir/ckpt" ] || fail "--checkpoint wrote no $dir/ckpt"

# The containers state their epoch size: no --epoch-size is needed, and
# `inspect` and the audit both report the stated one.
"$bin" inspect --trace "$dir/seg/trace.kseg" | grep -q '^  @5 .*epoch-manifest.*(epoch size 50)$' ||
  fail "inspect did not print the stated epoch size 50"
out="$("$bin" audit --app stacks --segments "$dir/seg")"
status=$?
printf '%s\n' "$out"
[ "$status" -eq 0 ] || fail "audit without --epoch-size exited $status on an honest run"
printf '%s\n' "$out" | grep -qx "streamed $epochs epochs (epoch size 50)" ||
  fail "audit without --epoch-size did not stream at the stated size 50"
[ "$(printf '%s\n' "$out" | grep '^ACCEPTED: ')" = "$accepted" ] ||
  fail "audit without --epoch-size reached another verdict"
"$bin" check --segments "$dir/seg" | grep -q '^model check: clean' ||
  fail "check without --epoch-size is not clean on an honest run"

# A size other than the stated one is an operator error, not a verdict on
# the server: exit 2 naming both sizes, before any epoch is fed.
for cmd in audit check; do
  out="$("$bin" $cmd --app stacks --segments "$dir/seg" --epoch-size 40 2>"$dir/size_err")"
  status=$?
  [ "$status" -eq 2 ] || fail "$cmd --epoch-size 40 on epoch-50 containers exited $status, want 2"
  if printf '%s\n' "$out" | grep -q 'REJECTED'; then
    fail "$cmd --epoch-size 40 printed a verdict: $out"
  fi
  grep -q -- '--epoch-size 40 .* 50 ' "$dir/size_err" ||
    fail "$cmd --epoch-size 40 did not name both sizes: $(cat "$dir/size_err")"
done
# A checkpoint of a monolithic audit at epoch size 40 cannot resume the
# epoch-50 containers.
"$bin" audit --app stacks --trace "$dir/trace.bin" --advice "$dir/advice.bin" \
    --epoch-size 40 --checkpoint "$dir/ckpt40" >/dev/null ||
  fail "monolithic audit at epoch size 40 exited $?"
out="$("$bin" audit --app stacks --segments "$dir/seg" --resume "$dir/ckpt40" 2>"$dir/size_err")"
status=$?
[ "$status" -eq 2 ] || fail "resuming epoch-50 containers from an epoch-40 checkpoint exited $status"
if printf '%s\n' "$out" | grep -q 'REJECTED'; then
  fail "resuming from an epoch-40 checkpoint printed a verdict: $out"
fi

# Resume from the checkpoint: same verdict line, announced restore point.
out="$("$bin" audit --app stacks --segments "$dir/seg" --epoch-size 50 --resume "$dir/ckpt")"
status=$?
printf '%s\n' "$out"
[ "$status" -eq 0 ] || fail "resumed audit exited $status"
# The checkpoint was last written after the final epoch.
printf '%s\n' "$out" | grep -qx "resumed from $dir/ckpt at epoch $epochs" ||
  fail "resumed audit did not report restoring at epoch $epochs"
resumed="$(printf '%s\n' "$out" | grep '^ACCEPTED: ')"
[ "$resumed" = "$accepted" ] ||
  fail "resumed verdict '$resumed' differs from uninterrupted '$accepted'"

# A forged response must be rejected on the streamed, checkpointing path.
"$bin" tamper --trace "$dir/trace.bin" --out "$dir/forged.bin" || fail "tamper exited $?"
out="$("$bin" audit --app stacks --trace "$dir/forged.bin" --advice "$dir/advice.bin" \
    --epoch-size 50 --checkpoint "$dir/ckpt_forged")"
status=$?
printf '%s\n' "$out"
[ "$status" -eq 1 ] || fail "audit of a forged trace exited $status"
printf '%s\n' "$out" | grep -q '^REJECTED: ' || fail "audit of a forged trace printed no REJECTED line"

# A truncated last advice frame: the epochs before it are fed (the checkpoint
# is written after each one), then the broken frame rejects with its
# file-layer finding. Resuming from that checkpoint over the intact container
# picks up at the last epoch and reaches the uninterrupted verdict.
mkdir -p "$dir/trunc" || fail "cannot create $dir/trunc"
cp "$dir/seg/trace.kseg" "$dir/trunc/trace.kseg" || fail "cannot copy the trace container"
size="$(wc -c <"$dir/seg/advice.kseg")"
head -c "$((size - 1))" "$dir/seg/advice.kseg" >"$dir/trunc/advice.kseg" ||
  fail "cannot truncate the advice container"
out="$("$bin" audit --app stacks --segments "$dir/trunc" --epoch-size 50 \
    --checkpoint "$dir/ckpt_trunc")"
status=$?
printf '%s\n' "$out"
[ "$status" -eq 1 ] || fail "audit of a truncated container exited $status"
printf '%s\n' "$out" | grep -q '^REJECTED: segment stream: ' ||
  fail "audit of a truncated container printed no 'REJECTED: segment stream:' line"
[ -s "$dir/ckpt_trunc" ] ||
  fail "no checkpoint: the epochs before the truncated frame were not fed"
out="$("$bin" audit --app stacks --segments "$dir/seg" --epoch-size 50 \
    --resume "$dir/ckpt_trunc")"
status=$?
printf '%s\n' "$out"
[ "$status" -eq 0 ] || fail "audit resumed past the truncated frame exited $status"
printf '%s\n' "$out" | grep -qx "resumed from $dir/ckpt_trunc at epoch $((epochs - 1))" ||
  fail "the truncated audit did not feed the $((epochs - 1)) epochs before the broken frame"
resumed="$(printf '%s\n' "$out" | grep '^ACCEPTED: ')"
[ "$resumed" = "$accepted" ] ||
  fail "verdict '$resumed' resumed past the truncated frame differs from '$accepted'"

# The sharded path on a small run: `shard` cuts the monolithic pair two ways,
# `audit-shard` verifies each file on its own, and `audit-merge` folds the
# verdict artifacts into ACCEPTED. A flipped payload byte in one shard file
# fails that file's CRC: `audit-shard` refuses it under KAR-SEG-001.
"$bin" serve --app stacks --requests 60 --concurrency 6 \
    --out-trace "$dir/shard_trace.bin" --out-advice "$dir/shard_advice.bin" >/dev/null ||
  fail "serve for the shard run exited $?"
"$bin" shard --trace "$dir/shard_trace.bin" --advice "$dir/shard_advice.bin" \
    --shards 2 --epoch-size 20 --out-dir "$dir/shards" >/dev/null ||
  fail "shard exited $?"
for i in 0 1; do
  "$bin" audit-shard --app stacks --shard-file "$dir/shards/shard$i.kseg" \
      --out "$dir/shards/shard$i.artifact" >/dev/null ||
    fail "audit-shard of shard $i exited $?"
done
out="$("$bin" audit-merge --in-dir "$dir/shards")"
status=$?
printf '%s\n' "$out"
[ "$status" -eq 0 ] || fail "audit-merge exited $status on an honest run"
printf '%s\n' "$out" | grep -q '^ACCEPTED: 2 shards merged' || fail "audit-merge printed no ACCEPTED line"
shard_size="$(wc -c <"$dir/shards/shard1.kseg")"
last="$(tail -c 1 "$dir/shards/shard1.kseg" | od -An -tu1 | tr -d ' ')"
{
  head -c "$((shard_size - 1))" "$dir/shards/shard1.kseg"
  printf "\\$(printf '%03o' "$((last ^ 255))")"
} >"$dir/flipped.kseg" || fail "cannot flip a byte of shard1.kseg"
out="$("$bin" audit-shard --app stacks --shard-file "$dir/flipped.kseg")"
status=$?
printf '%s\n' "$out"
[ "$status" -ne 0 ] || fail "audit-shard accepted a shard file with a flipped payload byte"
printf '%s\n' "$out" | grep -q '^REJECTED: segment stream: KAR-SEG-001 ' ||
  fail "audit-shard of a flipped shard file printed no KAR-SEG-001 rejection: $out"

# A monolithic pair audited without --epoch-size streams at the default epoch
# size, with the verdict of that size given explicitly.
out="$("$bin" audit --app stacks --trace "$dir/trace.bin" --advice "$dir/advice.bin")"
status=$?
printf '%s\n' "$out"
[ "$status" -eq 0 ] || fail "monolithic audit exited $status on an honest run"
default_size="$(printf '%s\n' "$out" |
  sed -n 's/^streamed [0-9][0-9]* epochs (epoch size \([0-9][0-9]*\))$/\1/p')"
[ -n "$default_size" ] || fail "monolithic audit printed no 'streamed N epochs (epoch size K)' line"
default_verdict="$(printf '%s\n' "$out" | grep '^ACCEPTED: ')" ||
  fail "monolithic audit printed no ACCEPTED line"
explicit="$("$bin" audit --app stacks --trace "$dir/trace.bin" --advice "$dir/advice.bin" \
    --epoch-size "$default_size" | grep '^ACCEPTED: ')"
[ "$explicit" = "$default_verdict" ] ||
  fail "--epoch-size $default_size verdict '$explicit' differs from the default '$default_verdict'"

# `inspect --advice` splits the logged writes into full values and patches:
# motd logs its whole day map on every set, so its run stores patches; the
# checked-in lint fixture predates patches and holds full values only.
patches_of() {
  "$bin" inspect --advice "$1" |
    sed -n 's/^    writes: *[0-9][0-9]* full ([0-9][0-9]* B), \([0-9][0-9]*\) patches.*/\1/p'
}
"$bin" serve --app motd --requests 120 --concurrency 6 \
    --out-trace "$dir/motd_trace.bin" --out-advice "$dir/motd_advice.bin" >/dev/null ||
  fail "serve --app motd exited $?"
patches="$(patches_of "$dir/motd_advice.bin")"
[ -n "$patches" ] || fail "inspect --advice printed no writes line for motd"
[ "$patches" -gt 0 ] || fail "motd advice stores no patches"
fixture="$(dirname "$0")/../tests/fixtures/lint_bad.advice"
patches="$(patches_of "$fixture")"
[ "$patches" = 0 ] || fail "lint_bad.advice reports '$patches' patches, want 0"
# The total is the file's size, not that of a re-encode (which would store
# some of the fixture's full values as patches).
total="$("$bin" inspect --advice "$fixture" | sed -n 's/^advice: \([0-9][0-9]*\) B total$/\1/p')"
[ "$total" = 13126 ] || fail "inspect --advice totals lint_bad.advice as '$total' B, want 13126"

# Which error wins on a broken monolithic pair: both files are read before
# either decodes, so an unreadable file (missing, or a directory) fails the
# read with exit 1 and no verdict, even beside a truncated file; two readable
# files are then decoded trace first.
trace_size="$(wc -c <"$dir/trace.bin")"
head -c "$((trace_size / 2))" "$dir/trace.bin" >"$dir/half_trace.bin" ||
  fail "cannot truncate the trace"
advice_size="$(wc -c <"$dir/advice.bin")"
head -c "$((advice_size / 2))" "$dir/advice.bin" >"$dir/half_advice.bin" ||
  fail "cannot truncate the advice"
expect_read_failure() {
  what="$1"
  shift
  out="$("$bin" audit --app stacks "$@" 2>"$dir/read_err")"
  status=$?
  [ "$status" -eq 1 ] || fail "audit of $what exited $status, want 1"
  grep -q 'failed to read inputs' "$dir/read_err" ||
    fail "audit of $what printed no 'failed to read inputs': $(cat "$dir/read_err")"
  if printf '%s\n' "$out" | grep -q '^REJECTED'; then
    fail "audit of $what printed a verdict: $out"
  fi
}
expect_read_failure "a truncated trace and a missing advice" \
    --trace "$dir/half_trace.bin" --advice "$dir/no_such_advice.bin"
expect_read_failure "a directory as the trace" \
    --trace "$dir" --advice "$dir/advice.bin"
expect_rejected() {
  what="$1"
  line="$2"
  shift 2
  out="$("$bin" audit --app stacks "$@")"
  status=$?
  [ "$status" -eq 1 ] || fail "audit of $what exited $status, want 1"
  printf '%s\n' "$out" | grep -qxF "$line" || fail "audit of $what printed no '$line': $out"
}
expect_rejected "a truncated trace" "REJECTED: malformed trace file" \
    --trace "$dir/half_trace.bin" --advice "$dir/advice.bin"
expect_rejected "a truncated trace and advice" "REJECTED: malformed trace file" \
    --trace "$dir/half_trace.bin" --advice "$dir/half_advice.bin"
expect_rejected "a truncated advice" "REJECTED: malformed advice file (server misbehavior)" \
    --trace "$dir/trace.bin" --advice "$dir/half_advice.bin"

# Numeric flags parse strictly: the whole value, in range, or exit 2.
expect_bad_value() {
  flag="$1"
  shift
  err="$("$bin" "$@" 2>&1 >/dev/null)"
  status=$?
  [ "$status" -eq 2 ] || fail "'$*' exited $status, want 2"
  printf '%s\n' "$err" | grep -q "bad value for $flag" ||
    fail "'$*' printed no 'bad value for $flag': $err"
}
expect_bad_value --epoch-size audit --app stacks --trace "$dir/trace.bin" \
    --advice "$dir/advice.bin" --epoch-size abc
expect_bad_value --epoch-size audit --app stacks --trace "$dir/trace.bin" \
    --advice "$dir/advice.bin" --epoch-size -1
expect_bad_value --threads audit --app stacks --trace "$dir/trace.bin" \
    --advice "$dir/advice.bin" --threads 4294967296
for value in 12x 1e3 "" " 7"; do
  expect_bad_value --requests serve --app motd --requests "$value" \
      --out-trace "$dir/bad_trace.bin" --out-advice "$dir/bad_advice.bin"
done
expect_bad_value --concurrency serve --app motd --concurrency 0 \
    --out-trace "$dir/bad_trace.bin" --out-advice "$dir/bad_advice.bin"
expect_bad_value --connections load --connect "unix:$dir/none.sock" --connections 0
expect_bad_value --rate load --connect "unix:$dir/none.sock" --rate nan
expect_bad_value --rate load --connect "unix:$dir/none.sock" --rate 0
[ ! -e "$dir/bad_trace.bin" ] || fail "serve with a bad --requests wrote a trace"

# Over-deep JSON requests: exit 1 with a JSON error, no signal, no trace.
for depth in 1000 100000; do
  awk -v d="$depth" 'BEGIN {
    for (i = 0; i < d; i++) printf "[";
    printf "null";
    for (i = 0; i < d; i++) printf "]";
    print "";
  }' >"$dir/deep.jsonl"
  err="$("$bin" serve --app motd --inputs "$dir/deep.jsonl" \
      --out-trace "$dir/deep_trace.bin" --out-advice "$dir/deep_advice.bin" 2>&1)"
  status=$?
  [ "$status" -eq 1 ] || fail "serve on a $depth-deep input line exited $status"
  printf '%s\n' "$err" | grep -q 'JSON error' ||
    fail "serve on a $depth-deep input line printed no JSON error: $err"
  [ ! -e "$dir/deep_trace.bin" ] || fail "serve wrote a trace for a $depth-deep input line"
done

rm -rf "$dir"
echo "cli smoke check passed"
