#!/bin/sh
# Smoke-checks the streamed `karousos audit` over a compressed KSEG container:
# --checkpoint must write its file, --resume must restore it and reach the
# uninterrupted verdict, a forged trace must be rejected on the same streamed
# path, and a truncated last frame must be rejected only after the epochs
# before it were fed. Also checks that `serve --inputs` refuses a request nested
# past the decoder's depth cap with a JSON error instead of crashing or
# recording a trace the audit cannot read.
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
    --out-segments "$dir/seg" --epoch-size 50 --compress all ||
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
