// The advice linter: a pure, re-execution-free structural pass over each
// epoch's advice slice, run by the streamed audit's pre-screen and by the
// model check (src/analysis/check.h; CheckRun(trace, advice, 0) lints a
// whole run as one epoch).
//
// The verifier's grouped re-execution eventually rejects any malformed
// advice, but it does so deep inside ReExec with reasons phrased in terms of
// divergence ("handler operation missing from the handler log", ...). The
// linter validates the advice's *cross-referential integrity* up front —
// every OpRef, transaction position, and opcount the advice alleges must
// resolve — so that a misbehaving (or merely buggy) server fails fast, with
// a diagnostic naming the exact broken reference. Wrong advice can only cause
// rejection, never wrong acceptance (§2.1), so linting first is free:
// anything the linter rejects, re-execution would also have rejected.
//
// Rule catalogue (stable IDs; tests pin one corruption to each rule):
//   KAR-ADV-001  advice component references a request id not in the trace
//   KAR-ADV-002  opcounts entry malformed (reserved handler id, count overflow)
//   KAR-ADV-003  dangling VarLogEntry::prec (absent, non-write, or self)
//   KAR-ADV-004  var-log entry coordinates not covered by opcounts
//   KAR-ADV-005  handler-log entry coordinates not covered by opcounts
//   KAR-ADV-006  two log entries claim the same operation coordinates
//   KAR-ADV-007  responseEmittedBy references an unknown (rid, hid) or opnum
//   KAR-ADV-008  responseEmittedBy missing for a request in the trace
//   KAR-ADV-009  write-order entry names a transaction-log position that is
//                absent or not a PUT
//   KAR-ADV-010  the alleged write order is cyclic (an entry recurs)
//   KAR-ADV-011  tx-log GET's dictating-write reference does not resolve to a
//                matching PUT
//   KAR-ADV-012  tx-log entry coordinates not covered by opcounts
//   KAR-ADV-013  nondet record references an operation not covered by opcounts
//   KAR-ADV-014  re-execution tag missing for a request in the trace
#ifndef SRC_ANALYSIS_LINT_H_
#define SRC_ANALYSIS_LINT_H_

#include <functional>
#include <set>
#include <vector>

#include "src/adya/checker.h"
#include "src/analysis/diagnostic.h"
#include "src/server/advice.h"
#include "src/trace/trace.h"

namespace karousos {

// The session lints each epoch's advice slice as it arrives. Rules that are
// local to a slice run unchanged; the cross-slice references (a var-log prec
// or a GET's dictating write living in another epoch) resolve through the
// hooks below, and the write-order rules (009/010) — which are global by
// definition — run once over the accumulated order via LintWriteOrder.

// Whether a var-log predecessor reference resolves, and to a write entry.
struct VarPrecLookup {
  bool present = false;
  bool is_write = false;
};

struct LintEpochContext {
  // Request ids seen in the trace stream so far (rule 001's universe).
  const std::set<RequestId>* trace_rids = nullptr;
  // This epoch's request ids (rules 008/014 demand per-request coverage; the
  // slice can only be expected to cover its own epoch's requests).
  const std::set<RequestId>* epoch_rids = nullptr;
  // Resolves a prec that is absent from the slice's own var log (earlier
  // epochs' carried entries, later epochs' continuity imports).
  std::function<VarPrecLookup(VarId, const OpRef&)> var_prec;
  // Same, for transaction-log coordinates (rule 011).
  TxOpResolverFn tx_op;
};

// Runs rules 001-008 and 011-014 over one epoch slice and returns the
// findings in rule-ID order (then in deterministic advice-iteration order
// within a rule). Pure: no re-execution, no program access, no mutation.
// Write-order rules are deferred; run LintWriteOrder over the accumulated
// order at Finish.
std::vector<LintDiagnostic> LintAdviceEpoch(const Advice& slice, const LintEpochContext& ctx);

// Rules 009/010 over an assembled write order, resolving entries through
// `tx_op` (the cross-epoch ledger's resolver, src/analysis/carry_lint.h).
// Appends findings to `out`.
void LintWriteOrder(const WriteOrder& write_order, const TxOpResolverFn& tx_op,
                    std::vector<LintDiagnostic>* out);

}  // namespace karousos

#endif  // SRC_ANALYSIS_LINT_H_
