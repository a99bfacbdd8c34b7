// Adya-style isolation testing over an *alleged* history (§4.4, Figure 17).
//
// The verifier cannot trust the server's transaction logs and write order, so
// these checks establish the isolation level only *provisionally*: they prove
// that the alleged history, taken at face value, exhibits the claimed level.
// The Karousos verifier separately ties the alleged history to re-execution
// (CheckStateOp) and to the execution graph G (AddExternalStateEdges), which
// together close the loop.
//
// This module is also usable standalone (tests run it against histories
// produced by src/txkv and against hand-built anomalies).
#ifndef SRC_ADYA_CHECKER_H_
#define SRC_ADYA_CHECKER_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/adya/history.h"
#include "src/common/graph.h"
#include "src/common/serde.h"
#include "src/txkv/store.h"

namespace karousos {

// What lives at an alleged transaction-log coordinate. The audit resolves
// references against (current slice -> carried state -> continuity imports),
// the whole-run lint against complete logs, the shard merge against the
// shards' summaries; every view collapses to this struct, so every consumer
// (log analysis, write-order extraction, the lint, re-execution's GET feed)
// is agnostic to where the answer came from.
struct ResolvedTxOp {
  bool txn_present = false;  // The referenced transaction exists.
  bool op_present = false;   // ... and the index is within its log.
  bool is_put = false;       // The referenced op is a PUT.
  // PUT details, valid only when is_put (no consumer distinguishes the
  // non-PUT types; they only ever ask "is this a PUT of key k").
  std::string_view key;
  const Value* put_value = nullptr;
  HandlerId hid = 0;
  OpNum opnum = 0;
};

using TxOpResolverFn = std::function<ResolvedTxOp(const TxOpRef&)>;

// What `logs` hold at `ref`, and a resolver over a complete set of logs.
ResolvedTxOp ResolveInLogs(const TransactionLogs& logs, const TxOpRef& ref);
TxOpResolverFn MakeLogResolver(const TransactionLogs& logs);

// Output of the log-shape analysis shared by the isolation checker and the
// verifier's AddExternalStateEdges.
struct HistoryAnalysis {
  bool ok = true;
  std::string reason;

  // Transactions whose log ends with tx_commit.
  std::set<TxnKey> committed;

  // Dictating write -> the GETs that observed it (Figure 14's ReadMap).
  std::map<TxOpRef, std::vector<TxOpRef>> read_map;

  // (rid, tid, key) -> index of the last PUT that a *committed* transaction
  // made to key (Figure 14's lastModification).
  std::map<std::tuple<RequestId, TxId, std::string>, uint32_t> last_modification;

  // The three sections above, in the one encoding the checkpoint and the
  // shard artifact share (ok and reason travel with each carrier's verdict).
  void SerializeSections(ByteWriter* out) const;
  void DeserializeSections(StateReader* in);
};

// Validates transaction-log well-formedness and fills the analysis:
//  * logs start with tx_start, end with at most one tx_commit/tx_abort, and
//    contain only PUT/GET in between;
//  * every GET's alleged dictating write exists, is a PUT, and matches keys;
//  * transactions observe their own writes (the MyWrites check): a GET of a
//    key the transaction previously wrote must read its own last write.
// On failure, `ok` is false and `reason` says why.
HistoryAnalysis AnalyzeLogs(const TransactionLogs& logs);

// Incremental form: appends the analysis of `logs` (one epoch's slice) into
// `into`, resolving dictating-write references through `resolve` so that
// cross-epoch references (earlier-epoch carries, later-epoch continuity
// imports) validate exactly as the full-log lookup would. Iterating the
// epoch slices in epoch order visits transactions in the same global sorted
// order as AnalyzeLogs over the merged logs, so the first error — and hence
// the audit verdict — is the same. No-op when `into->ok` is already false.
void AnalyzeLogsInto(const TransactionLogs& logs, const TxOpResolverFn& resolve,
                     HistoryAnalysis* into);

struct IsolationCheckResult {
  bool ok = true;
  std::string reason;
  // Sizes of the dependency graph, for diagnostics and bench counters.
  size_t dg_nodes = 0;
  size_t dg_edges = 0;
};

// Runs Figure 17 — IsolationLvlVer — against the alleged history: extracts
// the per-key write order (checking it lists exactly the last modifications
// of committed transactions), adds write-/read-/anti-dependency edges per the
// claimed level, and checks the dependency graph for cycles. Also enforces
// the G1a/G1b condition that committed transactions only read final writes of
// committed transactions (read-committed and serializable levels).
// Write-order entries resolve through `resolve`: the audit's carried PUT
// state, since the audit does not hold the logs at Finish time.
IsolationCheckResult CheckIsolation(IsolationLevel level, const TxOpResolverFn& resolve,
                                    const WriteOrder& write_order,
                                    const HistoryAnalysis& analysis);

// Convenience wrapper: analyze then check.
IsolationCheckResult CheckHistory(IsolationLevel level, const TransactionLogs& logs,
                                  const WriteOrder& write_order);

}  // namespace karousos

#endif  // SRC_ADYA_CHECKER_H_
