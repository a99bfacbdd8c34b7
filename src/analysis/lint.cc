#include "src/analysis/lint.h"

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "src/common/flat_map.h"
#include "src/common/graph.h"
#include "src/common/serde.h"

namespace karousos {

const char* LintSeverityName(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kError:
      return "error";
    case LintSeverity::kWarning:
      return "warning";
  }
  return "?";
}

std::string LintDiagnostic::Format() const {
  std::ostringstream out;
  out << rule << " " << LintSeverityName(severity) << " at " << location << ": " << message;
  return out.str();
}

void LintDiagnostic::Serialize(ByteWriter* out) const {
  out->WriteString(rule);
  out->WriteByte(static_cast<uint8_t>(severity));
  out->WriteString(location);
  out->WriteString(message);
}

LintDiagnostic LintDiagnostic::Deserialize(StateReader* in) {
  LintDiagnostic d;
  d.rule = in->S();
  d.severity = static_cast<LintSeverity>(in->Enum(static_cast<uint8_t>(LintSeverity::kWarning)));
  d.location = in->S();
  d.message = in->S();
  return d;
}

bool HasLintErrors(const std::vector<LintDiagnostic>& diagnostics) {
  for (const LintDiagnostic& d : diagnostics) {
    if (d.severity == LintSeverity::kError) {
      return true;
    }
  }
  return false;
}

namespace {

// Shared state for one lint run over an epoch slice: the session's
// accumulated request-id sets, the slice under scrutiny, the session's
// resolvers for references that leave the slice, and the output sink.
class Linter {
 public:
  Linter(const Advice& slice, const LintEpochContext& ctx, std::vector<LintDiagnostic>* out)
      : advice_(slice), out_(*out), trace_rids_(ctx.trace_rids), coverage_rids_(ctx.epoch_rids),
        var_prec_hook_(ctx.var_prec), tx_op_hook_(ctx.tx_op) {}

  void Run() {
    // Rules run in catalogue order so that the first error — the one the
    // verifier's structured RejectError carries — is deterministic.
    CheckRequestIds();        // 001
    CheckOpcounts();          // 002
    CheckVarLogPrecs();       // 003
    CheckVarLogCoverage();    // 004
    CheckHandlerLogs();       // 005
    CheckDuplicateClaims();   // 006
    CheckResponseEmittedBy(); // 007, 008
    // 009 and 010: the write order is global, so it is linted once, at
    // Finish, through RunWriteOrderRules.
    CheckTxLogGets();         // 011
    CheckTxLogCoverage();     // 012
    CheckNondet();            // 013
    CheckTags();              // 014
  }

  void RunWriteOrderRules(const WriteOrder& order) {
    CheckWriteOrderRefs(order);     // 009
    CheckWriteOrderAcyclic(order);  // 010
  }

 private:
  void Emit(const char* rule, std::string location, std::string message) {
    out_.push_back(LintDiagnostic{rule, LintSeverity::kError, std::move(location),
                                  std::move(message)});
  }

  bool InTrace(RequestId rid) const { return trace_rids_->count(rid) > 0; }

  // Resolves a transaction-log coordinate: the slice first, then the epoch
  // hook.
  ResolvedTxOp LookupTxOp(const TxOpRef& ref) const {
    auto log_it = advice_.tx_logs.find(TxnKey{ref.rid, ref.tid});
    if (log_it != advice_.tx_logs.end()) {
      ResolvedTxOp out;
      out.txn_present = true;
      if (ref.index >= 1 && ref.index <= log_it->second.size()) {
        const TxOperation& op = log_it->second[ref.index - 1];
        out.op_present = true;
        out.is_put = op.type == TxOpType::kPut;
        out.key = op.key;
        out.put_value = &op.put_value;
        out.hid = op.hid;
        out.opnum = op.opnum;
      }
      return out;
    }
    if (tx_op_hook_) {
      return tx_op_hook_(ref);
    }
    return ResolvedTxOp{};
  }

  // True iff (rid, hid, opnum) is a real operation position: opcounts has the
  // handler and 1 <= opnum <= count.
  bool CoveredByOpcounts(const OpRef& op) const {
    auto it = advice_.opcounts.find({op.rid, op.hid});
    return it != advice_.opcounts.end() && op.opnum >= 1 && op.opnum <= it->second;
  }

  static std::string VarLogLoc(VarId vid, const OpRef& op) {
    std::ostringstream out;
    out << "var_logs[0x" << std::hex << vid << std::dec << "][" << op.ToString() << "]";
    return out.str();
  }

  // KAR-ADV-001: every request id the advice mentions must appear in the
  // trace (the trace is ground truth; advice for phantom requests could only
  // come from a misbehaving server).
  void CheckRequestIds() {
    for (const auto& [rid, tag] : advice_.tags) {
      if (!InTrace(rid)) {
        Emit(kRule001, "tags[r" + std::to_string(rid) + "]",
             "tag for request not in trace");
      }
    }
    for (const auto& [rid, log] : advice_.handler_logs) {
      if (!InTrace(rid)) {
        Emit(kRule001, "handler_logs[r" + std::to_string(rid) + "]",
             "handler log for request not in trace");
      }
    }
    for (const auto& [vid, log] : advice_.var_logs) {
      for (const auto& [op, entry] : log) {
        if (!InTrace(op.rid)) {
          Emit(kRule001, VarLogLoc(vid, op), "variable log entry for request not in trace");
        }
      }
    }
    for (const auto& [txn, log] : advice_.tx_logs) {
      if (!InTrace(txn.rid)) {
        Emit(kRule001, "tx_logs[r" + std::to_string(txn.rid) + "]",
             "transaction log for request not in trace");
      }
    }
    for (const auto& [rid, by] : advice_.response_emitted_by) {
      if (!InTrace(rid)) {
        Emit(kRule001, "response_emitted_by[r" + std::to_string(rid) + "]",
             "responseEmittedBy entry for request not in trace");
      }
    }
    for (const auto& [key, count] : advice_.opcounts) {
      if (!InTrace(key.first)) {
        Emit(kRule001, "opcounts[r" + std::to_string(key.first) + "]",
             "opcounts entry for request " + std::to_string(key.first) + " not in trace");
      }
    }
    for (const auto& [op, record] : advice_.nondet) {
      if (!InTrace(op.rid)) {
        Emit(kRule001, "nondet[" + op.ToString() + "]",
             "non-determinism record for request not in trace");
      }
    }
  }

  // KAR-ADV-002: opcounts keys must name real, non-reserved handlers and the
  // counts must leave room for the handler-exit pseudo-operation.
  void CheckOpcounts() {
    for (const auto& [key, count] : advice_.opcounts) {
      const auto& [rid, hid] = key;
      // Location strings are built only on emission: the happy path across a
      // large advice must not pay for diagnostics it never produces.
      auto loc = [rid = rid, hid = hid] {
        return "opcounts[(r" + std::to_string(rid) + ",h" + std::to_string(hid) + ")]";
      };
      if (hid == kNoHandler || hid == kInitHandlerId) {
        Emit(kRule002, loc(), "opcounts entry with reserved handler id");
      }
      if (count >= kOpNumInf) {
        Emit(kRule002, loc(), "opcount overflow");
      }
    }
  }

  // KAR-ADV-003: a VarLogEntry::prec must resolve within the *same*
  // variable's log, to a distinct entry of kind write. (Reads always carry a
  // dictating write; writes may carry nil when the predecessor was the
  // initialization write or was back-filled.)
  void CheckVarLogPrecs() {
    for (const auto& [vid, log] : advice_.var_logs) {
      for (const auto& [op, entry] : log) {
        // Built lazily: var logs dominate the advice, and the clean path
        // through this check must not format a location per entry.
        auto loc = [vid = vid, &op] { return VarLogLoc(vid, op) + ".prec"; };
        if (entry.prec.IsNil()) {
          if (entry.kind == VarLogEntry::Kind::kRead) {
            Emit(kRule003, loc(), "logged read has no dictating write");
          }
          continue;
        }
        if (entry.prec == op) {
          Emit(kRule003, loc(), "log entry names itself as its own predecessor");
          continue;
        }
        VarPrecLookup prec;
        auto prec_it = log.find(entry.prec);
        if (prec_it != log.end()) {
          prec.present = true;
          prec.is_write = prec_it->second.kind == VarLogEntry::Kind::kWrite;
        } else if (var_prec_hook_) {
          prec = var_prec_hook_(vid, entry.prec);
        }
        if (!prec.present) {
          Emit(kRule003, loc(),
               "dangling predecessor " + entry.prec.ToString() +
                   " (no such entry in this variable's log)");
        } else if (!prec.is_write) {
          Emit(kRule003, loc(),
               "predecessor " + entry.prec.ToString() + " is not a write entry");
        }
      }
    }
  }

  // KAR-ADV-004: variable-log entry keys must be real operation positions.
  void CheckVarLogCoverage() {
    for (const auto& [vid, log] : advice_.var_logs) {
      for (const auto& [op, entry] : log) {
        if (!InTrace(op.rid)) {
          continue;  // Already reported under KAR-ADV-001.
        }
        if (!CoveredByOpcounts(op)) {
          Emit(kRule004, VarLogLoc(vid, op),
               "variable log entry coordinates not covered by opcounts");
        }
      }
    }
  }

  // KAR-ADV-005: handler-log entries must be real operation positions.
  void CheckHandlerLogs() {
    for (const auto& [rid, log] : advice_.handler_logs) {
      if (!InTrace(rid)) {
        continue;  // Already reported under KAR-ADV-001.
      }
      for (size_t i = 0; i < log.size(); ++i) {
        const HandlerLogEntry& e = log[i];
        if (!CoveredByOpcounts(OpRef{rid, e.hid, e.opnum})) {
          Emit(kRule005,
               "handler_logs[r" + std::to_string(rid) + "][" + std::to_string(i) + "]",
               "handler log entry " + OpRef{rid, e.hid, e.opnum}.ToString() +
                   " out of range of opcounts");
        }
      }
    }
  }

  // KAR-ADV-006: every (rid, hid, opnum) may be claimed by at most one log
  // entry across the handler logs, transaction logs, and variable logs — an
  // operation executes once, so two entries for it are contradictory advice.
  void CheckDuplicateClaims() {
    // The claim set is only probed, never iterated, so a hashed set keeps the
    // emitted diagnostics (and their order) identical. Location strings are
    // formatted lazily — only a duplicate pays for one.
    FlatSet<OpRef> claimed;
    auto claim = [&](const OpRef& op, auto&& loc) {
      if (!claimed.insert(op).second) {
        Emit(kRule006, loc(), "two log entries claim the same operation " + op.ToString());
      }
    };
    for (const auto& [rid, log] : advice_.handler_logs) {
      for (size_t i = 0; i < log.size(); ++i) {
        claim(OpRef{rid, log[i].hid, log[i].opnum}, [rid = rid, i] {
          return "handler_logs[r" + std::to_string(rid) + "][" + std::to_string(i) + "]";
        });
      }
    }
    for (const auto& [txn, log] : advice_.tx_logs) {
      for (size_t i = 0; i < log.size(); ++i) {
        claim(OpRef{txn.rid, log[i].hid, log[i].opnum}, [&txn, i] {
          return "tx_logs[" +
                 TxOpRef{txn.rid, txn.tid, static_cast<uint32_t>(i) + 1}.ToString() + "]";
        });
      }
    }
    for (const auto& [vid, log] : advice_.var_logs) {
      for (const auto& [op, entry] : log) {
        claim(op, [vid = vid, &op] { return VarLogLoc(vid, op); });
      }
    }
  }

  // KAR-ADV-007/008: responseEmittedBy must name a real operation for every
  // request, and every trace request must have an entry.
  void CheckResponseEmittedBy() {
    for (const auto& [rid, by] : advice_.response_emitted_by) {
      if (!InTrace(rid)) {
        continue;  // Already reported under KAR-ADV-001.
      }
      const auto& [hid, opnum] = by;
      if (!CoveredByOpcounts(OpRef{rid, hid, opnum}) && opnum != 0) {
        Emit(kRule007, "response_emitted_by[r" + std::to_string(rid) + "]",
             "responseEmittedBy references nonexistent operation " +
                 OpRef{rid, hid, opnum}.ToString());
      } else if (opnum == 0 && advice_.opcounts.count({rid, hid}) == 0) {
        // opnum 0 (response before the handler's first op) is legal, but the
        // handler itself must still exist.
        Emit(kRule007, "response_emitted_by[r" + std::to_string(rid) + "]",
             "responseEmittedBy references unknown handler h" + std::to_string(hid));
      }
    }
    for (RequestId rid : *coverage_rids_) {
      if (advice_.response_emitted_by.count(rid) == 0) {
        Emit(kRule008, "response_emitted_by[r" + std::to_string(rid) + "]",
             "responseEmittedBy missing for request " + std::to_string(rid));
      }
    }
  }

  // KAR-ADV-009: every write-order entry must name an existing transaction-log
  // position holding a PUT.
  void CheckWriteOrderRefs(const WriteOrder& write_order) {
    for (size_t i = 0; i < write_order.size(); ++i) {
      const TxOpRef& w = write_order[i];
      auto loc = [i] { return "write_order[" + std::to_string(i) + "]"; };
      ResolvedTxOp op = LookupTxOp(w);
      if (!op.txn_present) {
        Emit(kRule009, loc(),
             "write-order entry " + w.ToString() + " names a transaction absent from tx_logs");
        continue;
      }
      if (!op.op_present) {
        Emit(kRule009, loc(),
             "write-order entry " + w.ToString() + " index out of range");
        continue;
      }
      if (!op.is_put) {
        Emit(kRule009, loc(),
             "write-order entry " + w.ToString() + " does not name a PUT");
      }
    }
  }

  // KAR-ADV-010: the write order is an alleged *total order*; encode its
  // consecutive-pair precedences as a graph and demand acyclicity. A repeated
  // entry w at positions i < j yields w -> ... -> w, i.e. a cycle.
  void CheckWriteOrderAcyclic(const WriteOrder& write_order) {
    if (write_order.size() < 2) {
      return;
    }
    DirectedGraph order;
    for (size_t i = 0; i + 1 < write_order.size(); ++i) {
      const TxOpRef& from = write_order[i];
      const TxOpRef& to = write_order[i + 1];
      order.AddEdge(NodeKey{from.rid, from.tid, from.index}, NodeKey{to.rid, to.tid, to.index});
    }
    if (!order.HasCycle()) {
      return;
    }
    std::ostringstream cycle;
    for (const NodeKey& node : order.FindCycle()) {
      cycle << " " << TxOpRef{node.a, node.b, static_cast<uint32_t>(node.c)}.ToString();
    }
    Emit(kRule010, "write_order", "the alleged write order is cyclic:" + cycle.str());
  }

  // KAR-ADV-011: a found GET must point at a PUT of the same key; a not-found
  // GET must point at nothing.
  void CheckTxLogGets() {
    for (const auto& [txn, log] : advice_.tx_logs) {
      for (size_t i = 0; i < log.size(); ++i) {
        const TxOperation& op = log[i];
        if (op.type != TxOpType::kGet) {
          continue;
        }
        auto loc = [&txn, i] {
          return "tx_logs[" +
                 TxOpRef{txn.rid, txn.tid, static_cast<uint32_t>(i) + 1}.ToString() + "]";
        };
        if (!op.get_found) {
          if (!op.get_from.IsNil()) {
            Emit(kRule011, loc(), "not-found GET carries a dictating-write reference");
          }
          continue;
        }
        if (op.get_from.IsNil()) {
          Emit(kRule011, loc(), "found GET carries no dictating-write reference");
          continue;
        }
        ResolvedTxOp writer = LookupTxOp(op.get_from);
        if (!writer.txn_present) {
          Emit(kRule011, loc(),
               "GET's dictating write " + op.get_from.ToString() +
                   " names a transaction absent from tx_logs");
          continue;
        }
        if (!writer.op_present) {
          Emit(kRule011, loc(),
               "GET's dictating write " + op.get_from.ToString() + " index out of range");
          continue;
        }
        if (!writer.is_put) {
          Emit(kRule011, loc(),
               "GET's dictating write " + op.get_from.ToString() + " is not a PUT");
        } else if (writer.key != op.key) {
          Emit(kRule011, loc(),
               "GET's dictating write " + op.get_from.ToString() + " wrote key '" +
                   std::string(writer.key) + "', not '" + op.key + "'");
        }
      }
    }
  }

  // KAR-ADV-012: transaction-log entries must be real operation positions.
  void CheckTxLogCoverage() {
    for (const auto& [txn, log] : advice_.tx_logs) {
      if (!InTrace(txn.rid)) {
        continue;  // Already reported under KAR-ADV-001.
      }
      for (size_t i = 0; i < log.size(); ++i) {
        const TxOperation& op = log[i];
        if (!CoveredByOpcounts(OpRef{txn.rid, op.hid, op.opnum})) {
          Emit(kRule012,
               "tx_logs[" + TxOpRef{txn.rid, txn.tid, static_cast<uint32_t>(i) + 1}.ToString() +
                   "]",
               "transaction log entry " + OpRef{txn.rid, op.hid, op.opnum}.ToString() +
                   " not covered by opcounts");
        }
      }
    }
  }

  // KAR-ADV-013: non-determinism records must sit at real operation positions.
  void CheckNondet() {
    for (const auto& [op, record] : advice_.nondet) {
      if (!InTrace(op.rid)) {
        continue;  // Already reported under KAR-ADV-001.
      }
      if (!CoveredByOpcounts(op)) {
        Emit(kRule013, "nondet[" + op.ToString() + "]",
             "non-determinism record not covered by opcounts");
      }
    }
  }

  // KAR-ADV-014: every trace request needs a grouping tag or re-execution
  // cannot place it in any group.
  void CheckTags() {
    for (RequestId rid : *coverage_rids_) {
      if (advice_.tags.count(rid) == 0) {
        Emit(kRule014, "tags[r" + std::to_string(rid) + "]",
             "no re-execution tag for request " + std::to_string(rid));
      }
    }
  }

  static constexpr const char* kRule001 = "KAR-ADV-001";
  static constexpr const char* kRule002 = "KAR-ADV-002";
  static constexpr const char* kRule003 = "KAR-ADV-003";
  static constexpr const char* kRule004 = "KAR-ADV-004";
  static constexpr const char* kRule005 = "KAR-ADV-005";
  static constexpr const char* kRule006 = "KAR-ADV-006";
  static constexpr const char* kRule007 = "KAR-ADV-007";
  static constexpr const char* kRule008 = "KAR-ADV-008";
  static constexpr const char* kRule009 = "KAR-ADV-009";
  static constexpr const char* kRule010 = "KAR-ADV-010";
  static constexpr const char* kRule011 = "KAR-ADV-011";
  static constexpr const char* kRule012 = "KAR-ADV-012";
  static constexpr const char* kRule013 = "KAR-ADV-013";
  static constexpr const char* kRule014 = "KAR-ADV-014";

  const Advice& advice_;
  std::vector<LintDiagnostic>& out_;
  // The session's sets: all requests streamed so far, and this epoch's.
  const std::set<RequestId>* trace_rids_ = nullptr;
  const std::set<RequestId>* coverage_rids_ = nullptr;
  std::function<VarPrecLookup(VarId, const OpRef&)> var_prec_hook_;
  TxOpResolverFn tx_op_hook_;
};

}  // namespace

std::vector<LintDiagnostic> LintAdviceEpoch(const Advice& slice, const LintEpochContext& ctx) {
  std::vector<LintDiagnostic> diagnostics;
  Linter(slice, ctx, &diagnostics).Run();
  return diagnostics;
}

void LintWriteOrder(const WriteOrder& write_order, const TxOpResolverFn& tx_op,
                    std::vector<LintDiagnostic>* out) {
  // The accumulated order references transactions from every epoch; the
  // cross-epoch ledger (via tx_op) is the only surviving view of them.
  static const Advice kEmptyAdvice;
  LintEpochContext ctx;
  ctx.tx_op = tx_op;
  Linter(kEmptyAdvice, ctx, out).RunWriteOrderRules(write_order);
}

}  // namespace karousos
