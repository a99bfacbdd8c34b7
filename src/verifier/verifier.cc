#include "src/verifier/verifier.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "src/analysis/check.h"
#include "src/analysis/lint.h"
#include "src/analysis/race.h"

namespace karousos {

namespace {

// Auxiliary node marker for the time-precedence epoch chain (never collides
// with request ids, which are assigned from 1 upward).
constexpr uint64_t kEpochMarker = ~uint64_t{0};

// Throws the first error-severity finding at or after `from` as the
// rejection, with the reason `karousos check` gives for it.
void ThrowFirstError(const std::vector<LintDiagnostic>& diagnostics, size_t from) {
  for (size_t i = from; i < diagnostics.size(); ++i) {
    if (diagnostics[i].severity == LintSeverity::kError) {
      throw RejectError(diagnostics[i].rule, RejectReason(diagnostics[i]));
    }
  }
}

std::string DescribeNode(const NodeKey& key) {
  std::ostringstream out;
  if (key.a == kEpochMarker) {
    out << "epoch#" << key.b;
  } else if (key.b == 0 && key.c == 0) {
    out << "req(r" << key.a << ")";
  } else if (key.b == 0 && key.c == kOpNumInf) {
    out << "resp(r" << key.a << ")";
  } else {
    out << OpRef{key.a, key.b, static_cast<OpNum>(key.c)}.ToString();
  }
  return out.str();
}

// The step at which the write chain from `start` first revisits a write, or
// SIZE_MAX if the chain ends. Brent's cycle detection: no set of the chain.
size_t FirstRevisitStep(const FlatMap<OpRef, OpRef>& write_observer, const OpRef& start) {
  const auto next = [&write_observer](const OpRef& op) {
    auto it = write_observer.find(op);
    return it == write_observer.end() ? OpRef{} : it->second;
  };
  if (start.IsNil()) {
    return SIZE_MAX;
  }
  size_t power = 1;
  size_t cycle = 1;  // Once tortoise == hare: the cycle's length.
  OpRef tortoise = start;
  OpRef hare = next(start);
  while (hare != tortoise) {
    if (hare.IsNil()) {
      return SIZE_MAX;
    }
    if (power == cycle) {
      tortoise = hare;
      power *= 2;
      cycle = 0;
    }
    hare = next(hare);
    ++cycle;
  }
  // The first revisit is `cycle` steps past the cycle's first write.
  tortoise = hare = start;
  for (size_t i = 0; i < cycle; ++i) {
    hare = next(hare);
  }
  size_t tail = 0;
  for (; tortoise != hare; ++tail) {
    tortoise = next(tortoise);
    hare = next(hare);
  }
  return tail + cycle;
}

}  // namespace

void AuditStats::Merge(const AuditStats& other) {
  groups += other.groups;
  group_lane_total += other.group_lane_total;
  handler_executions += other.handler_executions;
  handler_lanes += other.handler_lanes;
  ops_executed += other.ops_executed;
  graph_nodes += other.graph_nodes;
  graph_edges += other.graph_edges;
  graph_hashed_nodes += other.graph_hashed_nodes;
  var_dict_entries += other.var_dict_entries;
  isolation_dg_nodes += other.isolation_dg_nodes;
  isolation_dg_edges += other.isolation_dg_edges;
}

void Verifier::BuildAdviceIndices() {
  // One pass over the advice maps into flat hash tables: the re-execution
  // inner loop does several lookups per operation, and O(log n) node-based
  // probes there dominate the serial audit. Index entries hold pointers into
  // the advice, which the caller keeps alive for the whole audit.
  opcount_idx_.reserve(advice_->opcounts.size());
  for (const auto& [key, count] : advice_->opcounts) {
    opcount_idx_.emplace(key, count);
  }
  nondet_idx_.reserve(advice_->nondet.size());
  for (const auto& [op, record] : advice_->nondet) {
    nondet_idx_.emplace(op, &record);
  }
  var_log_idx_.reserve(advice_->var_logs.size());
  size_t var_log_entries = 0;
  for (const auto& [vid, log] : advice_->var_logs) {
    FlatMap<OpRef, const VarLogEntry*>& idx = var_log_idx_[vid];
    idx.reserve(log.size());
    for (const auto& [op, entry] : log) {
      idx.emplace(op, &entry);
    }
    var_log_entries += log.size();
  }
  tx_log_idx_.reserve(advice_->tx_logs.size());
  size_t tx_ops = 0;
  for (const auto& [txn, log] : advice_->tx_logs) {
    tx_log_idx_.emplace(txn, &log);
    tx_ops += log.size();
  }
  handler_log_idx_.reserve(advice_->handler_logs.size());
  size_t handler_ops = 0;
  for (const auto& [rid, log] : advice_->handler_logs) {
    handler_log_idx_.emplace(rid, &log);
    handler_ops += log.size();
  }
  resp_idx_.reserve(advice_->response_emitted_by.size());
  for (const auto& [rid, by] : advice_->response_emitted_by) {
    resp_idx_.emplace(rid, by);
  }
  profile_.advice_index_entries = advice_->opcounts.size() + advice_->nondet.size() +
                                  var_log_entries + advice_->tx_logs.size() +
                                  advice_->handler_logs.size() +
                                  advice_->response_emitted_by.size();
  op_map_.reserve(handler_ops + tx_ops);
}

void Verifier::AddProgramEdges() {
  for (const auto& [key, count] : advice_->opcounts) {
    const auto& [rid, hid] = key;
    if (trace_rids_.count(rid) == 0) {
      Reject("opcounts entry for request not in trace");
    }
    if (hid == kNoHandler || hid == kInitHandlerId) {
      Reject("opcounts entry with reserved handler id");
    }
    if (count >= kOpNumInf) {
      Reject("opcount overflow");
    }
    graph_.AddChain(rid, hid, count);
  }
}

void Verifier::AddBoundaryEdges() {
  // Request arrival -> request-handler start, for the request handlers the
  // verifier's own initialization run registered.
  std::set<HandlerId> request_handler_hids;
  for (const auto& [event, function] : global_handlers_) {
    if (event == EventId(kRequestEventName)) {
      request_handler_hids.insert(ComputeHandlerId(function, kNoHandler, 0));
    }
  }
  for (const auto& [key, count] : advice_->opcounts) {
    const auto& [rid, hid] = key;
    if (request_handler_hids.count(hid) > 0) {
      graph_.AddEdge(NodeKey::ForRequestArrival(rid), NodeKey::ForOp(OpRef{rid, hid, 0}));
    }
  }
  // Response delivery sits between the delivering handler's last-op-before
  // and next-op-after (Figure 15).
  for (const auto& [rid, by] : advice_->response_emitted_by) {
    if (trace_rids_.count(rid) == 0) {
      Reject("responseEmittedBy entry for request not in trace");
    }
  }
  for (RequestId rid : epoch_rids_) {
    auto it = resp_idx_.find(rid);
    if (it == resp_idx_.end()) {
      Reject("responseEmittedBy missing for request " + std::to_string(rid));
    }
    const auto& [hid_r, opnum_r] = it->second;
    auto count_it = opcount_idx_.find({rid, hid_r});
    if (count_it == opcount_idx_.end() || opnum_r > count_it->second) {
      Reject("responseEmittedBy references a nonexistent operation");
    }
    graph_.AddEdge(NodeKey::ForOp(OpRef{rid, hid_r, opnum_r}), NodeKey::ForResponseDelivery(rid));
    OpNum next = opnum_r == count_it->second ? kOpNumInf : opnum_r + 1;
    graph_.AddEdge(NodeKey::ForResponseDelivery(rid), NodeKey::ForOp(OpRef{rid, hid_r, next}));
  }
}

void Verifier::CheckOpIsValid(RequestId rid, HandlerId hid, OpNum opnum) {
  auto it = opcount_idx_.find({rid, hid});
  if (it == opcount_idx_.end()) {
    Reject("log entry for handler with no opcount");
  }
  if (opnum < 1 || opnum > it->second) {
    Reject("log entry opnum out of range");
  }
  if (op_map_.count(OpRef{rid, hid, opnum}) > 0) {
    Reject("two log entries claim the same operation");
  }
}

std::vector<FunctionId> Verifier::MatchHandlers(
    const std::vector<std::pair<uint64_t, FunctionId>>& globals,
    const std::vector<std::pair<uint64_t, FunctionId>>& registered, uint64_t event) {
  std::vector<FunctionId> matched;
  for (const auto& [ev, fn] : globals) {
    if (ev == event) {
      matched.push_back(fn);
    }
  }
  for (const auto& [ev, fn] : registered) {
    if (ev == event) {
      matched.push_back(fn);
    }
  }
  return matched;
}

void Verifier::AddHandlerRelatedEdges() {
  for (const auto& [rid, log] : advice_->handler_logs) {
    if (trace_rids_.count(rid) == 0) {
      Reject("handler log for request not in trace");
    }
    std::vector<std::pair<uint64_t, FunctionId>> registered;
    OpRef prev{};
    for (uint32_t i = 1; i <= log.size(); ++i) {
      const HandlerLogEntry& e = log[i - 1];
      CheckOpIsValid(rid, e.hid, e.opnum);
      OpRef cur{rid, e.hid, e.opnum};
      OpLocation loc;
      loc.kind = OpLocation::Kind::kHandlerLog;
      loc.rid = rid;
      loc.index = i;
      op_map_.emplace(cur, loc);
      if (i > 1) {
        graph_.AddEdge(NodeKey::ForOp(prev), NodeKey::ForOp(cur));
      }
      prev = cur;
      switch (e.kind) {
        case HandlerLogEntry::Kind::kRegister:
          if (program_.FindFunction(e.function) == nullptr) {
            Reject("handler log registers an unknown function");
          }
          registered.emplace_back(e.event, e.function);
          break;
        case HandlerLogEntry::Kind::kUnregister: {
          auto match = std::find(registered.begin(), registered.end(),
                                 std::make_pair(e.event, e.function));
          if (match == registered.end()) {
            Reject("handler log unregisters a function that is not registered");
          }
          registered.erase(match);
          break;
        }
        case HandlerLogEntry::Kind::kEmit: {
          for (FunctionId fn : MatchHandlers(global_handlers_, registered, e.event)) {
            HandlerId child = ComputeHandlerId(fn, e.hid, e.opnum);
            if (!opcount_idx_.contains({rid, child})) {
              Reject("emitted event activates a handler missing from opcounts");
            }
            activated_handlers_[cur].push_back(Activation{child, fn});
            graph_.AddEdge(NodeKey::ForOp(cur), NodeKey::ForOp(OpRef{rid, child, 0}));
          }
          break;
        }
      }
    }
  }
}

void Verifier::AddExternalStateEdges() {
  // Incremental analysis: epoch slices arrive in epoch order, which visits
  // transactions in the same global sorted order AnalyzeLogs would over the
  // whole run, so the accumulated history_ and its first rejection do not
  // depend on the epoch size.
  AnalyzeLogsInto(advice_->tx_logs, [this](const TxOpRef& ref) { return ResolveTxOp(ref); },
                  &history_);
  if (!history_.ok) {
    Reject(history_.reason);
  }
  for (const auto& [txn, log] : advice_->tx_logs) {
    if (trace_rids_.count(txn.rid) == 0) {
      Reject("transaction log for request not in trace");
    }
    for (uint32_t i = 1; i <= log.size(); ++i) {
      const TxOperation& op = log[i - 1];
      CheckOpIsValid(txn.rid, op.hid, op.opnum);
      OpRef cur{txn.rid, op.hid, op.opnum};
      OpLocation loc;
      loc.kind = OpLocation::Kind::kTxLog;
      loc.txn = txn;
      loc.index = i;
      op_map_.emplace(cur, loc);
      if (op.type == TxOpType::kGet && op.get_found) {
        // Write-read edge from the dictating PUT to this GET (§4.4; footnote
        // 3 explains why no WW/RW edges are added for external state).
        // AnalyzeLogsInto already validated the reference. The dictating PUT
        // may live in another epoch, in which case the edge endpoint is
        // interned now and unified with the real operation node when (or
        // because) its epoch contributes it.
        ResolvedTxOp writer = ResolveTxOp(op.get_from);
        graph_.AddEdge(NodeKey::ForOp(OpRef{op.get_from.rid, writer.hid, writer.opnum}),
                       NodeKey::ForOp(cur));
      }
    }
  }
}

void Verifier::Postprocess() {
  AddInternalStateEdges();
  if (graph_.HasCycle()) {
    std::ostringstream out;
    out << "execution graph has a cycle:";
    for (const NodeKey& node : graph_.FindCycle()) {
      out << " " << DescribeNode(node);
    }
    Reject(out.str());
  }
}

void Verifier::AddInternalStateEdges() {
  // vars_ is a hash table whose iteration order is insertion order; the edges
  // (and any cycle diagnostic they produce) must not depend on it, so walk
  // the variables in sorted-vid order — the order the old std::map gave.
  std::vector<VarId> vids;
  vids.reserve(vars_.size());
  for (const auto& [vid, var] : vars_) {
    vids.push_back(vid);
  }
  std::sort(vids.begin(), vids.end());
  // Each endpoint is interned once per step, in the order the edges first
  // name it, so node ids and edge order match one AddEdge(key, key) per edge.
  constexpr DirectedGraph::NodeId kUnset = -1;
  std::vector<DirectedGraph::NodeId> reader_ids;
  for (VarId vid : vids) {
    const VerifierVar& var = vars_.find(vid)->second;
    OpRef cur = var.initializer;
    DirectedGraph::NodeId cur_id = kUnset;
    const size_t revisit = FirstRevisitStep(var.write_observer, cur);
    for (size_t step = 0; !cur.IsNil(); ++step) {
      if (step == revisit) {
        Reject("variable write chain is cyclic");
      }
      reader_ids.clear();
      auto readers = var.read_observers.find(cur);
      if (readers != var.read_observers.end()) {
        for (const OpRef& r : readers->second) {
          if (cur_id == kUnset) {
            cur_id = graph_.AddNode(NodeKey::ForOp(cur));
          }
          reader_ids.push_back(graph_.AddNode(NodeKey::ForOp(r)));
          graph_.AddEdge(cur_id, reader_ids.back());  // WR
        }
      }
      auto next = var.write_observer.find(cur);
      if (next == var.write_observer.end()) {
        break;
      }
      if (cur_id == kUnset) {
        cur_id = graph_.AddNode(NodeKey::ForOp(cur));
      }
      const DirectedGraph::NodeId next_id = graph_.AddNode(NodeKey::ForOp(next->second));
      for (DirectedGraph::NodeId r : reader_ids) {
        graph_.AddEdge(r, next_id);  // RW
      }
      graph_.AddEdge(cur_id, next_id);  // WW
      cur = next->second;
      cur_id = next_id;
    }
  }
}

// --- Epoch streaming (driven by AuditSession) --------------------------------

ResolvedTxOp Verifier::ResolveTxOp(const TxOpRef& ref) const {
  auto it = tx_log_idx_.find(TxnKey{ref.rid, ref.tid});
  if (it != tx_log_idx_.end()) {
    ResolvedTxOp out;
    out.txn_present = true;
    const auto& log = *it->second;
    if (ref.index >= 1 && ref.index <= log.size()) {
      const TxOperation& op = log[ref.index - 1];
      out.op_present = true;
      out.is_put = op.type == TxOpType::kPut;
      out.key = op.key;
      out.put_value = &op.put_value;
      out.hid = op.hid;
      out.opnum = op.opnum;
    }
    return out;
  }
  ResolvedTxOp out = carry_lint_.ResolveTxOp(ref);
  if (out.is_put && out.put_value == nullptr) {
    out.put_value = &put_values_.find(ref)->second;  // Every ledger PUT has one.
  }
  return out;
}

ResolvedVarEntry Verifier::ResolveVarEntry(VarId vid, const OpRef& op) const {
  auto log_it = var_log_idx_.find(vid);
  if (log_it != var_log_idx_.end()) {
    auto entry_it = log_it->second.find(op);
    if (entry_it != log_it->second.end()) {
      const VarLogEntry& entry = *entry_it->second;
      return {true, entry.kind == VarLogEntry::Kind::kWrite, &entry.value};
    }
  }
  ResolvedVarEntry out = carry_lint_.ResolveVarEntry(vid, op);
  if (out.is_write && out.value == nullptr) {
    auto value_it = var_values_.find({vid, op});
    if (value_it != var_values_.end()) {
      out.value = &value_it->second;
    }
  }
  return out;
}

void Verifier::StreamBegin(uint64_t epoch_requests) {
  epoch_requests_ = epoch_requests;
  carry_lint_.Begin(epoch_requests);
  carry_lint_.SetShardFilter(shard_rids_);  // Begin resets the lint's state.
}

void Verifier::StreamIngestWindow(const std::vector<TraceEvent>& window) {
  // Balance transitions first ("Check Tr is balanced", Figure 14), then the
  // reserved-id check and input/response capture. Request ids are handed out
  // in arrival order, so a request's insert lands at the end hint.
  for (const TraceEvent& ev : window) {
    uint8_t& s = balance_.try_emplace(balance_.end(), ev.rid, 0)->second;
    if (ev.kind == TraceEvent::Kind::kRequest) {
      if (s != 0) {
        Reject("trace is not balanced: duplicate request id " + std::to_string(ev.rid));
      }
      s = 1;
    } else {
      if (s != 1) {
        Reject("trace is not balanced: response for request " + std::to_string(ev.rid) +
               (s == 0 ? " before its request" : " delivered twice"));
      }
      s = 2;
    }
  }
  for (const TraceEvent& ev : window) {
    if (ev.kind == TraceEvent::Kind::kRequest) {
      if (ev.rid == kInitRequestId) {
        Reject("trace contains the reserved init request id");
      }
      trace_rids_.insert(trace_rids_.end(), ev.rid);
      request_inputs_.insert_or_assign(request_inputs_.end(), ev.rid, ev.payload);
    } else {
      responses_[ev.rid] = ev.payload;
    }
  }
}

void Verifier::StreamTimePrecedence(const std::vector<TraceEvent>& window) {
  // Encodes exactly the response-before-request constraints of the trace with
  // O(n) edges: responses feed an auxiliary epoch chain, and each request
  // arrival hangs off the most recent epoch. Epoch nodes have no incoming
  // edges from requests, so no spurious response-response or request-request
  // ordering is introduced (that would break Completeness). The chain state
  // persists across windows, so the edge set does not depend on the epoch
  // size.
  for (const TraceEvent& ev : window) {
    if (ev.kind == TraceEvent::Kind::kResponse) {
      tp_pending_responses_.push_back(ev.rid);
      continue;
    }
    if (!tp_pending_responses_.empty()) {
      NodeKey next{kEpochMarker, ++tp_epoch_count_, 0};
      if (tp_have_epoch_) {
        graph_.AddEdge(tp_current_epoch_, next);
      }
      for (RequestId resp_rid : tp_pending_responses_) {
        graph_.AddEdge(NodeKey::ForResponseDelivery(resp_rid), next);
      }
      tp_pending_responses_.clear();
      tp_current_epoch_ = next;
      tp_have_epoch_ = true;
    }
    if (tp_have_epoch_) {
      graph_.AddEdge(tp_current_epoch_, NodeKey::ForRequestArrival(ev.rid));
    }
  }
}

void Verifier::CheckEpochStatically(const EpochSegment& segment) {
  // Slice-local lint; the global write-order rules run once at Finish.
  LintEpochContext lint_ctx;
  lint_ctx.trace_rids = &trace_rids_;
  lint_ctx.epoch_rids = &epoch_rids_;
  lint_ctx.var_prec = [this](VarId vid, const OpRef& op) {
    ResolvedVarEntry entry = ResolveVarEntry(vid, op);
    return VarPrecLookup{entry.present, entry.is_write};
  };
  lint_ctx.tx_op = [this](const TxOpRef& ref) { return ResolveTxOp(ref); };
  size_t first_new = diagnostics_.size();
  for (LintDiagnostic& d : LintAdviceEpoch(segment.advice, lint_ctx)) {
    diagnostics_.push_back(std::move(d));
  }
  ThrowFirstError(diagnostics_, first_new);
  // Fast-reject pre-screen: the cross-epoch static rules, before any of this
  // epoch's graph building or re-execution. It does not judge a slice the
  // lint already rejected, so the findings do not depend on the epoch size.
  first_new = diagnostics_.size();
  carry_lint_.CheckEpoch(segment, trace_rids_, &diagnostics_);
  ThrowFirstError(diagnostics_, first_new);
}

void Verifier::StreamEpoch(const EpochSegment& segment) {
  if (decided_) {
    return;  // Drain: the verdict is already determined.
  }
  PhaseTimer total_timer(&profile_.total_seconds);
  PruneVarDicts();
  try {
    {
      PhaseTimer t(&profile_.preprocess_seconds);
      StreamIngestWindow(segment.window);
      // Epoch k's rids are [k*E + 1, (k+1)*E] (EpochOfRid), one range of
      // the sorted trace_rids_: seek to its start, not past every request.
      epoch_rids_.clear();
      auto rid_it = trace_rids_.begin();
      if (epochs_fed_ > 0 && epoch_requests_ > 0) {
        rid_it = epoch_requests_ > (UINT64_MAX - 1) / epochs_fed_
                     ? trace_rids_.end()
                     : trace_rids_.lower_bound(epochs_fed_ * epoch_requests_ + 1);
      }
      for (; rid_it != trace_rids_.end() && EpochOfRid(*rid_it, epoch_requests_) == epochs_fed_;
           ++rid_it) {
        epoch_rids_.insert(epoch_rids_.end(), *rid_it);
      }
      // Epoch completeness: every request of this epoch must have both
      // arrived and responded by the end of its window — the collector's
      // rollover guarantees that, so a gap is misbehavior. The reason matches
      // the Finish-time balance check, so the verdict does not depend on
      // which epoch the gap falls in.
      for (RequestId rid : epoch_rids_) {
        auto bal = balance_.find(rid);
        if (bal == balance_.end() || bal->second != 2) {
          Reject("trace is not balanced: request " + std::to_string(rid) + " has no response");
        }
      }
      // Shard scope: the completeness check above covers the full replicated
      // trace (every shard judges trace defects identically); everything from
      // here on — lint epoch context, boundary edges, re-execution groups,
      // response matching — narrows to the requests this shard owns.
      if (shard_rids_ != nullptr) {
        for (auto it = epoch_rids_.begin(); it != epoch_rids_.end();) {
          it = shard_rids_->count(*it) != 0 ? std::next(it) : epoch_rids_.erase(it);
        }
      }
      advice_ = &segment.advice;
      carry_lint_.RegisterImports(segment);
      CheckEpochStatically(segment);
      BuildAdviceIndices();
      if (!init_done_) {
        RunInitialization();
        init_done_ = true;
      }
      StreamTimePrecedence(segment.window);
      AddProgramEdges();
      AddBoundaryEdges();
      AddHandlerRelatedEdges();
      AddExternalStateEdges();
    }
    {
      PhaseTimer t(&profile_.reexec_seconds);
      ReExec();
    }
  } catch (const RejectError& e) {
    decided_ = true;
    decided_reason_ = e.reason;
    decided_rule_ = e.rule;
    decided_epoch_ = epochs_fed_;
  } catch (const std::exception& e) {
    // Malformed advice must never crash the verifier: any fault surfacing
    // from re-executed application code counts as server misbehavior.
    decided_ = true;
    decided_reason_ = std::string("re-execution fault: ") + e.what();
    decided_epoch_ = epochs_fed_;
  }
  StreamEndEpoch(segment);
  ++epochs_fed_;
}

void Verifier::StreamEndEpoch(const EpochSegment& segment) {
  // Folded even when this epoch decided the audit: if it was the last one,
  // the finish-time static rules still read it.
  carry_lint_.EndEpoch(segment);

  // The values beside the ledger's shapes: PUT payloads, and the writes to
  // variables that are not request-scoped. The pre-screen confirmed every
  // import naming this slice before the fold, so no dropped value is still
  // owed to a confirmation.
  for (const auto& [txn, log] : segment.advice.tx_logs) {
    for (uint32_t i = 1; i <= log.size(); ++i) {
      const TxOperation& op = log[i - 1];
      if (op.type == TxOpType::kPut) {
        put_values_[TxOpRef{txn.rid, txn.tid, i}] = op.put_value;
      }
    }
  }
  for (const auto& [vid, log] : segment.advice.var_logs) {
    auto var_it = vars_.find(vid);
    if (var_it != vars_.end() && var_it->second.request_scoped) {
      continue;
    }
    for (const auto& [op, entry] : log) {
      if (entry.kind == VarLogEntry::Kind::kWrite) {
        var_values_[{vid, op}] = entry.value;
      }
    }
  }

  // Drop everything scoped to the finished epoch. The graph, vars_, history_,
  // balance, the ledger and the carried values are all that survive; the next epoch prunes the var_dict payloads first
  // (PruneVarDicts), so the last epoch's go with the verifier.
  advice_ = nullptr;
  op_map_.clear();
  activated_handlers_.clear();
  executed_.clear();
  responded_.clear();
  var_log_touched_.clear();
  tx_positions_.clear();
  parents_.clear();
  opcount_idx_.clear();
  nondet_idx_.clear();
  var_log_idx_.clear();
  tx_log_idx_.clear();
  handler_log_idx_.clear();
  resp_idx_.clear();
  for (RequestId rid : epoch_rids_) {
    request_inputs_.erase(rid);
    responses_.erase(rid);
  }
}

void Verifier::PruneVarDicts() {
  for (auto& [vid, var] : vars_) {
    if (var.var_dict.empty()) {
      continue;
    }
    decltype(var.var_dict) kept;
    for (auto& [key, writes] : var.var_dict) {
      if (key.first == kInitRequestId) {
        kept.emplace(key, std::move(writes));
      } else {
        var_dict_entries_pruned_ += writes.size();
      }
    }
    var.var_dict = std::move(kept);
  }
}

void Verifier::FinishStatically() {
  // The write-order lint resolves through the ledger alone: the live slice's
  // indices are empty once the last epoch ended.
  size_t first_new = diagnostics_.size();
  carry_lint_.Finish(&diagnostics_);
  ThrowFirstError(diagnostics_, first_new);
}

AuditResult Verifier::StreamFinish(bool fed_all) {
  AuditResult result;
  PhaseTimer total_timer(&profile_.total_seconds);
  if (decided_) {
    result.reason = decided_reason_;
    result.rule = decided_rule_;
    if (fed_all) {
      // The rest of the static findings; the verdict stays the first one.
      PhaseTimer t(&profile_.preprocess_seconds);
      try {
        FinishStatically();
      } catch (const RejectError&) {
      }
    }
  } else {
    try {
      {
        // Figure 14's global half: trace coverage and balance, the static
        // rules over the whole stream, and isolation.
        PhaseTimer t(&profile_.preprocess_seconds);
        // The stream must have covered every epoch the trace mentions; a rid
        // beyond the last fed epoch would otherwise silently skip
        // re-execution.
        for (RequestId rid : trace_rids_) {
          if (EpochOfRid(rid, epoch_requests_) >= epochs_fed_) {
            Reject("trace contains requests beyond the final advice epoch");
          }
        }
        // Residual imbalance: responses the stream never delivered. balance_
        // is sorted, so the smallest rid reports.
        for (const auto& [rid, state] : balance_) {
          if (state != 2) {
            Reject("trace is not balanced: request " + std::to_string(rid) + " has no response");
          }
        }
        FinishStatically();
        // Isolation is a property of the global transaction order; under a
        // shard scope the local write order and history are one shard's
        // projection, so the check runs once at audit-merge over the stitched
        // order and merged history instead (same checker, same inputs as the
        // unsharded audit — see src/verifier/shard_audit.cc).
        if (shard_rids_ == nullptr) {
          IsolationCheckResult iso = CheckIsolation(
              config_.isolation, [this](const TxOpRef& ref) { return ResolveTxOp(ref); },
              carry_lint_.write_order(), history_);
          stats_.isolation_dg_nodes = iso.dg_nodes;
          stats_.isolation_dg_edges = iso.dg_edges;
          if (!iso.ok) {
            Reject("isolation verification failed: " + iso.reason);
          }
        }
      }
      {
        PhaseTimer t(&profile_.postprocess_seconds);
        Postprocess();
      }
      result.accepted = true;
    } catch (const RejectError& e) {
      result.reason = e.reason;
      result.rule = e.rule;
    } catch (const std::exception& e) {
      result.reason = std::string("re-execution fault: ") + e.what();
    }
  }
  // Race findings are warnings (Completeness hazards: the developer must
  // annotate the variable), never rejected on; they sit after every lint
  // diagnostic.
  if (untracked_accesses_ != nullptr) {
    for (LintDiagnostic& d :
         RaceFindingsToDiagnostics(DetectUntrackedRaces(*untracked_accesses_))) {
      diagnostics_.push_back(std::move(d));
    }
  }
  result.diagnostics = std::move(diagnostics_);
  diagnostics_.clear();
  stats_.graph_nodes = graph_.node_count();
  stats_.graph_edges = graph_.edge_count();
  stats_.graph_hashed_nodes = graph_.hashed_node_count();
  stats_.var_dict_entries = var_dict_entries_pruned_;
  for (const auto& [vid, var] : vars_) {
    for (const auto& [key, writes] : var.var_dict) {
      stats_.var_dict_entries += writes.size();
    }
  }
  result.stats = stats_;
  total_timer.Stop();
  profile_.ops_executed = stats_.ops_executed;
  result.profile = profile_;
  return result;
}

}  // namespace karousos
