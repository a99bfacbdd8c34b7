#include "src/verifier/session.h"

#include <utility>

#include "src/common/segment.h"
#include "src/common/serde.h"

namespace karousos {

namespace {

// Bumped whenever the checkpoint payload layout changes; Restore refuses
// other versions (a stale checkpoint must fail loudly, not misparse).
constexpr uint64_t kCheckpointVersion = 6;

void WriteNodeKey(const NodeKey& key, ByteWriter* w) {
  w->WriteFixed64(key.a);
  w->WriteFixed64(key.b);
  w->WriteFixed64(key.c);
}

NodeKey ReadNodeKey(StateReader* c) {
  NodeKey key;
  key.a = c->F64();
  key.b = c->F64();
  key.c = c->F64();
  return key;
}

}  // namespace

AuditSession::AuditSession(const Program& program, const VerifierConfig& config,
                           uint64_t epoch_requests)
    : v_(program, config) {
  v_.StreamBegin(epoch_requests);
}

void AuditSession::set_untracked_accesses(const UntrackedAccessLog* log) {
  v_.set_untracked_accesses(log);
}

uint64_t AuditSession::next_epoch() const { return v_.epochs_fed_; }

uint64_t AuditSession::epoch_requests() const { return v_.epoch_requests_; }

bool AuditSession::decided() const { return v_.decided_; }

size_t AuditSession::carried_var_values() const { return v_.var_values_.size(); }

const DirectedGraph& AuditSession::graph() const { return v_.graph_; }

size_t AuditSession::peak_resident_advice_bytes() const {
  ByteWriter w;
  WriteCarriedValues(&w);
  v_.carry_lint_.Serialize(&w);
  return w.size();
}

bool AuditSession::FeedEpoch(const EpochSegment& segment) {
  if (v_.decided_) {
    return false;
  }
  if (segment.epoch != v_.epochs_fed_) {
    v_.decided_ = true;
    v_.decided_reason_ = "epoch segment " + std::to_string(segment.epoch) +
                         " arrived out of order (expected epoch " +
                         std::to_string(v_.epochs_fed_) + ")";
    return false;
  }
  v_.StreamEpoch(segment);
  return !v_.decided_;
}

AuditResult AuditSession::Finish(bool fed_all) { return v_.StreamFinish(fed_all); }

void AuditSession::WriteCarriedValues(ByteWriter* w) const {
  w->WriteVarint(v_.put_values_.size());
  for (const auto* put : SortedEntries(v_.put_values_)) {
    SerializeTxOpRef(put->first, w);
    w->WriteValue(put->second);
  }
  w->WriteVarint(v_.var_values_.size());
  for (const auto* write : SortedEntries(v_.var_values_)) {
    w->WriteFixed64(write->first.first);
    SerializeOpRef(write->first.second, w);
    w->WriteValue(write->second);
  }
}

std::vector<uint8_t> AuditSession::SaveCheckpoint() const {
  ByteWriter w;
  w.WriteVarint(kCheckpointVersion);
  w.WriteVarint(v_.epoch_requests_);
  w.WriteVarint(v_.epochs_fed_);
  w.WriteByte(static_cast<uint8_t>(v_.config_.isolation));
  w.WriteBool(v_.init_done_);
  w.WriteBool(v_.decided_);
  w.WriteString(v_.decided_reason_);
  w.WriteString(v_.decided_rule_);

  w.WriteVarint(v_.balance_.size());
  for (const auto& [rid, state] : v_.balance_) {
    w.WriteVarint(rid);
    w.WriteByte(state);
  }
  for (const auto* values : {&v_.request_inputs_, &v_.responses_}) {
    w.WriteVarint(values->size());
    for (const auto& [rid, value] : *values) {
      w.WriteVarint(rid);
      w.WriteValue(value);
    }
  }
  w.WriteVarint(v_.trace_rids_.size());
  for (RequestId rid : v_.trace_rids_) {
    w.WriteVarint(rid);
  }

  // Time-precedence chain carry.
  w.WriteVarint(v_.tp_epoch_count_);
  w.WriteBool(v_.tp_have_epoch_);
  WriteNodeKey(v_.tp_current_epoch_, &w);
  w.WriteVarint(v_.tp_pending_responses_.size());
  for (RequestId rid : v_.tp_pending_responses_) {
    w.WriteVarint(rid);
  }

  // Execution graph: node keys in id order, then the raw edge list. Replayed
  // in the same order, AddNode reassigns identical ids and the CSR traversal
  // order — and with it any cycle diagnostic — is preserved.
  w.WriteVarint(v_.graph_.node_count());
  for (size_t i = 0; i < v_.graph_.node_count(); ++i) {
    WriteNodeKey(v_.graph_.KeyOf(static_cast<DirectedGraph::NodeId>(i)), &w);
  }
  w.WriteVarint(v_.graph_.edges().size());
  for (const auto& [from, to] : v_.graph_.edges()) {
    w.WriteVarint(static_cast<uint64_t>(from));
    w.WriteVarint(static_cast<uint64_t>(to));
  }

  // Tracked variables, every flat key set in sorted order so the checkpoint
  // is canonical. Each read-observer vector's *internal* order is preserved
  // as stored (it is append-order from the deterministic merge, and
  // edge-insertion order at Finish depends on it). Between epochs only the
  // init request's var_dict entries are live: the rest are the finished
  // epoch's, which the next epoch prunes first, so they count as pruned.
  size_t var_dict_entries_pruned = v_.var_dict_entries_pruned_;
  w.WriteVarint(v_.vars_.size());
  for (const auto* var : SortedEntries(v_.vars_)) {
    w.WriteFixed64(var->first);
    w.WriteBool(var->second.declared);
    w.WriteBool(var->second.request_scoped);
    SerializeOpRef(var->second.initializer, &w);
    const auto dicts = SortedEntries(var->second.var_dict);
    size_t live = 0;
    for (const auto* dict : dicts) {
      if (dict->first.first == kInitRequestId) {
        ++live;
      } else {
        var_dict_entries_pruned += dict->second.size();
      }
    }
    w.WriteVarint(live);
    for (const auto* dict : dicts) {
      if (dict->first.first != kInitRequestId) {
        continue;
      }
      w.WriteVarint(dict->first.first);
      w.WriteFixed64(dict->first.second);
      w.WriteVarint(dict->second.size());
      for (const auto& [opnum, value] : dict->second) {
        w.WriteVarint(opnum);
        w.WriteValue(value);
      }
    }
    w.WriteVarint(var->second.read_observers.size());
    for (const auto* observed : SortedEntries(var->second.read_observers)) {
      SerializeOpRef(observed->first, &w);
      w.WriteVarint(observed->second.size());
      for (const OpRef& reader : observed->second) {
        SerializeOpRef(reader, &w);
      }
    }
    w.WriteVarint(var->second.write_observer.size());
    for (const auto* overwrite : SortedEntries(var->second.write_observer)) {
      SerializeOpRef(overwrite->first, &w);
      SerializeOpRef(overwrite->second, &w);
    }
  }
  w.WriteVarint(v_.untracked_vars_.size());
  for (const auto* var : SortedEntries(v_.untracked_vars_)) {
    w.WriteFixed64(var->first);
    w.WriteValue(var->second);
  }
  w.WriteVarint(v_.global_handlers_.size());
  for (const auto& [event, function] : v_.global_handlers_) {
    w.WriteFixed64(event);
    w.WriteFixed64(function);
  }

  // Accumulated history analysis.
  w.WriteBool(v_.history_.ok);
  w.WriteString(v_.history_.reason);
  v_.history_.SerializeSections(&w);

  WriteCarriedValues(&w);

  w.WriteVarint(v_.diagnostics_.size());
  for (const LintDiagnostic& d : v_.diagnostics_) {
    d.Serialize(&w);
  }

  w.WriteVarint(v_.stats_.groups);
  w.WriteVarint(v_.stats_.group_lane_total);
  w.WriteVarint(v_.stats_.handler_executions);
  w.WriteVarint(v_.stats_.handler_lanes);
  w.WriteVarint(v_.stats_.ops_executed);
  w.WriteVarint(v_.stats_.isolation_dg_nodes);
  w.WriteVarint(v_.stats_.isolation_dg_edges);
  w.WriteVarint(var_dict_entries_pruned);

  // The pre-screen's cross-epoch state: its rules' and the ledger's.
  v_.carry_lint_.Serialize(&w);

  SegmentWriter out;
  out.Append(SegmentKind::kCheckpoint, v_.epochs_fed_, w.bytes());
  return out.Take();
}

std::unique_ptr<AuditSession> AuditSession::Restore(const Program& program,
                                                    const VerifierConfig& config,
                                                    std::span<const uint8_t> bytes,
                                                    std::string* error) {
  std::string message;
  auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &message);
  if (reader == nullptr) {
    *error = "checkpoint: " + message;
    return nullptr;
  }
  std::unique_ptr<AuditSession> session;
  const auto decode = [&](const std::vector<uint8_t>& payload,
                          std::string* payload_error) -> std::optional<uint64_t> {
    session = FromCheckpointPayload(program, config, payload, payload_error);
    if (session == nullptr) return std::nullopt;
    return session->v_.epochs_fed_;
  };
  bool unreadable = false;
  if (!ReadSingleFrame(reader.get(), SegmentKind::kCheckpoint, decode, &message, &unreadable)) {
    *error = "checkpoint: " + message;
    return nullptr;
  }
  return session;
}

std::unique_ptr<AuditSession> AuditSession::FromCheckpointPayload(
    const Program& program, const VerifierConfig& config, const std::vector<uint8_t>& bytes,
    std::string* error) {
  ByteReader payload(bytes);
  StateReader c(&payload);
  uint64_t version = c.V();
  if (!c.ok() || version != kCheckpointVersion) {
    *error = "unsupported version " + std::to_string(version);
    return nullptr;
  }
  uint64_t epoch_requests = c.V();
  uint64_t epochs_fed = c.V();
  uint8_t isolation = c.B();
  if (c.ok() && isolation != static_cast<uint8_t>(config.isolation)) {
    *error = "isolation level does not match the session config";
    return nullptr;
  }

  auto session =
      std::unique_ptr<AuditSession>(new AuditSession(program, config, epoch_requests));
  Verifier& v = session->v_;
  v.epochs_fed_ = epochs_fed;
  v.init_done_ = c.Bool();
  v.decided_ = c.Bool();
  v.decided_reason_ = c.S();
  v.decided_rule_ = c.S();

  // Minimum entry sizes: a varint rid (1) plus what follows it.
  c.Each(2, [&] {
    RequestId rid = c.V();
    v.balance_[rid] = c.B();
  });
  for (auto* values : {&v.request_inputs_, &v.responses_}) {
    c.Each(2, [&] {
      RequestId rid = c.V();
      (*values)[rid] = c.Val();
    });
  }
  c.Each(1, [&] { v.trace_rids_.insert(c.V()); });

  v.tp_epoch_count_ = c.V();
  v.tp_have_epoch_ = c.Bool();
  v.tp_current_epoch_ = ReadNodeKey(&c);
  c.List(&v.tp_pending_responses_, 1, [&c] { return c.V(); });

  // A replayed node key that repeats would shift every later id, so the
  // edge bounds check below holds only for a duplicate-free key list. A run
  // (rid, hid, 0..n), (rid, hid, kOpNumInf) is a program chain and is
  // replayed as one, so the restored graph keeps its id blocks.
  std::vector<NodeKey> keys(c.Count(24));
  for (size_t i = 0; i < keys.size() && c.ok(); ++i) {
    keys[i] = ReadNodeKey(&c);
  }
  const size_t nodes = keys.size();
  for (size_t i = 0; i < nodes && c.ok();) {
    const NodeKey& head = keys[i];
    size_t run = 0;  // Keys (head.a, head.b, 0..run-1) from i on.
    if (head.b != kNoHandler) {
      while (i + run < nodes && keys[i + run] == NodeKey{head.a, head.b, run}) {
        ++run;
      }
    }
    const size_t next = i + run + 1;
    if (run > 0 && next <= nodes && keys[i + run] == NodeKey{head.a, head.b, kOpNumInf}) {
      const auto count = static_cast<uint32_t>(run - 1);
      if (static_cast<size_t>(v.graph_.AddChainNodes(head.a, head.b, count)) != i ||
          v.graph_.node_count() != next) {
        c.Fail();
      }
      i = next;
    } else {
      if (static_cast<size_t>(v.graph_.AddNode(head)) != i) {
        c.Fail();
      }
      ++i;
    }
  }
  size_t edges = c.Count(2);
  v.graph_.ReserveEdges(edges);
  for (size_t i = 0; i < edges && c.ok(); ++i) {
    uint64_t from = c.V();
    uint64_t to = c.V();
    if (from >= nodes || to >= nodes) {
      c.Fail();
    } else {
      v.graph_.AddEdge(static_cast<DirectedGraph::NodeId>(from),
                       static_cast<DirectedGraph::NodeId>(to));
    }
  }

  // vid (8), declared and scope (2), the initializer and three empty counts.
  c.Each(10 + kMinOpRefBytes + 3, [&] {
    Verifier::VerifierVar& var = v.vars_[c.F64()];
    var.declared = c.Bool();
    var.request_scoped = c.Bool();
    var.initializer = c.Op();
    c.Each(10, [&] {
      RequestId rid = c.V();
      HandlerId hid = c.F64();
      auto& writes = var.var_dict[{rid, hid}];
      c.Each(2, [&] {
        auto opnum = static_cast<OpNum>(c.V());
        writes.emplace_back(opnum, c.Val());
      });
    });
    c.Each(kMinOpRefBytes + 1, [&] {
      OpRef key = c.Op();
      c.List(&var.read_observers[key], kMinOpRefBytes, [&c] { return c.Op(); });
    });
    c.Each(2 * kMinOpRefBytes, [&] {
      OpRef key = c.Op();
      var.write_observer[key] = c.Op();
    });
  });
  c.Each(9, [&] {
    VarId vid = c.F64();
    v.untracked_vars_[vid] = c.Val();
  });
  c.Each(16, [&] {
    uint64_t event = c.F64();
    v.global_handlers_.emplace_back(event, c.F64());
  });

  v.history_.ok = c.Bool();
  v.history_.reason = c.S();
  v.history_.DeserializeSections(&c);

  // A key and a null value.
  c.Each(kMinTxOpRefBytes + 1, [&] {
    TxOpRef ref = c.Tx();
    v.put_values_[ref] = c.Val();
  });
  c.Each(8 + kMinOpRefBytes + 1, [&] {
    VarId vid = c.F64();
    OpRef op = c.Op();
    v.var_values_[{vid, op}] = c.Val();
  });
  c.List(&v.diagnostics_, LintDiagnostic::kMinBytes,
         [&c] { return LintDiagnostic::Deserialize(&c); });

  v.stats_.groups = c.V();
  v.stats_.group_lane_total = c.V();
  v.stats_.handler_executions = c.V();
  v.stats_.handler_lanes = c.V();
  v.stats_.ops_executed = c.V();
  v.stats_.isolation_dg_nodes = c.V();
  v.stats_.isolation_dg_edges = c.V();
  v.var_dict_entries_pruned_ = c.V();

  v.carry_lint_.Deserialize(&c);
  // The resolver hands out a payload for each ledger PUT, so the two sets
  // must be the same.
  const auto& puts = v.carry_lint_.put_shapes();
  if (puts.size() != v.put_values_.size()) {
    c.Fail();
  }
  for (const auto& [ref, value] : v.put_values_) {
    if (!puts.contains(ref)) {
      c.Fail();
    }
  }

  if (!c.Done()) {
    *error = "payload is malformed or truncated";
    return nullptr;
  }
  return session;
}

}  // namespace karousos
