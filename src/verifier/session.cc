#include "src/verifier/session.h"

#include <algorithm>
#include <utility>

#include "src/common/segment.h"
#include "src/common/serde.h"

namespace karousos {

namespace {

// Bumped whenever the checkpoint payload layout changes; Restore refuses
// other versions (a stale checkpoint must fail loudly, not misparse).
constexpr uint64_t kCheckpointVersion = 3;

void WriteTxnKey(const TxnKey& t, ByteWriter* w) {
  w->WriteVarint(t.rid);
  w->WriteFixed64(t.tid);
}

// Failure-latching reader: every getter returns a default once any field
// fails to parse, and ok() reports the verdict at the end. Keeps the Restore
// body linear instead of a pyramid of optional checks.
struct CkptReader {
  explicit CkptReader(const std::vector<uint8_t>& payload) : r(payload) {}

  uint64_t V() { return Get(r.ReadVarint()); }
  uint64_t F64() { return Get(r.ReadFixed64()); }
  uint8_t B() { return Get(r.ReadByte()); }
  bool Bool() { return Get(r.ReadBool()); }
  std::string S() { return Get(r.ReadString()); }
  Value Val() { return Get(r.ReadValue()); }
  OpRef Op() { return Get(DeserializeOpRef(&r)); }
  TxOpRef Tx() { return Get(DeserializeTxOpRef(&r)); }
  TxnKey Txn() {
    TxnKey t;
    t.rid = V();
    t.tid = F64();
    return t;
  }

  // A count about to drive a loop; bounded by the remaining bytes so a
  // corrupted length cannot make Restore allocate unboundedly.
  size_t N() {
    uint64_t n = V();
    if (n > r.remaining()) {
      ok = false;
      return 0;
    }
    return static_cast<size_t>(n);
  }

  template <typename T>
  T Get(std::optional<T> v) {
    if (!v) {
      ok = false;
      return T{};
    }
    return std::move(*v);
  }

  ByteReader r;
  bool ok = true;
};

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

size_t AuditSession::peak_resident_advice_bytes() const {
  ByteWriter w;
  WriteCarries(&w);
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

AuditResult AuditSession::Finish() { return v_.StreamFinish(); }

void AuditSession::WriteCarries(ByteWriter* w) const {
  w->WriteVarint(v_.txn_size_carry_.size());
  for (const auto& [txn, size] : v_.txn_size_carry_) {
    WriteTxnKey(txn, w);
    w->WriteVarint(size);
  }
  w->WriteVarint(v_.put_carry_.size());
  for (const auto& [ref, put] : v_.put_carry_) {
    SerializeTxOpRef(ref, w);
    w->WriteString(put.key);
    w->WriteValue(put.value);
    w->WriteFixed64(put.hid);
    w->WriteVarint(put.opnum);
  }
  w->WriteVarint(v_.var_carry_.size());
  for (const auto& [key, carry] : v_.var_carry_) {
    w->WriteFixed64(key.first);
    SerializeOpRef(key.second, w);
    w->WriteBool(carry.is_write);
    if (carry.is_write) {
      w->WriteValue(carry.value);
    }
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
  w.WriteVarint(v_.request_inputs_.size());
  for (const auto& [rid, value] : v_.request_inputs_) {
    w.WriteVarint(rid);
    w.WriteValue(value);
  }
  w.WriteVarint(v_.responses_.size());
  for (const auto& [rid, value] : v_.responses_) {
    w.WriteVarint(rid);
    w.WriteValue(value);
  }
  w.WriteVarint(v_.trace_rids_.size());
  for (RequestId rid : v_.trace_rids_) {
    w.WriteVarint(rid);
  }

  // Time-precedence chain carry.
  w.WriteVarint(v_.tp_epoch_count_);
  w.WriteBool(v_.tp_have_epoch_);
  w.WriteFixed64(v_.tp_current_epoch_.a);
  w.WriteFixed64(v_.tp_current_epoch_.b);
  w.WriteFixed64(v_.tp_current_epoch_.c);
  w.WriteVarint(v_.tp_pending_responses_.size());
  for (RequestId rid : v_.tp_pending_responses_) {
    w.WriteVarint(rid);
  }

  // Execution graph: node keys in id order, then the raw edge list. Replayed
  // in the same order, AddNode reassigns identical ids and the CSR traversal
  // order — and with it any cycle diagnostic — is preserved.
  w.WriteVarint(v_.graph_.node_count());
  for (size_t i = 0; i < v_.graph_.node_count(); ++i) {
    const NodeKey& key = v_.graph_.KeyOf(static_cast<DirectedGraph::NodeId>(i));
    w.WriteFixed64(key.a);
    w.WriteFixed64(key.b);
    w.WriteFixed64(key.c);
  }
  w.WriteVarint(v_.graph_.edges().size());
  for (const auto& [from, to] : v_.graph_.edges()) {
    w.WriteVarint(static_cast<uint64_t>(from));
    w.WriteVarint(static_cast<uint64_t>(to));
  }

  // Tracked variables. The flat containers iterate in insertion order, so
  // every key set is sorted first — the checkpoint must be canonical. Each
  // read-observer vector's *internal* order is preserved as stored (it is
  // append-order from the deterministic merge, and edge-insertion order at
  // Finish depends on it).
  {
    std::vector<VarId> vids;
    vids.reserve(v_.vars_.size());
    for (const auto& [vid, var] : v_.vars_) {
      vids.push_back(vid);
    }
    std::sort(vids.begin(), vids.end());
    w.WriteVarint(vids.size());
    for (VarId vid : vids) {
      const Verifier::VerifierVar& var = v_.vars_.find(vid)->second;
      w.WriteFixed64(vid);
      w.WriteBool(var.declared);
      SerializeOpRef(var.initializer, &w);
      std::vector<std::pair<RequestId, HandlerId>> dict_keys;
      dict_keys.reserve(var.var_dict.size());
      for (const auto& [key, writes] : var.var_dict) {
        dict_keys.push_back(key);
      }
      std::sort(dict_keys.begin(), dict_keys.end());
      w.WriteVarint(dict_keys.size());
      for (const auto& key : dict_keys) {
        const auto& writes = var.var_dict.find(key)->second;
        w.WriteVarint(key.first);
        w.WriteFixed64(key.second);
        w.WriteVarint(writes.size());
        for (const auto& [opnum, value] : writes) {
          w.WriteVarint(opnum);
          w.WriteValue(value);
        }
      }
      std::vector<OpRef> read_keys;
      read_keys.reserve(var.read_observers.size());
      for (const auto& [key, readers] : var.read_observers) {
        read_keys.push_back(key);
      }
      std::sort(read_keys.begin(), read_keys.end());
      w.WriteVarint(read_keys.size());
      for (const OpRef& key : read_keys) {
        const auto& readers = var.read_observers.find(key)->second;
        SerializeOpRef(key, &w);
        w.WriteVarint(readers.size());
        for (const OpRef& reader : readers) {
          SerializeOpRef(reader, &w);
        }
      }
      std::vector<OpRef> write_keys;
      write_keys.reserve(var.write_observer.size());
      for (const auto& [key, overwriter] : var.write_observer) {
        write_keys.push_back(key);
      }
      std::sort(write_keys.begin(), write_keys.end());
      w.WriteVarint(write_keys.size());
      for (const OpRef& key : write_keys) {
        SerializeOpRef(key, &w);
        SerializeOpRef(var.write_observer.find(key)->second, &w);
      }
    }
  }
  {
    std::vector<VarId> vids;
    vids.reserve(v_.untracked_vars_.size());
    for (const auto& [vid, value] : v_.untracked_vars_) {
      vids.push_back(vid);
    }
    std::sort(vids.begin(), vids.end());
    w.WriteVarint(vids.size());
    for (VarId vid : vids) {
      w.WriteFixed64(vid);
      w.WriteValue(v_.untracked_vars_.find(vid)->second);
    }
  }
  w.WriteVarint(v_.global_handlers_.size());
  for (const auto& [event, function] : v_.global_handlers_) {
    w.WriteFixed64(event);
    w.WriteFixed64(function);
  }

  // Accumulated history analysis.
  w.WriteBool(v_.history_.ok);
  w.WriteString(v_.history_.reason);
  w.WriteVarint(v_.history_.committed.size());
  for (const TxnKey& txn : v_.history_.committed) {
    WriteTxnKey(txn, &w);
  }
  w.WriteVarint(v_.history_.read_map.size());
  for (const auto& [write, readers] : v_.history_.read_map) {
    SerializeTxOpRef(write, &w);
    w.WriteVarint(readers.size());
    for (const TxOpRef& reader : readers) {
      SerializeTxOpRef(reader, &w);
    }
  }
  w.WriteVarint(v_.history_.last_modification.size());
  for (const auto& [key, index] : v_.history_.last_modification) {
    w.WriteVarint(std::get<0>(key));
    w.WriteFixed64(std::get<1>(key));
    w.WriteString(std::get<2>(key));
    w.WriteVarint(index);
  }

  w.WriteVarint(v_.stream_write_order_.size());
  for (const TxOpRef& ref : v_.stream_write_order_) {
    SerializeTxOpRef(ref, &w);
  }

  // Carries and pending imports.
  WriteCarries(&w);
  w.WriteVarint(v_.pending_tx_imports_.size());
  for (const auto& [ref, imp] : v_.pending_tx_imports_) {
    SerializeTxOpRef(ref, &w);
    w.WriteBool(imp.txn_present);
    w.WriteBool(imp.op_present);
    w.WriteByte(imp.type);
    w.WriteString(imp.key);
    w.WriteValue(imp.value);
    w.WriteFixed64(imp.hid);
    w.WriteVarint(imp.opnum);
  }
  w.WriteVarint(v_.pending_var_imports_.size());
  for (const auto& [key, imp] : v_.pending_var_imports_) {
    w.WriteFixed64(key.first);
    SerializeOpRef(key.second, &w);
    w.WriteBool(imp.present);
    w.WriteByte(imp.kind);
    w.WriteValue(imp.value);
  }

  w.WriteVarint(v_.diagnostics_.size());
  for (const LintDiagnostic& d : v_.diagnostics_) {
    w.WriteString(d.rule);
    w.WriteByte(static_cast<uint8_t>(d.severity));
    w.WriteString(d.location);
    w.WriteString(d.message);
  }

  w.WriteVarint(v_.stats_.groups);
  w.WriteVarint(v_.stats_.group_lane_total);
  w.WriteVarint(v_.stats_.handler_executions);
  w.WriteVarint(v_.stats_.handler_lanes);
  w.WriteVarint(v_.stats_.ops_executed);
  w.WriteVarint(v_.stats_.isolation_dg_nodes);
  w.WriteVarint(v_.stats_.isolation_dg_edges);
  w.WriteVarint(v_.var_dict_entries_pruned_);

  // The fast-reject pre-screen's cross-epoch state.
  v_.carry_lint_.Serialize(&w);

  SegmentWriter out;
  out.Append(SegmentKind::kCheckpoint, v_.epochs_fed_, w.bytes());
  return out.Take();
}

std::unique_ptr<AuditSession> AuditSession::Restore(const Program& program,
                                                    const VerifierConfig& config,
                                                    const std::vector<uint8_t>& bytes,
                                                    std::string* error) {
  std::string container_error;
  auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &container_error);
  if (reader == nullptr) {
    *error = "checkpoint: " + container_error;
    return nullptr;
  }
  SegmentRecord record;
  if (!reader->Next(&record)) {
    *error = reader->ok() ? "checkpoint: container holds no frames"
                          : "checkpoint: " + reader->error();
    return nullptr;
  }
  if (record.kind != SegmentKind::kCheckpoint) {
    *error = "checkpoint: unexpected frame kind";
    return nullptr;
  }

  CkptReader c(record.payload);
  uint64_t version = c.V();
  if (!c.ok || version != kCheckpointVersion) {
    *error = "checkpoint: unsupported version " + std::to_string(version);
    return nullptr;
  }
  uint64_t epoch_requests = c.V();
  uint64_t epochs_fed = c.V();
  uint8_t isolation = c.B();
  if (c.ok && isolation != static_cast<uint8_t>(config.isolation)) {
    *error = "checkpoint: isolation level does not match the session config";
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

  for (size_t i = c.N(); i > 0; --i) {
    RequestId rid = c.V();
    v.balance_[rid] = c.B();
  }
  for (size_t i = c.N(); i > 0; --i) {
    RequestId rid = c.V();
    v.request_inputs_[rid] = c.Val();
  }
  for (size_t i = c.N(); i > 0; --i) {
    RequestId rid = c.V();
    v.responses_[rid] = c.Val();
  }
  for (size_t i = c.N(); i > 0; --i) {
    v.trace_rids_.insert(c.V());
  }

  v.tp_epoch_count_ = c.V();
  v.tp_have_epoch_ = c.Bool();
  v.tp_current_epoch_.a = c.F64();
  v.tp_current_epoch_.b = c.F64();
  v.tp_current_epoch_.c = c.F64();
  for (size_t i = c.N(); i > 0; --i) {
    v.tp_pending_responses_.push_back(c.V());
  }

  {
    size_t nodes = c.N();
    v.graph_.ReserveNodes(nodes);
    for (size_t i = 0; i < nodes && c.ok; ++i) {
      NodeKey key;
      key.a = c.F64();
      key.b = c.F64();
      key.c = c.F64();
      v.graph_.AddNode(key);
    }
    size_t edges = c.N();
    v.graph_.ReserveEdges(edges);
    for (size_t i = 0; i < edges && c.ok; ++i) {
      auto from = static_cast<DirectedGraph::NodeId>(c.V());
      auto to = static_cast<DirectedGraph::NodeId>(c.V());
      if (static_cast<size_t>(from) >= nodes || static_cast<size_t>(to) >= nodes) {
        c.ok = false;
        break;
      }
      v.graph_.AddEdge(from, to);
    }
  }

  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    VarId vid = c.F64();
    Verifier::VerifierVar& var = v.vars_[vid];
    var.declared = c.Bool();
    var.initializer = c.Op();
    for (size_t j = c.N(); j > 0 && c.ok; --j) {
      RequestId rid = c.V();
      HandlerId hid = c.F64();
      auto& writes = var.var_dict[{rid, hid}];
      for (size_t k = c.N(); k > 0 && c.ok; --k) {
        OpNum opnum = static_cast<OpNum>(c.V());
        writes.emplace_back(opnum, c.Val());
      }
    }
    for (size_t j = c.N(); j > 0 && c.ok; --j) {
      OpRef key = c.Op();
      auto& readers = var.read_observers[key];
      for (size_t k = c.N(); k > 0 && c.ok; --k) {
        readers.push_back(c.Op());
      }
    }
    for (size_t j = c.N(); j > 0 && c.ok; --j) {
      OpRef key = c.Op();
      var.write_observer[key] = c.Op();
    }
  }
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    VarId vid = c.F64();
    v.untracked_vars_[vid] = c.Val();
  }
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    uint64_t event = c.F64();
    uint64_t function = c.F64();
    v.global_handlers_.emplace_back(event, function);
  }

  v.history_.ok = c.Bool();
  v.history_.reason = c.S();
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    v.history_.committed.insert(c.Txn());
  }
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    TxOpRef write = c.Tx();
    auto& readers = v.history_.read_map[write];
    for (size_t j = c.N(); j > 0 && c.ok; --j) {
      readers.push_back(c.Tx());
    }
  }
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    RequestId rid = c.V();
    TxId tid = c.F64();
    std::string key = c.S();
    v.history_.last_modification[{rid, tid, std::move(key)}] = static_cast<uint32_t>(c.V());
  }

  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    v.stream_write_order_.push_back(c.Tx());
  }

  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    TxnKey txn = c.Txn();
    v.txn_size_carry_[txn] = static_cast<uint32_t>(c.V());
  }
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    TxOpRef ref = c.Tx();
    Verifier::PutCarry& put = v.put_carry_[ref];
    put.key = c.S();
    put.value = c.Val();
    put.hid = c.F64();
    put.opnum = static_cast<OpNum>(c.V());
  }
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    VarId vid = c.F64();
    OpRef op = c.Op();
    Verifier::VarCarry& carry = v.var_carry_[{vid, op}];
    carry.is_write = c.Bool();
    if (carry.is_write) {
      carry.value = c.Val();
    }
  }
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    TxOpRef ref = c.Tx();
    ContinuityImports::TxOpImport& imp = v.pending_tx_imports_[ref];
    imp.ref = ref;
    imp.txn_present = c.Bool();
    imp.op_present = c.Bool();
    imp.type = c.B();
    imp.key = c.S();
    imp.value = c.Val();
    imp.hid = c.F64();
    imp.opnum = static_cast<OpNum>(c.V());
  }
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    VarId vid = c.F64();
    OpRef op = c.Op();
    ContinuityImports::VarImport& imp = v.pending_var_imports_[{vid, op}];
    imp.vid = vid;
    imp.op = op;
    imp.present = c.Bool();
    imp.kind = c.B();
    imp.value = c.Val();
  }

  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    LintDiagnostic d;
    d.rule = c.S();
    d.severity = static_cast<LintSeverity>(c.B());
    d.location = c.S();
    d.message = c.S();
    v.diagnostics_.push_back(std::move(d));
  }

  v.stats_.groups = c.V();
  v.stats_.group_lane_total = c.V();
  v.stats_.handler_executions = c.V();
  v.stats_.handler_lanes = c.V();
  v.stats_.ops_executed = c.V();
  v.stats_.isolation_dg_nodes = c.V();
  v.stats_.isolation_dg_edges = c.V();
  v.var_dict_entries_pruned_ = c.V();

  if (c.ok && !v.carry_lint_.Deserialize(&c.r)) {
    c.ok = false;
  }

  if (!c.ok || !c.r.AtEnd()) {
    *error = "checkpoint: payload is malformed or truncated";
    return nullptr;
  }
  return session;
}

}  // namespace karousos
