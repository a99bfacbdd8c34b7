#include "src/adya/checker.h"

#include <sstream>
#include <unordered_set>

namespace karousos {

const char* TxOpTypeName(TxOpType t) {
  switch (t) {
    case TxOpType::kTxStart:
      return "tx_start";
    case TxOpType::kTxCommit:
      return "tx_commit";
    case TxOpType::kTxAbort:
      return "tx_abort";
    case TxOpType::kPut:
      return "PUT";
    case TxOpType::kGet:
      return "GET";
  }
  return "?";
}

namespace {

std::string Describe(const TxnKey& t) {
  std::ostringstream out;
  out << "(r" << t.rid << ",t" << std::hex << t.tid << std::dec << ")";
  return out.str();
}

}  // namespace

ResolvedTxOp ResolveInLogs(const TransactionLogs& logs, const TxOpRef& ref) {
  ResolvedTxOp out;
  auto it = logs.find(TxnKey{ref.rid, ref.tid});
  if (it == logs.end()) {
    return out;
  }
  out.txn_present = true;
  if (ref.index < 1 || ref.index > it->second.size()) {
    return out;
  }
  const TxOperation& op = it->second[ref.index - 1];
  out.op_present = true;
  out.is_put = op.type == TxOpType::kPut;
  out.key = op.key;
  out.put_value = &op.put_value;
  out.hid = op.hid;
  out.opnum = op.opnum;
  return out;
}

TxOpResolverFn MakeLogResolver(const TransactionLogs& logs) {
  return [&logs](const TxOpRef& ref) { return ResolveInLogs(logs, ref); };
}

void HistoryAnalysis::SerializeSections(ByteWriter* out) const {
  out->WriteVarint(committed.size());
  for (const TxnKey& txn : committed) {
    SerializeTxnKey(txn, out);
  }
  out->WriteVarint(read_map.size());
  for (const auto& [write, readers] : read_map) {
    SerializeTxOpRef(write, out);
    out->WriteVarint(readers.size());
    for (const TxOpRef& reader : readers) {
      SerializeTxOpRef(reader, out);
    }
  }
  out->WriteVarint(last_modification.size());
  for (const auto& [key, index] : last_modification) {
    SerializeTxnKey(TxnKey{std::get<0>(key), std::get<1>(key)}, out);
    out->WriteString(std::get<2>(key));
    out->WriteVarint(index);
  }
}

void HistoryAnalysis::DeserializeSections(StateReader* in) {
  in->Each(kMinTxnKeyBytes, [&] { committed.insert(in->Txn()); });
  // A read-map entry is its write and a reader count.
  in->Each(kMinTxOpRefBytes + 1, [&] {
    TxOpRef write = in->Tx();
    in->List(&read_map[write], kMinTxOpRefBytes, [in] { return in->Tx(); });
  });
  // A last-modification entry is its txn, a key length and an index.
  in->Each(kMinTxnKeyBytes + 2, [&] {
    TxnKey txn = in->Txn();
    std::string key = in->S();
    last_modification[{txn.rid, txn.tid, std::move(key)}] = static_cast<uint32_t>(in->V());
  });
}

HistoryAnalysis AnalyzeLogs(const TransactionLogs& logs) {
  HistoryAnalysis out;
  AnalyzeLogsInto(logs, MakeLogResolver(logs), &out);
  return out;
}

void AnalyzeLogsInto(const TransactionLogs& logs, const TxOpResolverFn& resolve,
                     HistoryAnalysis* into) {
  HistoryAnalysis& out = *into;
  if (!out.ok) {
    return;
  }
  for (const auto& [txn, log] : logs) {
    if (log.empty() || log.front().type != TxOpType::kTxStart) {
      out.ok = false;
      out.reason = "transaction log for " + Describe(txn) + " does not begin with tx_start";
      return;
    }
    bool committed = !log.empty() && log.back().type == TxOpType::kTxCommit;
    if (committed) {
      out.committed.insert(txn);
    }
    // Last PUT index per key issued by this transaction so far (MyWrites).
    std::map<std::string, uint32_t> my_writes;
    for (uint32_t i = 1; i <= log.size(); ++i) {
      const TxOperation& op = log[i - 1];
      const bool terminal = op.type == TxOpType::kTxCommit || op.type == TxOpType::kTxAbort;
      if (i > 1 && op.type == TxOpType::kTxStart) {
        out.ok = false;
        out.reason = "transaction " + Describe(txn) + " contains a second tx_start";
        return;
      }
      if (terminal && i != log.size()) {
        out.ok = false;
        out.reason = "transaction " + Describe(txn) + " has operations after its terminal op";
        return;
      }
      if (op.type == TxOpType::kPut) {
        my_writes[op.key] = i;
        if (committed) {
          out.last_modification[{txn.rid, txn.tid, op.key}] = i;
        }
      } else if (op.type == TxOpType::kGet) {
        if (op.get_found) {
          ResolvedTxOp dictating = resolve(op.get_from);
          if (!dictating.op_present || !dictating.is_put || dictating.key != op.key) {
            out.ok = false;
            out.reason = "GET " + Describe(txn) + "#" + std::to_string(i) +
                         " has an invalid dictating write " + op.get_from.ToString();
            return;
          }
          out.read_map[op.get_from].push_back(TxOpRef{txn.rid, txn.tid, i});
        } else if (!op.get_from.IsNil()) {
          out.ok = false;
          out.reason = "not-found GET in " + Describe(txn) + " claims a dictating write";
          return;
        }
        // Transactions must observe their own writes (§4.4 check two).
        auto mine = my_writes.find(op.key);
        if (mine != my_writes.end()) {
          TxOpRef expected{txn.rid, txn.tid, mine->second};
          if (!op.get_found || op.get_from != expected) {
            out.ok = false;
            out.reason = "transaction " + Describe(txn) +
                         " does not observe its own last write to key '" + op.key + "'";
            return;
          }
        }
      }
    }
  }
}

namespace {

struct TxOpRefLess {
  bool operator()(const TxOpRef& a, const TxOpRef& b) const {
    return std::tie(a.rid, a.tid, a.index) < std::tie(b.rid, b.tid, b.index);
  }
};

// Extraction per Figure 17: validates that the write order lists exactly the
// last modifications of committed transactions, and splits it by key.
bool ExtractWriteOrderPerKey(const TxOpResolverFn& resolve, const WriteOrder& write_order,
                             const HistoryAnalysis& analysis,
                             std::map<std::string, std::vector<TxOpRef>>* per_key,
                             std::string* reason) {
  if (write_order.size() != analysis.last_modification.size()) {
    *reason = "write order length (" + std::to_string(write_order.size()) +
              ") does not match the number of last modifications (" +
              std::to_string(analysis.last_modification.size()) + ")";
    return false;
  }
  std::set<TxOpRef, TxOpRefLess> seen;
  for (const TxOpRef& ref : write_order) {
    ResolvedTxOp op = resolve(ref);
    if (!op.op_present || !op.is_put) {
      *reason = "write order entry " + ref.ToString() + " is not a PUT in the logs";
      return false;
    }
    std::string key(op.key);
    if (!seen.insert(ref).second) {
      *reason = "write order repeats entry " + ref.ToString();
      return false;
    }
    auto it = analysis.last_modification.find({ref.rid, ref.tid, key});
    if (it == analysis.last_modification.end() || it->second != ref.index) {
      *reason = "write order entry " + ref.ToString() +
                " is not the last modification of a committed transaction";
      return false;
    }
    (*per_key)[key].push_back(ref);
  }
  return true;
}

void AddWriteDependencyEdges(const std::map<std::string, std::vector<TxOpRef>>& per_key,
                             DirectedGraph* dg) {
  for (const auto& [key, order] : per_key) {
    for (size_t j = 0; j + 1 < order.size(); ++j) {
      dg->AddEdge(NodeKey::ForTxn(order[j].rid, order[j].tid),
                  NodeKey::ForTxn(order[j + 1].rid, order[j + 1].tid));
    }
  }
}

// Read-dependency edges, plus the G1a/G1b enforcement: a committed
// transaction may only read final writes of committed transactions.
bool AddReadDependencyEdges(const HistoryAnalysis& analysis, const WriteOrder& write_order,
                            DirectedGraph* dg, std::string* reason) {
  std::set<TxOpRef, TxOpRefLess> in_write_order(write_order.begin(), write_order.end());
  for (const auto& [write, readers] : analysis.read_map) {
    TxnKey writer{write.rid, write.tid};
    bool final_committed_write = in_write_order.count(write) > 0;
    for (const TxOpRef& read : analysis.read_map.at(write)) {
      TxnKey reader{read.rid, read.tid};
      if (writer == reader) {
        continue;  // Own-reads carry no inter-transaction dependency.
      }
      if (!final_committed_write) {
        if (analysis.committed.count(reader) > 0) {
          *reason = "committed transaction " + Describe(reader) +
                    " reads a non-final or uncommitted write " + write.ToString() +
                    " (phenomenon G1a/G1b)";
          return false;
        }
        continue;
      }
      if (analysis.committed.count(writer) > 0 && analysis.committed.count(reader) > 0) {
        dg->AddEdge(NodeKey::ForTxn(writer.rid, writer.tid),
                    NodeKey::ForTxn(reader.rid, reader.tid));
      }
    }
    (void)readers;
  }
  return true;
}

void AddAntiDependencyEdges(const std::map<std::string, std::vector<TxOpRef>>& per_key,
                            const HistoryAnalysis& analysis, DirectedGraph* dg) {
  for (const auto& [key, order] : per_key) {
    for (size_t j = 0; j + 1 < order.size(); ++j) {
      auto readers = analysis.read_map.find(order[j]);
      if (readers == analysis.read_map.end()) {
        continue;
      }
      TxnKey next_writer{order[j + 1].rid, order[j + 1].tid};
      for (const TxOpRef& read : readers->second) {
        TxnKey reader{read.rid, read.tid};
        if (reader == next_writer || analysis.committed.count(reader) == 0) {
          continue;
        }
        dg->AddEdge(NodeKey::ForTxn(reader.rid, reader.tid),
                    NodeKey::ForTxn(next_writer.rid, next_writer.tid));
      }
    }
  }
}

}  // namespace

IsolationCheckResult CheckIsolation(IsolationLevel level, const TxOpResolverFn& resolve,
                                    const WriteOrder& write_order,
                                    const HistoryAnalysis& analysis) {
  IsolationCheckResult result;
  if (!analysis.ok) {
    result.ok = false;
    result.reason = analysis.reason;
    return result;
  }
  DirectedGraph dg;
  for (const TxnKey& txn : analysis.committed) {
    dg.AddNode(NodeKey::ForTxn(txn.rid, txn.tid));
  }
  std::map<std::string, std::vector<TxOpRef>> per_key;
  if (!ExtractWriteOrderPerKey(resolve, write_order, analysis, &per_key, &result.reason)) {
    result.ok = false;
    return result;
  }
  AddWriteDependencyEdges(per_key, &dg);
  if (level == IsolationLevel::kReadCommitted || level == IsolationLevel::kSerializable) {
    if (!AddReadDependencyEdges(analysis, write_order, &dg, &result.reason)) {
      result.ok = false;
      return result;
    }
  }
  if (level == IsolationLevel::kSerializable) {
    AddAntiDependencyEdges(per_key, analysis, &dg);
  }
  result.dg_nodes = dg.node_count();
  result.dg_edges = dg.edge_count();
  if (dg.HasCycle()) {
    result.ok = false;
    std::ostringstream out;
    out << "dependency graph has a cycle at isolation level " << IsolationLevelName(level) << ":";
    for (const NodeKey& node : dg.FindCycle()) {
      out << " " << Describe(TxnKey{node.a, node.b});
    }
    result.reason = out.str();
    return result;
  }
  return result;
}

IsolationCheckResult CheckHistory(IsolationLevel level, const TransactionLogs& logs,
                                  const WriteOrder& write_order) {
  HistoryAnalysis analysis = AnalyzeLogs(logs);
  return CheckIsolation(level, MakeLogResolver(logs), write_order, analysis);
}

}  // namespace karousos
