#include "src/verifier/shard_audit.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/carry_lint.h"
#include "src/common/file_io.h"
#include "src/common/segment.h"
#include "src/common/serde.h"
#include "src/server/advice.h"

namespace karousos {

namespace {

constexpr uint8_t kShardArtifactFormatVersion = 5;
constexpr uint64_t kDigestSeed = 0x6b736567;  // "kseg"

uint64_t Mix(uint64_t d, uint64_t x) { return HashMix64(d, SplitMix64(x)); }

// Order-sensitive digest of a rid list.
uint64_t DigestRids(const std::vector<RequestId>& rids) {
  uint64_t d = kDigestSeed;
  for (RequestId rid : rids) d = Mix(d, rid);
  return Mix(d, rids.size());
}

// Digest of a shard's replicated trace windows, each by its serialized CRC
// and length.
uint64_t DigestTraceWindows(const EpochSlices& slices) {
  uint64_t d = kDigestSeed;
  ByteWriter payload;
  for (const EpochSegment& seg : slices.segments) {
    payload.Clear();
    SerializeTraceEvents(seg.window, &payload);
    d = Mix(d, (static_cast<uint64_t>(Crc32(payload.bytes())) << 32) | payload.size());
  }
  return Mix(d, slices.segments.size());
}

// Digest of the per-rid arrival and response counts over the same windows.
uint64_t DigestBalance(const EpochSlices& slices) {
  std::map<RequestId, std::pair<uint64_t, uint64_t>> counts;  // rid -> (arrivals, responses)
  for (const EpochSegment& seg : slices.segments) {
    for (const TraceEvent& ev : seg.window) {
      auto& c = counts[ev.rid];
      (ev.kind == TraceEvent::Kind::kRequest ? c.first : c.second) += 1;
    }
  }
  uint64_t d = kDigestSeed;
  for (const auto& [rid, c] : counts) {
    d = Mix(d, rid);
    d = Mix(d, c.first);
    d = Mix(d, c.second);
  }
  return Mix(d, counts.size());
}

// The value a shard's own slices log at a var-log write (the slices stay
// resident for the whole shard audit). An accepted shard holds each
// coordinate once (KAR-ADV-006, KAR-SEG-004), so the first hit is the entry
// the ledger mirrors.
const Value& LoggedWriteValue(const EpochSlices& slices, const std::pair<VarId, OpRef>& key) {
  static const Value kNil;
  for (const EpochSegment& seg : slices.segments) {
    auto log_it = seg.advice.var_logs.find(key.first);
    if (log_it == seg.advice.var_logs.end()) {
      continue;
    }
    auto entry_it = log_it->second.find(key.second);
    if (entry_it != log_it->second.end()) {
      return entry_it->second.value;
    }
  }
  return kNil;
}

}  // namespace

void ShardArtifact::Serialize(ByteWriter* out) const {
  out->WriteByte(kShardArtifactFormatVersion);
  out->WriteVarint(shard);
  out->WriteVarint(count);
  out->WriteByte(static_cast<uint8_t>(mode));
  out->WriteVarint(epoch_requests);
  out->WriteVarint(epochs);
  out->WriteByte(static_cast<uint8_t>(isolation));

  out->WriteVarint(rids.size());
  for (RequestId rid : rids) {
    out->WriteVarint(rid);
  }
  out->WriteFixed64(trace_digest);
  out->WriteFixed64(balance_digest);
  out->WriteFixed64(trace_rid_digest);
  out->WriteVarint(trace_rid_count);

  out->WriteBool(accepted);
  out->WriteString(reason);
  out->WriteString(rule);
  out->WriteVarint(decided_epoch);
  out->WriteVarint(diagnostics.size());
  for (const LintDiagnostic& d : diagnostics) {
    d.Serialize(out);
  }

  out->WriteVarint(tags.size());
  for (const auto& [rid, tag] : tags) {
    out->WriteVarint(rid);
    out->WriteFixed64(tag);
  }

  out->WriteVarint(write_order.size());
  for (const TxOpRef& ref : write_order) {
    SerializeTxOpRef(ref, out);
  }
  out->WriteVarint(write_order_positions.size());
  for (uint64_t pos : write_order_positions) {
    out->WriteVarint(pos);
  }
  out->WriteVarint(write_order_total);

  history.SerializeSections(out);

  out->WriteVarint(put_shapes.size());
  for (const auto& [ref, put] : put_shapes) {
    SerializeTxOpRef(ref, out);
    out->WriteString(put.key);
    out->WriteFixed64(put.hid);
    out->WriteVarint(put.opnum);
  }
  out->WriteVarint(txn_sizes.size());
  for (const auto& [txn, size] : txn_sizes) {
    SerializeTxnKey(txn, out);
    out->WriteVarint(size);
  }

  for (const auto* imports : {&pending_tx_imports, &tx_exports}) {
    out->WriteVarint(imports->size());
    for (const auto& [ref, imp] : *imports) {
      imp.Serialize(out);
    }
  }
  for (const auto* imports : {&pending_var_imports, &var_exports}) {
    out->WriteVarint(imports->size());
    for (const auto& [key, imp] : *imports) {
      imp.Serialize(out);
    }
  }

  out->WriteVarint(var_links.size());
  for (const auto& [vid, links] : var_links) {
    out->WriteFixed64(vid);
    out->WriteBool(links.has_initializer);
    if (links.has_initializer) {
      SerializeOpRef(links.initializer, out);
    }
    out->WriteVarint(links.links.size());
    for (const auto& [prec, cur] : links.links) {
      SerializeOpRef(prec, out);
      SerializeOpRef(cur, out);
    }
  }
}

std::optional<ShardArtifact> ShardArtifact::Deserialize(ByteReader* in) {
  StateReader r(in);
  if (r.B() != kShardArtifactFormatVersion) return std::nullopt;
  ShardArtifact a;
  a.shard = static_cast<uint32_t>(r.V());
  a.count = static_cast<uint32_t>(r.V());
  a.mode = static_cast<ShardMode>(r.Enum(static_cast<uint8_t>(ShardMode::kRange)));
  a.epoch_requests = r.V();
  a.epochs = r.V();
  a.isolation = static_cast<IsolationLevel>(
      r.Enum(static_cast<uint8_t>(IsolationLevel::kReadUncommitted)));

  r.List(&a.rids, 1, [&r] { return r.V(); });
  a.trace_digest = r.F64();
  a.balance_digest = r.F64();
  a.trace_rid_digest = r.F64();
  a.trace_rid_count = r.V();

  a.accepted = r.Bool();
  a.reason = r.S();
  a.rule = r.S();
  a.decided_epoch = r.V();
  r.List(&a.diagnostics, LintDiagnostic::kMinBytes,
         [&r] { return LintDiagnostic::Deserialize(&r); });

  r.Each(9, [&] {
    RequestId rid = r.V();
    a.tags[rid] = r.F64();
  });
  r.List(&a.write_order, kMinTxOpRefBytes, [&r] { return r.Tx(); });
  r.List(&a.write_order_positions, 1, [&r] { return r.V(); });
  a.write_order_total = r.V();

  a.history.DeserializeSections(&r);

  // ref, an empty key, hid and opnum.
  r.Each(kMinTxOpRefBytes + 10, [&] {
    PutShape& put = a.put_shapes[r.Tx()];
    put.key = r.S();
    put.hid = r.F64();
    put.opnum = static_cast<OpNum>(r.V());
  });
  r.Each(kMinTxnKeyBytes + 1, [&] {
    TxnKey txn = r.Txn();
    a.txn_sizes[txn] = static_cast<uint32_t>(r.V());
  });

  for (auto* imports : {&a.pending_tx_imports, &a.tx_exports}) {
    r.Each(ContinuityImports::TxOpImport::kMinBytes, [&] {
      auto imp = ContinuityImports::TxOpImport::Deserialize(&r);
      TxOpRef ref = imp.ref;
      (*imports)[ref] = std::move(imp);
    });
  }
  for (auto* imports : {&a.pending_var_imports, &a.var_exports}) {
    r.Each(ContinuityImports::VarImport::kMinBytes, [&] {
      auto imp = ContinuityImports::VarImport::Deserialize(&r);
      auto key = std::make_pair(imp.vid, imp.op);
      (*imports)[key] = std::move(imp);
    });
  }

  // vid (8), has_initializer (1) and a link count (1).
  r.Each(10, [&] {
    VarLinks& links = a.var_links[r.F64()];
    links.has_initializer = r.Bool();
    if (links.has_initializer) {
      links.initializer = r.Op();
    }
    r.List(&links.links, 2 * kMinOpRefBytes, [&r] {
      OpRef prec = r.Op();
      return std::make_pair(prec, r.Op());
    });
  });
  if (!r.ok()) return std::nullopt;
  return a;
}

// --- Shard audit -------------------------------------------------------------

// Friend shim over Verifier's streaming internals (verifier.h forward-declares
// and befriends this class): drives the scoped streaming audit and harvests
// the carried state the merge needs after StreamFinish.
class ShardAudit {
 public:
  static ShardArtifact Run(const Program& program, const ShardFile& file,
                           const VerifierConfig& config) {
    const ShardBoundary& b = file.boundary;
    ShardArtifact a;
    a.shard = b.shard;
    a.count = b.count;
    a.mode = b.mode;
    a.epoch_requests = b.epoch_requests;
    a.epochs = b.epochs;
    a.isolation = config.isolation;
    a.rids = b.rids;
    a.trace_digest = DigestTraceWindows(file.slices);
    a.balance_digest = DigestBalance(file.slices);
    a.write_order_positions = b.write_order_positions;
    a.write_order_total = b.write_order_total;

    // Must outlive the verifier: the scope pointer is held, not copied.
    std::set<RequestId> owned(b.rids.begin(), b.rids.end());

    Verifier v(program, config);
    v.SetShardScope(&owned);
    v.StreamBegin(file.slices.epoch_requests);
    for (const EpochSegment& seg : file.slices.segments) {
      v.StreamEpoch(seg);
    }
    AuditResult r = v.StreamFinish(v.epochs_fed_ == file.slices.segments.size());

    a.accepted = r.accepted;
    a.reason = r.reason;
    a.rule = r.rule;
    a.diagnostics = r.diagnostics;
    // Finish-time rejections never set decided_ (StreamFinish catches into the
    // result directly), so they order after every mid-stream rejection.
    a.decided_epoch = v.decided_ ? v.decided_epoch_ : b.epochs;
    a.trace_rid_count = v.trace_rids_.size();
    a.trace_rid_digest =
        DigestRids(std::vector<RequestId>(v.trace_rids_.begin(), v.trace_rids_.end()));
    if (!r.accepted) {
      return a;  // Exports are meaningless past the first fault.
    }

    for (const EpochSegment& seg : file.slices.segments) {
      for (const auto& [rid, tag] : seg.advice.tags) {
        a.tags[rid] = tag;
      }
    }
    const CarryLint& ledger = v.carry_lint_;
    a.write_order = ledger.write_order();
    a.history = v.history_;
    a.put_shapes.insert(ledger.put_shapes().begin(), ledger.put_shapes().end());
    a.txn_sizes.insert(ledger.txn_sizes().begin(), ledger.txn_sizes().end());

    // Unconfirmable continuity allegations, for the merge: those naming an
    // in-trace request another shard owns.
    auto foreign = [&](RequestId rid) {
      return rid != kInitRequestId && owned.count(rid) == 0 && v.trace_rids_.count(rid) != 0;
    };
    for (const auto& [ref, pending] : ledger.pending_tx_imports()) {
      if (foreign(ref.rid)) {
        a.pending_tx_imports[ref] = pending.imp;
      }
    }
    for (const auto& [key, pending] : ledger.pending_var_imports()) {
      if (foreign(key.second.rid)) {
        a.pending_var_imports[key] = pending.imp;
      }
    }
    // Descriptions of this shard's real content at its export obligations —
    // what the importing shards' allegations must match. The live slice is
    // gone, and an accepted audit's pending imports at coordinates it owns
    // allege absence only (KAR-SEG-008), so this resolves to the ledger.
    for (const TxOpRef& ref : b.export_tx_refs) {
      ResolvedTxOp real = v.ResolveTxOp(ref);
      ContinuityImports::TxOpImport& e = a.tx_exports[ref];
      e.ref = ref;
      e.txn_present = real.txn_present;
      e.op_present = real.op_present;
      if (real.op_present) {
        // Only PUT-ness matters to any confirmation consumer.
        e.type = static_cast<uint8_t>(real.is_put ? TxOpType::kPut : TxOpType::kGet);
      }
      if (real.is_put) {
        e.key = real.key;
        e.value = *real.put_value;
        e.hid = real.hid;
        e.opnum = real.opnum;
      }
    }
    for (const auto& key : b.export_var_refs) {
      ResolvedVarEntry real = v.ResolveVarEntry(key.first, key.second);
      ContinuityImports::VarImport& e = a.var_exports[key];
      e.vid = key.first;
      e.op = key.second;
      e.present = real.present;
      e.kind = static_cast<uint8_t>(real.is_write ? VarLogEntry::Kind::kWrite
                                                  : VarLogEntry::Kind::kRead);
      if (real.is_write) {
        // A request-scoped write drops its value when its epoch ends.
        e.value = real.value != nullptr ? *real.value : LoggedWriteValue(file.slices, key);
      }
    }

    // Write-chain fragments from this shard's re-execution. vars_ iterates in
    // hash order; the artifact's std::map restores the canonical order.
    for (const auto& [vid, var] : v.vars_) {
      ShardArtifact::VarLinks links;
      links.has_initializer = !var.initializer.IsNil();
      if (links.has_initializer) {
        links.initializer = var.initializer;
      }
      for (const auto& [prec, cur] : var.write_observer) {
        links.links.emplace_back(prec, cur);
      }
      if (!links.has_initializer && links.links.empty()) {
        continue;
      }
      std::sort(links.links.begin(), links.links.end());
      a.var_links[vid] = std::move(links);
    }
    return a;
  }
};

ShardArtifact RunShardAudit(const Program& program, const ShardFile& file,
                            const VerifierConfig& config) {
  return ShardAudit::Run(program, file, config);
}

// --- Merge -------------------------------------------------------------------

AuditResult MergeShardArtifacts(const std::vector<ShardArtifact>& artifacts) {
  AuditResult result;

  // Diagnostics accumulate in shard order (each shard's audit preserved its
  // own order), with any merge finding appended last.
  auto concat_diags = [](const std::vector<const ShardArtifact*>& ordered) {
    std::vector<LintDiagnostic> out;
    for (const ShardArtifact* a : ordered) {
      out.insert(out.end(), a->diagnostics.begin(), a->diagnostics.end());
    }
    return out;
  };

  std::vector<const ShardArtifact*> ordered;
  // KAR-SEG failure before the artifact set is even indexable.
  auto fail_flat = [&](const char* rule, std::string location, std::string message) {
    LintDiagnostic d{rule, LintSeverity::kError, std::move(location), std::move(message)};
    result.accepted = false;
    result.rule = rule;
    result.reason = "shard merge: " + d.Format();
    result.diagnostics = concat_diags(ordered);
    result.diagnostics.push_back(std::move(d));
    return result;
  };
  // Dynamic-style failure: the same raw reason string (and empty rule) the
  // unsharded audit's Reject() produces for the corresponding global check.
  auto fail_dynamic = [&](std::string reason) {
    result.accepted = false;
    result.rule.clear();
    result.reason = std::move(reason);
    result.diagnostics = concat_diags(ordered);
    return result;
  };

  // --- Artifact set shape (KAR-SEG-015): exactly shards 0..K-1, once each,
  // all agreeing on the run's identity and configuration.
  if (artifacts.empty()) {
    return fail_flat(kKarSeg015, "merge", "no shard artifacts to merge");
  }
  uint32_t k = artifacts.front().count;
  std::map<uint32_t, const ShardArtifact*> by_shard;
  for (const ShardArtifact& a : artifacts) {
    if (a.shard >= k) {
      return fail_flat(kKarSeg015, "merge[shard " + std::to_string(a.shard) + "]",
                       "shard index " + std::to_string(a.shard) +
                           " is out of range for shard count " + std::to_string(k));
    }
    if (!by_shard.emplace(a.shard, &a).second) {
      return fail_flat(kKarSeg015, "merge[shard " + std::to_string(a.shard) + "]",
                       "duplicate artifact for shard " + std::to_string(a.shard));
    }
  }
  if (by_shard.size() != k) {
    for (uint32_t s = 0; s < k; ++s) {
      if (by_shard.count(s) == 0) {
        return fail_flat(kKarSeg015, "merge",
                         "missing artifact for shard " + std::to_string(s) + " of " +
                             std::to_string(k));
      }
    }
  }
  for (const auto& [s, a] : by_shard) {
    ordered.push_back(a);
  }
  const ShardArtifact& head = *ordered.front();
  for (const ShardArtifact* a : ordered) {
    std::string loc = "merge[shard " + std::to_string(a->shard) + "]";
    if (a->count != k) {
      return fail_flat(kKarSeg015, loc, "shard count disagrees across artifacts");
    }
    if (a->mode != head.mode || a->epoch_requests != head.epoch_requests ||
        a->epochs != head.epochs) {
      return fail_flat(kKarSeg015, loc, "shard partitioning disagrees across artifacts");
    }
    if (a->isolation != head.isolation) {
      return fail_flat(kKarSeg015, loc, "audit configuration disagrees across artifacts");
    }
    if (a->trace_digest != head.trace_digest || a->balance_digest != head.balance_digest) {
      return fail_flat(kKarSeg015, loc,
                       "replicated-trace digests disagree: artifacts were cut from "
                       "different runs");
    }
    if (a->write_order_total != head.write_order_total) {
      return fail_flat(kKarSeg015, loc, "alleged write-order totals disagree across artifacts");
    }
  }

  // --- Any shard's own rejection wins, in the unsharded audit's fault order:
  // earliest deciding epoch first, lowest shard index on ties. A fault in the
  // replicated trace rejects every shard identically (shard 0 reports); a
  // fault in one shard's advice rejects there with the unsharded rule.
  const ShardArtifact* rejected = nullptr;
  for (const ShardArtifact* a : ordered) {
    if (a->accepted) {
      continue;
    }
    if (rejected == nullptr || a->decided_epoch < rejected->decided_epoch) {
      rejected = a;
    }
  }
  if (rejected != nullptr) {
    result.accepted = false;
    result.reason = rejected->reason;
    result.rule = rejected->rule;
    result.diagnostics = rejected->diagnostics;
    return result;
  }

  // Full-trace identity (meaningful only now: a shard that rejected mid-stream
  // stops ingesting windows, so its trace-universe digest is partial).
  for (const ShardArtifact* a : ordered) {
    if (a->trace_rid_digest != head.trace_rid_digest ||
        a->trace_rid_count != head.trace_rid_count) {
      return fail_flat(kKarSeg015, "merge[shard " + std::to_string(a->shard) + "]",
                       "trace request universes disagree across artifacts");
    }
  }

  // --- Rid coverage (KAR-SEG-012): the K rid sets must partition the trace
  // exactly, and no re-execution tag group may span shards.
  std::map<RequestId, uint32_t> owner;
  for (const ShardArtifact* a : ordered) {
    for (RequestId rid : a->rids) {
      auto [it, inserted] = owner.emplace(rid, a->shard);
      if (!inserted) {
        return fail_flat(kKarSeg012, "merge[shard " + std::to_string(a->shard) + "]",
                         "request " + std::to_string(rid) + " is claimed by shard " +
                             std::to_string(it->second) + " and shard " +
                             std::to_string(a->shard));
      }
    }
  }
  {
    std::vector<RequestId> all_rids;
    all_rids.reserve(owner.size());
    for (const auto& [rid, s] : owner) {
      all_rids.push_back(rid);
    }
    if (all_rids.size() != head.trace_rid_count ||
        DigestRids(all_rids) != head.trace_rid_digest) {
      return fail_flat(kKarSeg012, "merge",
                       "shard rid sets do not cover the trace exactly (" +
                           std::to_string(all_rids.size()) + " covered, " +
                           std::to_string(head.trace_rid_count) + " in the trace)");
    }
  }
  {
    std::map<uint64_t, uint32_t> tag_shard;
    for (const ShardArtifact* a : ordered) {
      for (const auto& [rid, tag] : a->tags) {
        auto [it, inserted] = tag_shard.emplace(tag, a->shard);
        if (!inserted && it->second != a->shard) {
          return fail_flat(kKarSeg012, "merge[shard " + std::to_string(a->shard) + "]",
                           "re-execution group with tag " + std::to_string(tag) +
                               " is split between shard " + std::to_string(it->second) +
                               " and shard " + std::to_string(a->shard));
        }
      }
    }
  }

  // --- Write-order stitch (KAR-SEG-013): the per-shard chunks, placed at
  // their alleged global positions, must tile 0..total-1 exactly once, and
  // every entry must sit in the shard that owns its request.
  const uint64_t total = head.write_order_total;
  {
    // An exact tiling needs exactly `total` entries across the chunks, so a
    // count mismatch rejects up front — before the alleged total (untrusted)
    // sizes any allocation.
    uint64_t entries = 0;
    for (const ShardArtifact* a : ordered) {
      entries += a->write_order.size();
    }
    if (entries != total) {
      return fail_flat(kKarSeg013, "merge",
                       "shards carry " + std::to_string(entries) +
                           " write-order entries against an alleged total of " +
                           std::to_string(total));
    }
  }
  WriteOrder stitched(total);
  std::vector<uint32_t> placed_by(total, k);  // k == unplaced sentinel.
  uint64_t placed = 0;
  for (const ShardArtifact* a : ordered) {
    std::string loc = "merge[shard " + std::to_string(a->shard) + "]";
    if (a->write_order.size() != a->write_order_positions.size()) {
      return fail_flat(kKarSeg013, loc,
                       "write-order chunk and position list sizes disagree");
    }
    for (size_t i = 0; i < a->write_order.size(); ++i) {
      const TxOpRef& ref = a->write_order[i];
      uint64_t pos = a->write_order_positions[i];
      if (pos >= total) {
        return fail_flat(kKarSeg013, loc,
                         "write-order position " + std::to_string(pos) +
                             " is beyond the alleged total " + std::to_string(total));
      }
      if (placed_by[pos] != k) {
        return fail_flat(kKarSeg013, loc,
                         "write-order position " + std::to_string(pos) +
                             " is claimed by shard " + std::to_string(placed_by[pos]) +
                             " and shard " + std::to_string(a->shard));
      }
      auto own = owner.find(ref.rid);
      if (own != owner.end() && own->second != a->shard) {
        return fail_flat(kKarSeg013, loc,
                         "write-order entry " + ref.ToString() + " belongs to shard " +
                             std::to_string(own->second) + " but was placed by shard " +
                             std::to_string(a->shard));
      }
      stitched[pos] = ref;
      placed_by[pos] = a->shard;
      ++placed;
    }
  }
  if (placed != total) {
    return fail_flat(kKarSeg013, "merge",
                     "stitched write order has gaps: " + std::to_string(placed) +
                         " of " + std::to_string(total) + " positions placed");
  }

  // --- Cross-shard continuity confirmation (KAR-SEG-014): every allegation a
  // shard consumed about another shard's content must match what the owning
  // shard's audit actually found there — the pre-screen's confirmation, one
  // level up.
  for (const ShardArtifact* a : ordered) {
    std::string loc = "merge[shard " + std::to_string(a->shard) + "]";
    for (const auto& [ref, imp] : a->pending_tx_imports) {
      auto own = owner.find(ref.rid);
      const ShardArtifact* owning = own != owner.end() ? ordered[own->second] : nullptr;
      const ContinuityImports::TxOpImport* real = nullptr;
      if (owning != nullptr) {
        auto it = owning->tx_exports.find(ref);
        if (it != owning->tx_exports.end()) {
          real = &it->second;
        }
      }
      if (real == nullptr) {
        return fail_flat(kKarSeg014, loc,
                         "continuity import for " + ref.ToString() +
                             " has no confirmation from its owning shard");
      }
      if (!TxImportMatches(imp, ResolveImport(*real))) {
        return fail_flat(kKarSeg014, loc,
                         "continuity import for " + ref.ToString() +
                             " does not match the owning shard's content");
      }
    }
    for (const auto& [key, imp] : a->pending_var_imports) {
      auto own = owner.find(key.second.rid);
      const ShardArtifact* owning = own != owner.end() ? ordered[own->second] : nullptr;
      const ContinuityImports::VarImport* real = nullptr;
      if (owning != nullptr) {
        auto it = owning->var_exports.find(key);
        if (it != owning->var_exports.end()) {
          real = &it->second;
        }
      }
      if (real == nullptr) {
        return fail_flat(kKarSeg014, loc,
                         "continuity import for variable log entry " + key.second.ToString() +
                             " has no confirmation from its owning shard");
      }
      if (!VarImportMatches(imp, ResolveImport(*real))) {
        return fail_flat(kKarSeg014, loc,
                         "continuity import for variable log entry " + key.second.ToString() +
                             " does not match the owning shard's content");
      }
    }
  }

  // --- Write-chain stitch: union the per-shard fragments and re-run the
  // chain conflict checks (the merge-time analogs of MergeGroup's claim
  // replay) and the acyclicity walk (AddInternalStateEdges' analog). The
  // init-run runs replicated in every shard, so identical initializer /
  // link claims across shards dedupe silently; only contradictions reject.
  std::map<VarId, OpRef> initializer;
  std::map<VarId, std::map<OpRef, OpRef>> successors;
  for (const ShardArtifact* a : ordered) {
    for (const auto& [vid, links] : a->var_links) {
      if (links.has_initializer) {
        auto [it, inserted] = initializer.emplace(vid, links.initializer);
        if (!inserted && it->second != links.initializer) {
          return fail_dynamic("variable has two initializing writes");
        }
      }
      auto& succ = successors[vid];
      for (const auto& [prec, cur] : links.links) {
        auto [it, inserted] = succ.emplace(prec, cur);
        if (!inserted && it->second != cur) {
          return fail_dynamic("two writes overwrite the same value");
        }
      }
    }
  }

  // --- Global isolation over the stitched order and the merged history: the
  // same checker, with the same inputs, the unsharded StreamFinish runs.
  HistoryAnalysis analysis;
  std::map<TxnKey, uint32_t> txn_sizes;
  std::map<TxOpRef, PutShape> puts;
  for (const ShardArtifact* a : ordered) {
    analysis.committed.insert(a->history.committed.begin(), a->history.committed.end());
    for (const auto& [write, readers] : a->history.read_map) {
      auto& merged = analysis.read_map[write];
      merged.insert(merged.end(), readers.begin(), readers.end());
    }
    analysis.last_modification.insert(a->history.last_modification.begin(),
                                      a->history.last_modification.end());
    txn_sizes.insert(a->txn_sizes.begin(), a->txn_sizes.end());
    puts.insert(a->put_shapes.begin(), a->put_shapes.end());
  }
  // Epochs ascend rid ranges and transactions sort by (rid, tid, index), so a
  // plain sort restores the global reader order the unsharded analysis built.
  for (auto& [write, readers] : analysis.read_map) {
    std::sort(readers.begin(), readers.end());
  }
  auto resolve = [&txn_sizes, &puts](const TxOpRef& ref) {
    ResolvedTxOp r;
    auto size_it = txn_sizes.find(TxnKey{ref.rid, ref.tid});
    if (size_it != txn_sizes.end()) {
      r.txn_present = true;
      if (ref.index >= 1 && ref.index <= size_it->second) {
        r.op_present = true;
        auto put_it = puts.find(ref);
        if (put_it != puts.end()) {
          r.is_put = true;
          r.key = put_it->second.key;
          r.hid = put_it->second.hid;
          r.opnum = put_it->second.opnum;
          // No consumer dereferences PUT values; summaries are value-free.
          r.put_value = nullptr;
        }
      }
    }
    return r;
  };
  IsolationCheckResult iso =
      CheckIsolation(head.isolation, resolve, stitched, analysis);
  result.stats.isolation_dg_nodes = iso.dg_nodes;
  result.stats.isolation_dg_edges = iso.dg_edges;
  if (!iso.ok) {
    return fail_dynamic("isolation verification failed: " + iso.reason);
  }

  // --- Chain acyclicity (the Postprocess-stage analog): each write has at
  // most one successor, so the union is a functional graph; a full-coverage
  // 0/1/2-colored walk finds any cycle, including one threaded entirely
  // through cross-shard links that no single shard's walk could close.
  for (const auto& [vid, succ] : successors) {
    std::map<OpRef, uint8_t> color;
    for (const auto& [start, unused] : succ) {
      if (color.count(start) != 0) {
        continue;
      }
      std::vector<OpRef> path;
      OpRef cur = start;
      while (true) {
        auto c = color.find(cur);
        if (c != color.end()) {
          if (c->second == 1) {
            return fail_dynamic("variable write chain is cyclic");
          }
          break;  // Merges into an already-finished chain.
        }
        color[cur] = 1;
        path.push_back(cur);
        auto next = succ.find(cur);
        if (next == succ.end()) {
          break;
        }
        cur = next->second;
      }
      for (const OpRef& n : path) {
        color[n] = 2;
      }
    }
  }

  result.accepted = true;
  result.diagnostics = concat_diags(ordered);
  return result;
}

// --- Artifact container ------------------------------------------------------

std::vector<uint8_t> EncodeShardArtifact(const ShardArtifact& artifact) {
  SegmentWriter writer;
  ByteWriter payload;
  artifact.Serialize(&payload);
  writer.Append(SegmentKind::kShardArtifact, artifact.shard, payload.bytes());
  return writer.Take();
}

namespace {

ShardArtifactLoadResult LoadShardArtifact(std::unique_ptr<SegmentReader> reader,
                                          const std::string& open_error) {
  ShardArtifactLoadResult out;
  auto fail = [&out](const char* rule, std::string message) -> ShardArtifactLoadResult& {
    out.ok = false;
    out.rule = rule;
    LintDiagnostic d{rule, LintSeverity::kError, "artifact", std::move(message)};
    out.reason = "segment stream: " + d.Format();
    return out;
  };
  if (reader == nullptr) {
    return fail(kKarSeg001, "unreadable segment container: " + open_error);
  }
  const auto decode = [&out](const std::vector<uint8_t>& payload,
                             std::string* error) -> std::optional<uint64_t> {
    ByteReader in(payload);
    auto artifact = ShardArtifact::Deserialize(&in);
    if (!artifact || !in.AtEnd()) {
      *error = "shard-artifact payload is malformed";
      return std::nullopt;
    }
    out.artifact = std::move(*artifact);
    return out.artifact.shard;
  };
  std::string error;
  bool unreadable = false;
  if (!ReadSingleFrame(reader.get(), SegmentKind::kShardArtifact, decode, &error, &unreadable)) {
    return fail(unreadable ? kKarSeg001 : kKarSeg015, std::move(error));
  }
  out.ok = true;
  return out;
}

}  // namespace

ShardArtifactLoadResult LoadShardArtifactFile(const std::string& path) {
  std::optional<FileBytes> bytes = ReadFileBytes(path);
  if (!bytes) return LoadShardArtifact(nullptr, "cannot open segment file: " + path);
  return LoadShardArtifactBytes(*bytes);
}

ShardArtifactLoadResult LoadShardArtifactBytes(std::span<const uint8_t> bytes) {
  std::string error;
  auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
  return LoadShardArtifact(std::move(reader), error);
}

}  // namespace karousos
