// Shard-axis equivalence: for the same complete (trace, advice) pair, the
// sharded pipeline — ShardRun → per-shard RunShardAudit → MergeShardArtifacts
// — must reach the unsharded audit's verdict, reason, rule, and diagnostics
// at every shard count, epoch size, and thread count, with both the shard
// files and the verdict artifacts round-tripped through their containers.
// Adversarial coverage splits by where the fault is visible: content
// mutations (mutate the monolithic run, then shard it) must reject under the
// unsharded rule; merge-only adversaries (tamper the artifacts after every
// shard passed individually) must be caught by the merge's global checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/carry_lint.h"
#include "src/analysis/check.h"
#include "src/audit/audit.h"
#include "src/common/segment.h"
#include "src/common/serde.h"
#include "src/kem/varid.h"
#include "src/server/shard.h"
#include "src/verifier/shard_audit.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

struct HonestRun {
  AppSpec app;
  ServerRunResult server;
};

HonestRun RunApp(const std::string& name, size_t requests, int concurrency = 8) {
  HonestRun run{name == "motd"     ? MakeMotdApp()
                : name == "stacks" ? MakeStacksApp()
                                   : MakeWikiApp(),
                {}};
  WorkloadConfig wl;
  wl.app = name;
  wl.kind = name == "wiki" ? WorkloadKind::kWikiMix : WorkloadKind::kMixed;
  wl.requests = requests;
  ServerConfig config;
  config.concurrency = concurrency;
  Server server(*run.app.program, config);
  run.server = server.Run(GenerateWorkload(wl));
  return run;
}

void ExpectSameOutcome(const AuditResult& expected, const AuditResult& actual,
                       const std::string& context) {
  EXPECT_EQ(expected.accepted, actual.accepted) << context << ": " << actual.reason;
  EXPECT_EQ(expected.reason, actual.reason) << context;
  EXPECT_EQ(expected.rule, actual.rule) << context;
  ASSERT_EQ(expected.diagnostics.size(), actual.diagnostics.size()) << context;
  for (size_t i = 0; i < expected.diagnostics.size(); ++i) {
    EXPECT_EQ(expected.diagnostics[i].Format(), actual.diagnostics[i].Format())
        << context << " diagnostic " << i;
  }
}

// The full production pipeline, serde included: shard the run, encode each
// shard file and reload it, audit each shard in isolation, round-trip every
// verdict artifact through its container, merge.
AuditResult ShardedVerdict(const HonestRun& run, uint32_t k, uint64_t epoch_size,
                           unsigned threads, ShardMode mode = ShardMode::kHash) {
  ShardSpec spec{k, mode};
  std::vector<ShardFile> shards =
      ShardRun(run.server.trace, run.server.advice, epoch_size, spec);
  EXPECT_EQ(shards.size(), k);
  std::vector<ShardArtifact> artifacts;
  for (const ShardFile& shard : shards) {
    ShardLoadResult loaded = LoadShardBytes(EncodeShardFile(shard));
    EXPECT_TRUE(loaded.ok) << loaded.reason;
    if (!loaded.ok) {
      AuditResult r;
      r.accepted = false;
      r.reason = loaded.reason;
      r.rule = loaded.rule;
      r.diagnostics = loaded.diagnostics;
      return r;
    }
    ShardArtifact artifact = RunShardAudit(
        *run.app.program, loaded.file, VerifierConfig{IsolationLevel::kSerializable, threads});
    ShardArtifactLoadResult round_trip =
        LoadShardArtifactBytes(EncodeShardArtifact(artifact));
    EXPECT_TRUE(round_trip.ok) << round_trip.reason;
    artifacts.push_back(round_trip.ok ? round_trip.artifact : artifact);
  }
  return MergeShardArtifacts(artifacts);
}

// Per-shard audits over in-memory shard files, asserted individually
// accepted — the starting point for every merge-only adversary.
std::vector<ShardArtifact> HonestArtifacts(const HonestRun& run, uint32_t k,
                                           uint64_t epoch_size) {
  std::vector<ShardFile> shards =
      ShardRun(run.server.trace, run.server.advice, epoch_size, ShardSpec{k, ShardMode::kHash});
  std::vector<ShardArtifact> artifacts;
  for (const ShardFile& shard : shards) {
    ShardArtifact artifact = RunShardAudit(*run.app.program, shard,
                                           VerifierConfig{IsolationLevel::kSerializable, 1});
    EXPECT_TRUE(artifact.accepted) << artifact.reason;
    artifacts.push_back(std::move(artifact));
  }
  return artifacts;
}

// The equivalence sweep: the unsharded oracle (AuditOnly, the serial stream at
// kDefaultEpochRequests) vs shard counts {1, 2, 4, 8} at epoch sizes
// {1, 50, 0=∞} and threads {1, 4}.
void ExpectShardMatchesOracle(const HonestRun& run) {
  AuditResult oracle = AuditOnly(run.app, run.server.trace, run.server.advice,
                                 VerifierConfig{IsolationLevel::kSerializable, 1});
  for (uint32_t k : {1u, 2u, 4u, 8u}) {
    for (uint64_t epoch_size : {uint64_t{1}, uint64_t{50}, uint64_t{0}}) {
      for (unsigned threads : {1u, 4u}) {
        AuditResult merged = ShardedVerdict(run, k, epoch_size, threads);
        ExpectSameOutcome(oracle, merged,
                          "K=" + std::to_string(k) +
                              " epoch_size=" + std::to_string(epoch_size) +
                              " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(ShardEquivalenceTest, HonestMotd) { ExpectShardMatchesOracle(RunApp("motd", 60)); }

TEST(ShardEquivalenceTest, HonestStacks) { ExpectShardMatchesOracle(RunApp("stacks", 60)); }

TEST(ShardEquivalenceTest, HonestWiki) { ExpectShardMatchesOracle(RunApp("wiki", 60)); }

TEST(ShardEquivalenceTest, HonestRangeMode) {
  HonestRun run = RunApp("stacks", 60);
  AuditResult oracle = AuditOnly(run.app, run.server.trace, run.server.advice,
                                 VerifierConfig{IsolationLevel::kSerializable, 1});
  ExpectSameOutcome(oracle, ShardedVerdict(run, 4, 50, 1, ShardMode::kRange), "range K=4");
}

TEST(ShardEquivalenceTest, MergeIsArtifactOrderIndependent) {
  HonestRun run = RunApp("wiki", 60);
  std::vector<ShardArtifact> artifacts = HonestArtifacts(run, 4, 50);
  AuditResult in_order = MergeShardArtifacts(artifacts);
  std::reverse(artifacts.begin(), artifacts.end());
  AuditResult reversed = MergeShardArtifacts(artifacts);
  ExpectSameOutcome(in_order, reversed, "reversed artifact order");
}

TEST(ShardEquivalenceTest, ShardAuditIsDeterministic) {
  // The resume story: re-running one crashed shard's audit must reproduce
  // its artifact byte-for-byte, so a restarted worker slots into the same
  // merge.
  HonestRun run = RunApp("stacks", 60);
  std::vector<ShardFile> shards =
      ShardRun(run.server.trace, run.server.advice, 50, ShardSpec{2, ShardMode::kHash});
  ASSERT_EQ(shards.size(), 2u);
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  std::vector<uint8_t> first =
      EncodeShardArtifact(RunShardAudit(*run.app.program, shards[1], config));
  std::vector<uint8_t> second =
      EncodeShardArtifact(RunShardAudit(*run.app.program, shards[1], config));
  EXPECT_EQ(first, second);
}

// --- Content adversaries: mutate the monolithic run, shard it, and demand --
// --- the unsharded rejection out of the merge. -----------------------------

void ExpectShardRejectsLikeOracle(const HonestRun& run, bool require_same_reason = true) {
  AuditResult oracle = AuditOnly(run.app, run.server.trace, run.server.advice,
                                 VerifierConfig{IsolationLevel::kSerializable, 1});
  ASSERT_FALSE(oracle.accepted);
  for (uint32_t k : {2u, 4u}) {
    AuditResult merged = ShardedVerdict(run, k, 50, 1);
    std::string context = "K=" + std::to_string(k);
    EXPECT_FALSE(merged.accepted) << context;
    EXPECT_EQ(oracle.rule, merged.rule) << context << ": " << merged.reason;
    if (require_same_reason) {
      EXPECT_EQ(oracle.reason, merged.reason) << context;
    }
  }
}

TEST(ShardAdversarialTest, ForgedResponse) {
  HonestRun run = RunApp("motd", 40);
  for (TraceEvent& ev : run.server.trace.events) {
    if (ev.kind == TraceEvent::Kind::kResponse) {
      ev.payload = MakeMap({{"msg", "forged"}});
      break;
    }
  }
  ExpectShardRejectsLikeOracle(run);
}

TEST(ShardAdversarialTest, TamperedVarLogWriteValue) {
  HonestRun run = RunApp("motd", 40);
  bool mutated = false;
  for (auto& [vid, log] : run.server.advice.var_logs) {
    for (auto& [op, entry] : log) {
      if (entry.kind == VarLogEntry::Kind::kWrite) {
        entry.value = Value("poisoned");
        mutated = true;
        break;
      }
    }
    if (mutated) {
      break;
    }
  }
  ASSERT_TRUE(mutated);
  ExpectShardRejectsLikeOracle(run);
}

TEST(ShardAdversarialTest, GhostVarLogEntry) {
  HonestRun run = RunApp("motd", 40);
  VarId vid = ResolveVarId("motd", VarScope::kGlobal, 0);
  VarLogEntry ghost;
  ghost.kind = VarLogEntry::Kind::kWrite;
  ghost.value = Value("ghost");
  ghost.prec = kNilOp;
  run.server.advice.var_logs[vid].emplace(OpRef{1, 0x1234, 77}, ghost);
  ExpectShardRejectsLikeOracle(run);
}

TEST(ShardAdversarialTest, DroppedHandlerLogEntry) {
  HonestRun run = RunApp("stacks", 60);
  bool mutated = false;
  for (auto& [rid, log] : run.server.advice.handler_logs) {
    if (!log.empty()) {
      log.pop_back();
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  ExpectShardRejectsLikeOracle(run);
}

TEST(ShardAdversarialTest, InflatedOpcount) {
  HonestRun run = RunApp("motd", 40);
  ASSERT_FALSE(run.server.advice.opcounts.empty());
  run.server.advice.opcounts.begin()->second += 1;
  ExpectShardRejectsLikeOracle(run);
}

TEST(ShardAdversarialTest, MissingResponseEmittedBy) {
  HonestRun run = RunApp("motd", 40);
  ASSERT_FALSE(run.server.advice.response_emitted_by.empty());
  run.server.advice.response_emitted_by.erase(run.server.advice.response_emitted_by.begin());
  ExpectShardRejectsLikeOracle(run);
}

TEST(ShardAdversarialTest, SwappedWriteOrder) {
  HonestRun run = RunApp("stacks", 60);
  ASSERT_GE(run.server.advice.write_order.size(), 2u);
  std::swap(run.server.advice.write_order.front(), run.server.advice.write_order.back());
  // A swap perturbs two entries that may land in different shards, so the
  // first-rejecting shard can describe the other end of the swap than the
  // unsharded scan reaches first: rule identity is the contract here.
  ExpectShardRejectsLikeOracle(run, /*require_same_reason=*/false);
}

TEST(ShardAdversarialTest, GetClaimedNotFound) {
  HonestRun run = RunApp("stacks", 60);
  bool mutated = false;
  for (auto& [txn, log] : run.server.advice.tx_logs) {
    for (TxOperation& op : log) {
      if (op.type == TxOpType::kGet && op.get_found) {
        op.get_found = false;
        op.get_from = kNilTxOp;
        mutated = true;
        break;
      }
    }
    if (mutated) {
      break;
    }
  }
  if (!mutated) {
    GTEST_SKIP() << "no found GET in this schedule";
  }
  // This mutation diverts control flow, so which check fires depends on the
  // re-execution group's composition (see epoch_audit_test). Sharding is
  // group-atomic, but the shard's scan order over groups differs from the
  // global one, so only rejection itself is the contract.
  AuditResult oracle = AuditOnly(run.app, run.server.trace, run.server.advice,
                                 VerifierConfig{IsolationLevel::kSerializable, 1});
  ASSERT_FALSE(oracle.accepted);
  for (uint32_t k : {2u, 4u}) {
    AuditResult merged = ShardedVerdict(run, k, 50, 1);
    EXPECT_FALSE(merged.accepted) << "K=" << k;
  }
}

TEST(ShardAdversarialTest, UnbalancedTraceMissingResponse) {
  HonestRun run = RunApp("motd", 40);
  for (auto it = run.server.trace.events.rbegin(); it != run.server.trace.events.rend();
       ++it) {
    if (it->kind == TraceEvent::Kind::kResponse) {
      run.server.trace.events.erase(std::next(it).base());
      break;
    }
  }
  ExpectShardRejectsLikeOracle(run);
}

// --- Merge-only adversaries: every shard passes individually; the fault ----
// --- exists only in the cross-shard view the merge reconstructs. -----------

TEST(ShardMergeAdversaryTest, DuplicatedRidAcrossBoundaries) {
  HonestRun run = RunApp("wiki", 60);
  std::vector<ShardArtifact> artifacts = HonestArtifacts(run, 2, 50);
  ASSERT_EQ(artifacts.size(), 2u);
  // Claim one of shard 1's requests for shard 0 too: each artifact is well
  // formed, so only the cross-shard partition check can see it.
  RequestId stolen = 0;
  for (RequestId rid : artifacts[1].rids) {
    if (rid != 0) {
      stolen = rid;
      break;
    }
  }
  ASSERT_NE(stolen, 0u);
  artifacts[0].rids.insert(
      std::lower_bound(artifacts[0].rids.begin(), artifacts[0].rids.end(), stolen), stolen);
  AuditResult merged = MergeShardArtifacts(artifacts);
  EXPECT_FALSE(merged.accepted);
  EXPECT_EQ(merged.rule, kKarSeg012) << merged.reason;
}

TEST(ShardMergeAdversaryTest, BrokenWriteOrderStitch) {
  HonestRun run = RunApp("stacks", 60);
  std::vector<ShardArtifact> artifacts = HonestArtifacts(run, 2, 50);
  ASSERT_EQ(artifacts.size(), 2u);
  // Duplicate a global position inside one shard's stitch claim: every
  // per-shard check still passes, but the total order no longer tiles.
  ShardArtifact* victim = nullptr;
  for (ShardArtifact& a : artifacts) {
    if (a.write_order_positions.size() >= 2) {
      victim = &a;
      break;
    }
  }
  ASSERT_NE(victim, nullptr) << "schedule produced no shard with two write-order entries";
  victim->write_order_positions[1] = victim->write_order_positions[0];
  AuditResult merged = MergeShardArtifacts(artifacts);
  EXPECT_FALSE(merged.accepted);
  EXPECT_EQ(merged.rule, kKarSeg013) << merged.reason;
}

TEST(ShardMergeAdversaryTest, MissingShardArtifact) {
  HonestRun run = RunApp("wiki", 60);
  std::vector<ShardArtifact> artifacts = HonestArtifacts(run, 2, 50);
  ASSERT_EQ(artifacts.size(), 2u);
  AuditResult merged = MergeShardArtifacts({artifacts[0]});
  EXPECT_FALSE(merged.accepted);
  EXPECT_EQ(merged.rule, kKarSeg015) << merged.reason;

  AuditResult empty = MergeShardArtifacts({});
  EXPECT_FALSE(empty.accepted);
  EXPECT_EQ(empty.rule, kKarSeg015) << empty.reason;
}

// A cross-shard import naming another shard's request-scoped write. The
// owning shard's carry keeps that write's key and kind only, yet its export
// still describes the logged value: the true value merges, a wrong one is a
// cross-shard contradiction (KAR-SEG-014).
TEST(ShardMergeAdversaryTest, ImportOfRequestScopedWrite) {
  HonestRun run = RunApp("stacks", 60);
  std::vector<ShardFile> shards =
      ShardRun(run.server.trace, run.server.advice, 7, ShardSpec{2, ShardMode::kHash});
  ASSERT_EQ(shards.size(), 2u);

  // A list accumulator write, and the shard that owns it.
  size_t owner = 0;
  std::pair<VarId, OpRef> key;
  const VarLogEntry* target = nullptr;
  for (size_t s = 0; s < shards.size() && target == nullptr; ++s) {
    for (const EpochSegment& seg : shards[s].slices.segments) {
      for (const auto& [vid, log] : seg.advice.var_logs) {
        for (const auto& [op, entry] : log) {
          if (target == nullptr && entry.kind == VarLogEntry::Kind::kWrite &&
              vid == ResolveVarId("list_acc", VarScope::kRequest, op.rid)) {
            owner = s;
            key = {vid, op};
            target = &entry;
          }
        }
      }
    }
  }
  ASSERT_NE(target, nullptr) << "no list accumulator write";
  auto& obligations = shards[owner].boundary.export_var_refs;
  obligations.insert(std::lower_bound(obligations.begin(), obligations.end(), key), key);

  for (bool true_value : {true, false}) {
    ContinuityImports::VarImport imp;
    imp.vid = key.first;
    imp.op = key.second;
    imp.present = true;
    imp.kind = static_cast<uint8_t>(VarLogEntry::Kind::kWrite);
    imp.value = true_value ? target->value : Value("forged");
    std::vector<ShardFile> forged = shards;
    forged[1 - owner].slices.segments[0].imports.var_entries.push_back(imp);

    std::vector<ShardArtifact> artifacts;
    for (const ShardFile& shard : forged) {
      artifacts.push_back(RunShardAudit(*run.app.program, shard,
                                        VerifierConfig{IsolationLevel::kSerializable, 1}));
      EXPECT_TRUE(artifacts.back().accepted) << artifacts.back().reason;
    }
    AuditResult merged = MergeShardArtifacts(artifacts);
    EXPECT_EQ(merged.accepted, true_value) << merged.reason;
    EXPECT_EQ(merged.rule, true_value ? "" : kKarSeg014) << merged.reason;
  }
}

TEST(ShardMergeAdversaryTest, WriteOrderTotalsMismatch) {
  HonestRun run = RunApp("stacks", 60);
  std::vector<ShardArtifact> artifacts = HonestArtifacts(run, 2, 50);
  ASSERT_EQ(artifacts.size(), 2u);

  // One shard alleging a different total than the others is an inconsistent
  // artifact set (KAR-SEG-015)...
  std::vector<ShardArtifact> lone = artifacts;
  lone[1].write_order_total += 1;
  AuditResult merged = MergeShardArtifacts(lone);
  EXPECT_FALSE(merged.accepted);
  EXPECT_EQ(merged.rule, kKarSeg015) << merged.reason;

  // ...while a consistently inflated total leaves the stitch short
  // (KAR-SEG-013) — and must be caught before anything allocates `total`.
  std::vector<ShardArtifact> inflated = artifacts;
  for (ShardArtifact& a : inflated) {
    a.write_order_total += 1;
  }
  merged = MergeShardArtifacts(inflated);
  EXPECT_FALSE(merged.accepted);
  EXPECT_EQ(merged.rule, kKarSeg013) << merged.reason;
}

// `payload` cut at `offset`, where a count now claims every byte after it as
// an entry.
std::vector<uint8_t> ClaimRemaining(const std::vector<uint8_t>& payload, size_t offset) {
  constexpr size_t kFiller = 4096;
  ByteWriter out;
  out.WriteBytes(payload.data(), offset);
  out.WriteVarint(kFiller);
  std::vector<uint8_t> forged = out.Take();
  forged.resize(forged.size() + kFiller, 0);
  return forged;
}

// Where two encodings first differ: with `one` holding a single entry more
// than `empty` in one collection, that is the collection's count.
size_t FirstDifference(const std::vector<uint8_t>& empty, const std::vector<uint8_t>& one) {
  return static_cast<size_t>(
      std::mismatch(empty.begin(), empty.end(), one.begin(), one.end()).first - empty.begin());
}

template <typename T>
std::vector<uint8_t> Encode(const T& value) {
  ByteWriter out;
  value.Serialize(&out);
  return out.Take();
}

// A shard file whose boundary frame carries `boundary_payload`, the epoch
// frames copied from `file` unchanged.
std::vector<uint8_t> WithBoundaryPayload(const std::vector<uint8_t>& file,
                                         const std::vector<uint8_t>& boundary_payload) {
  std::string error;
  std::unique_ptr<SegmentReader> reader =
      SegmentReader::FromBytes(file.data(), file.size(), &error);
  EXPECT_NE(reader, nullptr) << error;
  SegmentWriter writer;
  SegmentRecord rec;
  while (reader != nullptr && reader->Next(&rec)) {
    writer.Append(rec.kind, rec.epoch,
                  rec.kind == SegmentKind::kShardBoundary ? boundary_payload : rec.payload);
  }
  return writer.Take();
}

std::vector<uint8_t> FrameArtifact(const std::vector<uint8_t>& payload, uint32_t shard) {
  SegmentWriter writer;
  writer.Append(SegmentKind::kShardArtifact, shard, payload);
  return writer.Take();
}

TEST(ShardMergeAdversaryTest, TruncatedBoundarySegment) {
  HonestRun run = RunApp("stacks", 60);
  std::vector<ShardFile> shards =
      ShardRun(run.server.trace, run.server.advice, 15, ShardSpec{2, ShardMode::kHash});
  ASSERT_EQ(shards.size(), 2u);
  // The shard whose boundary lists export obligations, so the payload sweeps
  // below cross a non-empty export list.
  const ShardFile& shard =
      shards[0].boundary.export_tx_refs.empty() ? shards[1] : shards[0];
  ASSERT_FALSE(shard.boundary.export_tx_refs.empty());
  std::vector<uint8_t> bytes = EncodeShardFile(shard);

  // Any truncation of the shard file is refused before audit.
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 1);
  ShardLoadResult result = LoadShardBytes(truncated);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.rule.empty()) << result.reason;

  // Corrupting a byte inside the boundary frame trips the container CRC.
  std::vector<uint8_t> corrupted = bytes;
  ASSERT_GT(corrupted.size(), 24u);
  corrupted[24] ^= 0xFF;
  result = LoadShardBytes(corrupted);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.rule.empty()) << result.reason;

  // Re-framed, the boundary payload itself reaches the decoder.
  const std::vector<uint8_t> payload = Encode(shard.boundary);
  ASSERT_TRUE(LoadShardBytes(WithBoundaryPayload(bytes, payload)).ok);
  // Its version byte (the first payload byte) is 2; version 1, which restated
  // digests, totals and write chains, and version 3 are refused.
  ASSERT_EQ(payload[0], 2u);
  for (uint8_t version : {1, 3}) {
    std::vector<uint8_t> other = payload;
    other[0] = version;
    result = LoadShardBytes(WithBoundaryPayload(bytes, other));
    EXPECT_EQ(result.rule, kKarSeg011) << "version=" << int{version} << ": " << result.reason;
  }
  // Every proper prefix is refused as a malformed boundary.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<uint8_t> prefix(payload.begin(), payload.begin() + cut);
    result = LoadShardBytes(WithBoundaryPayload(bytes, prefix));
    EXPECT_FALSE(result.ok) << "cut=" << cut;
    EXPECT_EQ(result.rule, kKarSeg011) << "cut=" << cut;
    EXPECT_NE(result.reason.find("shard-boundary payload is malformed"), std::string::npos)
        << "cut=" << cut << ": " << result.reason;
  }
  // Every single-byte flip is refused or loads; it never crashes or throws.
  for (size_t i = 0; i < payload.size(); ++i) {
    std::vector<uint8_t> flipped = payload;
    flipped[i] ^= 0xFF;
    result = LoadShardBytes(WithBoundaryPayload(bytes, flipped));
    EXPECT_TRUE(result.ok || !result.rule.empty()) << "byte " << i;
  }
  // A count that claims every remaining byte as an entry is refused: the rid
  // count and the var export count, located by adding one entry to an empty
  // boundary.
  ShardBoundary empty;
  ShardBoundary one_rid = empty;
  one_rid.rids.push_back(1);
  ShardBoundary one_export = empty;
  one_export.export_var_refs.emplace_back();
  for (const ShardBoundary* one : {&one_rid, &one_export}) {
    size_t at = FirstDifference(Encode(empty), Encode(*one));
    std::vector<uint8_t> forged = ClaimRemaining(Encode(empty), at);
    ByteReader in(forged);
    EXPECT_FALSE(ShardBoundary::Deserialize(&in).has_value()) << "count at " << at;
    result = LoadShardBytes(WithBoundaryPayload(bytes, forged));
    EXPECT_EQ(result.rule, kKarSeg011) << result.reason;
  }
}

TEST(ShardMergeAdversaryTest, TruncatedArtifactRefused) {
  HonestRun run = RunApp("stacks", 60);
  std::vector<ShardArtifact> artifacts = HonestArtifacts(run, 2, 15);
  ASSERT_EQ(artifacts.size(), 2u);
  std::vector<uint8_t> bytes = EncodeShardArtifact(artifacts[0]);
  for (size_t cut : {size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    ShardArtifactLoadResult result = LoadShardArtifactBytes(truncated);
    EXPECT_FALSE(result.ok) << "cut=" << cut;
    EXPECT_FALSE(result.rule.empty()) << "cut=" << cut;
  }

  // A well-framed artifact whose version byte (the first payload byte; the
  // current version is 5) differs does not load.
  std::vector<uint8_t> raw = Encode(artifacts[0]);
  ASSERT_EQ(raw[0], 5u);
  for (uint8_t version : {5, 4, 6}) {
    raw[0] = version;
    ShardArtifactLoadResult result = LoadShardArtifactBytes(FrameArtifact(raw, artifacts[0].shard));
    EXPECT_EQ(result.ok, version == 5) << "version=" << int{version} << ": " << result.reason;
    if (version != 5) {
      EXPECT_EQ(result.rule, kKarSeg015) << "version=" << int{version};
    }
  }

  // Re-framed payload sweeps over an artifact that carries history and
  // continuity imports: every proper prefix is refused...
  const ShardArtifact* rich = &artifacts[0];
  for (const ShardArtifact& a : artifacts) {
    if (a.tx_exports.size() + a.pending_tx_imports.size() >
        rich->tx_exports.size() + rich->pending_tx_imports.size()) {
      rich = &a;
    }
  }
  ASSERT_FALSE(rich->history.committed.empty());
  ASSERT_FALSE(rich->tx_exports.empty() && rich->pending_tx_imports.empty());
  const std::vector<uint8_t> payload = Encode(*rich);
  ASSERT_TRUE(LoadShardArtifactBytes(FrameArtifact(payload, rich->shard)).ok);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<uint8_t> prefix(payload.begin(), payload.begin() + cut);
    ShardArtifactLoadResult result = LoadShardArtifactBytes(FrameArtifact(prefix, rich->shard));
    EXPECT_FALSE(result.ok) << "cut=" << cut;
    EXPECT_NE(result.reason.find("shard-artifact payload is malformed"), std::string::npos)
        << "cut=" << cut << ": " << result.reason;
  }
  // ...and every single-byte flip is refused or loads, never crashing.
  for (size_t i = 0; i < payload.size(); ++i) {
    std::vector<uint8_t> flipped = payload;
    flipped[i] ^= 0xFF;
    ShardArtifactLoadResult result = LoadShardArtifactBytes(FrameArtifact(flipped, rich->shard));
    EXPECT_TRUE(result.ok || !result.rule.empty()) << "byte " << i;
  }
  // A count that claims every remaining byte as an entry is refused: the rid
  // count and the diagnostic count.
  ShardArtifact empty;
  ShardArtifact one_rid = empty;
  one_rid.rids.push_back(1);
  ShardArtifact one_diagnostic = empty;
  one_diagnostic.diagnostics.push_back(LintDiagnostic{});
  for (const ShardArtifact* one : {&one_rid, &one_diagnostic}) {
    size_t at = FirstDifference(Encode(empty), Encode(*one));
    ShardArtifactLoadResult result =
        LoadShardArtifactBytes(FrameArtifact(ClaimRemaining(Encode(empty), at), 0));
    EXPECT_FALSE(result.ok) << "count at " << at;
    EXPECT_EQ(result.rule, kKarSeg015) << result.reason;
  }
}

// The paired containers and the shard file read their epoch frames through
// one step (DecodeEpochFrame), so a frame defect reports the same rule in
// both. Each defect is planted in epoch 1's trace frame and, separately, in
// its advice frame, of a container pair and of the K=1 shard file cut from the
// same run.
struct Frame {
  SegmentKind kind = SegmentKind::kTrace;
  uint8_t flags = 0;
  uint64_t epoch = 0;
  std::vector<uint8_t> payload;
};

std::vector<Frame> ReadFrames(const std::vector<uint8_t>& bytes) {
  std::string error;
  auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
  EXPECT_NE(reader, nullptr) << error;
  std::vector<Frame> frames;
  SegmentRecord rec;
  while (reader != nullptr && reader->Next(&rec)) {
    frames.push_back(Frame{rec.kind, rec.flags, rec.epoch, rec.payload});
  }
  return frames;
}

// Writes `frames` as a container; a frame may carry any flag bits.
// `truncate_after` >= 0 drops every later frame and cuts the container's last
// byte, which lies inside frame `truncate_after`.
std::vector<uint8_t> WriteFrames(const std::vector<Frame>& frames, int truncate_after = -1) {
  SegmentWriter writer;
  for (size_t i = 0; i < frames.size(); ++i) {
    writer.Append(frames[i].kind, frames[i].epoch, frames[i].flags, frames[i].payload);
    if (static_cast<int>(i) == truncate_after) {
      std::vector<uint8_t> bytes = writer.Take();
      bytes.pop_back();
      return bytes;
    }
  }
  return writer.Take();
}

// The finding a container pair stops at (an empty rule when it reads clean).
LintDiagnostic PairedFinding(const std::vector<uint8_t>& trace,
                             const std::vector<uint8_t>& advice) {
  PairedSegmentCursor cursor(trace, advice);
  EpochSegment segment;
  std::vector<LintDiagnostic> diags;
  while (cursor.Next(&segment, &diags) > 0) {
  }
  return diags.empty() ? LintDiagnostic{} : diags.back();
}

TEST(FrameDefectAgreementTest, PairedContainersAndShardFileReportTheSameRule) {
  HonestRun run = RunApp("stacks", 24);
  std::vector<ShardFile> shards =
      ShardRun(run.server.trace, run.server.advice, 6, ShardSpec{1, ShardMode::kHash});
  ASSERT_EQ(shards.size(), 1u);
  const EpochSlices& slices = shards[0].slices;
  ASSERT_GE(slices.segments.size(), 3u);
  const std::vector<Frame> trace = ReadFrames(EncodeTraceSegments(slices));
  const std::vector<Frame> advice = ReadFrames(EncodeAdviceSegments(slices));
  const std::vector<Frame> file = ReadFrames(EncodeShardFile(shards[0]));
  ASSERT_EQ(file.size(), 1 + 2 * slices.segments.size());
  ASSERT_EQ(PairedFinding(WriteFrames(trace), WriteFrames(advice)).rule, "");
  ASSERT_TRUE(LoadShardBytes(WriteFrames(file)).ok);

  struct Defect {
    const char* name;
    const char* rule;
    void (*plant)(Frame*);  // nullptr: truncate the container inside the frame.
  };
  const Defect defects[] = {
      {"wrong frame kind", kKarSeg002, [](Frame* f) { f->kind = SegmentKind::kCheckpoint; }},
      {"duplicate epoch", kKarSeg003, [](Frame* f) { f->epoch = 0; }},
      {"epoch gap", kKarSeg003, [](Frame* f) { f->epoch = 2; }},
      {"undecodable payload", kKarSeg002, [](Frame* f) { f->payload = {0xFF}; }},
      {"unknown flag bit", kKarSeg001, [](Frame* f) { f->flags = 0x80; }},
      {"truncated container", kKarSeg001, nullptr},
  };
  constexpr size_t kEpoch = 1;
  for (const Defect& defect : defects) {
    for (SegmentKind kind : {SegmentKind::kTrace, SegmentKind::kAdvice}) {
      SCOPED_TRACE(std::string(defect.name) + " in the " + SegmentKindName(kind) + " frame");
      const bool is_trace = kind == SegmentKind::kTrace;
      std::vector<Frame> paired = is_trace ? trace : advice;
      std::vector<Frame> shard_file = file;
      // Both layouts open with one frame (the manifest, the boundary).
      const size_t paired_index = 1 + kEpoch;
      const size_t file_index = 1 + 2 * kEpoch + (is_trace ? 0 : 1);
      int paired_cut = -1;
      int file_cut = -1;
      if (defect.plant != nullptr) {
        defect.plant(&paired[paired_index]);
        defect.plant(&shard_file[file_index]);
      } else {
        paired_cut = static_cast<int>(paired_index);
        file_cut = static_cast<int>(file_index);
      }
      const std::vector<uint8_t> planted = WriteFrames(paired, paired_cut);
      const LintDiagnostic finding = is_trace ? PairedFinding(planted, WriteFrames(advice))
                                              : PairedFinding(WriteFrames(trace), planted);
      ShardLoadResult loaded = LoadShardBytes(WriteFrames(shard_file, file_cut));
      ASSERT_FALSE(loaded.ok);
      EXPECT_EQ(finding.rule, defect.rule) << finding.Format();
      EXPECT_EQ(loaded.rule, finding.rule) << loaded.reason;
      // Each finding names the container it was read from.
      EXPECT_EQ(finding.location.rfind(SegmentKindName(kind), 0), 0u) << finding.Format();
      EXPECT_EQ(loaded.diagnostics.back().location.rfind("shard", 0), 0u) << loaded.reason;
    }
  }
}

// The K=1 identity ShardRun promises: shard 0's epoch frames are the epoch
// containers' frames for SliceRun of the same run, byte for byte, under the
// same codec stages.
TEST(ShardEquivalenceTest, OneShardEncodesTheEpochStreamsFrames) {
  for (const char* app : {"motd", "stacks", "wiki"}) {
    HonestRun run = RunApp(app, 60);
    for (uint64_t epoch_size : {uint64_t{1}, uint64_t{7}, uint64_t{50}, uint64_t{0}}) {
      const EpochSlices slices = SliceRun(run.server.trace, run.server.advice, epoch_size);
      const std::vector<ShardFile> shards =
          ShardRun(run.server.trace, run.server.advice, epoch_size, ShardSpec{1});
      ASSERT_EQ(shards.size(), 1u);
      for (const KsegCompression& c : {KsegCompression{}, KsegCompression::All()}) {
        SCOPED_TRACE(std::string(app) + " epoch_size=" + std::to_string(epoch_size) +
                     (c.any() ? " all stages" : " no stages"));
        const std::vector<Frame> trace = ReadFrames(EncodeTraceSegments(slices, c));
        const std::vector<Frame> advice = ReadFrames(EncodeAdviceSegments(slices, c));
        const std::vector<Frame> file = ReadFrames(EncodeShardFile(shards[0], c));
        ASSERT_EQ(trace.size(), 1 + slices.segments.size());
        ASSERT_EQ(advice.size(), trace.size());
        ASSERT_EQ(file.size(), 1 + 2 * slices.segments.size());
        for (size_t e = 0; e < slices.segments.size(); ++e) {
          for (const auto& [want, got] : {std::pair{&trace[1 + e], &file[1 + 2 * e]},
                                          std::pair{&advice[1 + e], &file[2 + 2 * e]}}) {
            EXPECT_EQ(got->kind, want->kind) << "epoch " << e;
            EXPECT_EQ(got->epoch, want->epoch) << "epoch " << e;
            EXPECT_EQ(got->flags, want->flags) << "epoch " << e;
            EXPECT_EQ(got->payload, want->payload) << "epoch " << e;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace karousos
