// Epoch-streaming equivalence: for the same complete (trace, advice) pair,
// the audit must reach the same verdict, reason, rule, and diagnostics at
// every epoch size and thread count — honest and adversarial runs alike. The
// oracle is AuditOnly: the serial stream at kDefaultEpochRequests, one epoch
// for these runs. Plus the resume story: a checkpoint saved mid-stream
// restores into a session that finishes with the identical verdict, and
// malformed or mismatched checkpoints are refused.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/carry_lint.h"
#include "src/analysis/check.h"
#include "src/audit/audit.h"
#include "src/audit/stream.h"
#include "src/common/graph.h"
#include "src/common/segment.h"
#include "src/common/serde.h"
#include "src/kem/varid.h"
#include "src/verifier/session.h"
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

// The equivalence sweep: the default-epoch oracle vs epoch sizes
// {1, 7, 50, 0=∞} at threads {1, 4}.
void ExpectSameAtEveryEpochSize(const HonestRun& run) {
  AuditResult oracle =
      AuditOnly(run.app, run.server.trace, run.server.advice,
                VerifierConfig{IsolationLevel::kSerializable, 1},
                &run.server.untracked_accesses);
  for (uint64_t epoch_size : {uint64_t{1}, uint64_t{7}, uint64_t{50}, uint64_t{0}}) {
    for (unsigned threads : {1u, 4u}) {
      StreamAuditResult streamed = AuditStreamed(
          run.app, run.server.trace, run.server.advice,
          VerifierConfig{IsolationLevel::kSerializable, threads}, epoch_size,
          &run.server.untracked_accesses);
      ExpectSameOutcome(oracle, streamed.audit,
                        "epoch_size=" + std::to_string(epoch_size) +
                            " threads=" + std::to_string(threads));
    }
  }
}

TEST(EpochEquivalenceTest, HonestMotd) { ExpectSameAtEveryEpochSize(RunApp("motd", 60)); }

TEST(EpochEquivalenceTest, HonestStacks) { ExpectSameAtEveryEpochSize(RunApp("stacks", 60)); }

TEST(EpochEquivalenceTest, HonestWiki) { ExpectSameAtEveryEpochSize(RunApp("wiki", 60)); }

// --- Adversarial equivalence: every mutation the oracle rejects must -------
// --- reject identically at every epoch size. -------------------------------

TEST(EpochEquivalenceTest, ForgedResponse) {
  HonestRun run = RunApp("motd", 40);
  for (TraceEvent& ev : run.server.trace.events) {
    if (ev.kind == TraceEvent::Kind::kResponse) {
      ev.payload = MakeMap({{"msg", "forged"}});
      break;
    }
  }
  ExpectSameAtEveryEpochSize(run);
}

TEST(EpochEquivalenceTest, ForgedResponseInLateEpoch) {
  HonestRun run = RunApp("motd", 40);
  for (auto it = run.server.trace.events.rbegin(); it != run.server.trace.events.rend();
       ++it) {
    if (it->kind == TraceEvent::Kind::kResponse) {
      it->payload = MakeMap({{"msg", "forged"}});
      break;
    }
  }
  ExpectSameAtEveryEpochSize(run);
}

TEST(EpochEquivalenceTest, TamperedVarLogWriteValue) {
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
  ExpectSameAtEveryEpochSize(run);
}

TEST(EpochEquivalenceTest, GhostVarLogEntry) {
  HonestRun run = RunApp("motd", 40);
  VarId vid = ResolveVarId("motd", VarScope::kGlobal, 0);
  VarLogEntry ghost;
  ghost.kind = VarLogEntry::Kind::kWrite;
  ghost.value = Value("ghost");
  ghost.prec = kNilOp;
  run.server.advice.var_logs[vid].emplace(OpRef{1, 0x1234, 77}, ghost);
  ExpectSameAtEveryEpochSize(run);
}

TEST(EpochEquivalenceTest, DroppedHandlerLogEntry) {
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
  ExpectSameAtEveryEpochSize(run);
}

TEST(EpochEquivalenceTest, InflatedOpcount) {
  HonestRun run = RunApp("motd", 40);
  ASSERT_FALSE(run.server.advice.opcounts.empty());
  run.server.advice.opcounts.begin()->second += 1;
  ExpectSameAtEveryEpochSize(run);
}

TEST(EpochEquivalenceTest, MissingResponseEmittedBy) {
  HonestRun run = RunApp("motd", 40);
  ASSERT_FALSE(run.server.advice.response_emitted_by.empty());
  run.server.advice.response_emitted_by.erase(run.server.advice.response_emitted_by.begin());
  ExpectSameAtEveryEpochSize(run);
}

TEST(EpochEquivalenceTest, SwappedWriteOrder) {
  HonestRun run = RunApp("stacks", 60);
  ASSERT_GE(run.server.advice.write_order.size(), 2u);
  std::swap(run.server.advice.write_order.front(), run.server.advice.write_order.back());
  ExpectSameAtEveryEpochSize(run);
}

TEST(EpochEquivalenceTest, GetClaimedNotFound) {
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
  // This mutation diverts control flow, so the one-epoch oracle catches it
  // as intra-group divergence — a check whose firing depends on the
  // re-execution group's composition. Epoch slicing legitimately changes
  // that composition (a group cannot span epochs), so at epoch size 1 the
  // mutated request re-executes alone and the same fault surfaces at the
  // next check instead. The soundness contract is rejection at every size;
  // reason identity is asserted where grouping is preserved.
  AuditResult oracle =
      AuditOnly(run.app, run.server.trace, run.server.advice,
                VerifierConfig{IsolationLevel::kSerializable, 1},
                &run.server.untracked_accesses);
  ASSERT_FALSE(oracle.accepted);
  for (uint64_t epoch_size : {uint64_t{1}, uint64_t{7}, uint64_t{50}, uint64_t{0}}) {
    for (unsigned threads : {1u, 4u}) {
      StreamAuditResult streamed = AuditStreamed(
          run.app, run.server.trace, run.server.advice,
          VerifierConfig{IsolationLevel::kSerializable, threads}, epoch_size,
          &run.server.untracked_accesses);
      std::string context = "epoch_size=" + std::to_string(epoch_size) +
                            " threads=" + std::to_string(threads);
      EXPECT_FALSE(streamed.audit.accepted) << context;
      if (epoch_size != 1) {
        ExpectSameOutcome(oracle, streamed.audit, context);
      }
    }
  }
}

TEST(EpochEquivalenceTest, UnbalancedTraceMissingResponse) {
  HonestRun run = RunApp("motd", 40);
  for (auto it = run.server.trace.events.rbegin(); it != run.server.trace.events.rend();
       ++it) {
    if (it->kind == TraceEvent::Kind::kResponse) {
      run.server.trace.events.erase(std::next(it).base());
      break;
    }
  }
  ExpectSameAtEveryEpochSize(run);
}

// --- Checkpoint / resume ---------------------------------------------------

TEST(EpochCheckpointTest, ResumeFromMidStreamReachesTheSameVerdict) {
  HonestRun run = RunApp("stacks", 60);
  AuditResult oracle = AuditOnly(run.app, run.server.trace, run.server.advice,
                                 VerifierConfig{IsolationLevel::kSerializable, 1});
  ASSERT_TRUE(oracle.accepted) << oracle.reason;

  const uint64_t kEpochSize = 7;
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, kEpochSize);
  ASSERT_GE(slices.segments.size(), 4u);

  AuditSession first(*run.app.program, config, kEpochSize);
  size_t half = slices.segments.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(first.FeedEpoch(slices.segments[i]));
  }
  std::vector<uint8_t> checkpoint = first.SaveCheckpoint();
  // `first` is abandoned here — the process-kill in the resume story.

  std::string error;
  auto resumed = AuditSession::Restore(*run.app.program, config, checkpoint, &error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_EQ(resumed->next_epoch(), half);
  EXPECT_EQ(resumed->epoch_requests(), kEpochSize);
  // The resumed stream pulls every epoch again and feeds only the rest.
  const size_t total = slices.segments.size();
  SliceSource source(std::move(slices));
  StreamAuditResult finished = RunStreamedAudit(resumed.get(), &source);
  EXPECT_EQ(finished.epochs, total);
  ExpectSameOutcome(oracle, finished.audit, "resumed");
}

TEST(EpochCheckpointTest, CheckpointAfterEveryEpochStillMatches) {
  // The torture variant: serialize + restore between every pair of epochs.
  // Any carry field missing from the checkpoint shows up here as a verdict
  // or diagnostics divergence.
  HonestRun run = RunApp("stacks", 60);
  AuditResult oracle = AuditOnly(run.app, run.server.trace, run.server.advice,
                                 VerifierConfig{IsolationLevel::kSerializable, 1});

  const uint64_t kEpochSize = 7;
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, kEpochSize);
  auto session = std::make_unique<AuditSession>(*run.app.program, config, kEpochSize);
  for (const EpochSegment& segment : slices.segments) {
    session->FeedEpoch(segment);
    std::string error;
    auto reloaded =
        AuditSession::Restore(*run.app.program, config, session->SaveCheckpoint(), &error);
    ASSERT_NE(reloaded, nullptr) << error;
    // A write whose value was dropped must come back without one.
    EXPECT_EQ(reloaded->carried_var_values(), session->carried_var_values())
        << "epoch " << segment.epoch;
    session = std::move(reloaded);
  }
  AuditResult finished = session->Finish();
  ExpectSameOutcome(oracle, finished, "checkpoint-every-epoch");
}

// --- Carry liveness -----------------------------------------------------------

// Once its epoch ends, a write to a request-scoped variable carries its key
// and kind only. stacks declares two globals in its init run; every other
// variable it logs (the list accumulator among them) is request-scoped.
TEST(EpochCarryTest, OnlyGlobalVariableWritesKeepTheirValues) {
  HonestRun run = RunApp("stacks", 60);
  std::set<VarId> globals;
  for (const char* name : {"all_digests", "inflight"}) {
    globals.insert(ResolveVarId(name, VarScope::kGlobal, 0));
  }
  size_t global_writes = 0;
  size_t writes = 0;
  for (const auto& [vid, log] : run.server.advice.var_logs) {
    for (const auto& [op, entry] : log) {
      if (entry.kind == VarLogEntry::Kind::kWrite) {
        ++writes;
        global_writes += globals.count(vid);
      }
    }
  }
  ASSERT_GT(global_writes, 0u);
  ASSERT_GT(writes, global_writes);

  const uint64_t kEpochSize = 7;
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, kEpochSize);
  AuditSession session(*run.app.program, config, kEpochSize);
  for (const EpochSegment& segment : slices.segments) {
    ASSERT_TRUE(session.FeedEpoch(segment)) << "epoch " << segment.epoch;
  }
  EXPECT_EQ(session.carried_var_values(), global_writes);
  AuditResult result = session.Finish();
  EXPECT_TRUE(result.accepted) << result.reason;
}

// Forward imports naming a later epoch's request-scoped write, global-variable
// write and transaction PUT: the true content is accepted, and a wrong value
// is rejected with KAR-SEG-008 by the one confirmer, the pre-screen, when the
// target's epoch arrives (not at Finish), with or without a checkpoint round
// trip after every epoch. The streamed checker reports the same rule.
TEST(EpochCarryTest, ForwardImportOfRequestScopedWrite) {
  HonestRun run = RunApp("stacks", 60);
  const uint64_t kEpochSize = 7;
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, kEpochSize);
  ASSERT_GE(slices.segments.size(), 3u);

  // Coordinates some slice already imports: a forged duplicate would lose to
  // the first allegation.
  std::set<std::pair<VarId, OpRef>> imported_vars;
  std::set<TxOpRef> imported_tx;
  for (const EpochSegment& segment : slices.segments) {
    for (const auto& imp : segment.imports.var_entries) {
      imported_vars.insert({imp.vid, imp.op});
    }
    for (const auto& imp : segment.imports.tx_ops) {
      imported_tx.insert(imp.ref);
    }
  }
  // The first fresh write to `vid_of(rid)` after the first epoch.
  auto var_target = [&](auto vid_of) -> std::optional<ContinuityImports::VarImport> {
    for (size_t e = 1; e < slices.segments.size(); ++e) {
      for (const auto& [vid, log] : slices.segments[e].advice.var_logs) {
        for (const auto& [op, entry] : log) {
          if (entry.kind == VarLogEntry::Kind::kWrite && vid == vid_of(op.rid) &&
              imported_vars.count({vid, op}) == 0) {
            return DescribeVarEntry(run.server.advice, vid, op);
          }
        }
      }
    }
    return std::nullopt;
  };
  auto scoped = var_target([](RequestId rid) {
    return ResolveVarId("list_acc", VarScope::kRequest, rid);
  });
  auto global = var_target([](RequestId) {
    return ResolveVarId("all_digests", VarScope::kGlobal, 0);
  });
  std::optional<ContinuityImports::TxOpImport> put;
  for (size_t e = 1; e < slices.segments.size() && !put; ++e) {
    for (const auto& [txn, log] : slices.segments[e].advice.tx_logs) {
      for (uint32_t i = 1; i <= log.size() && !put; ++i) {
        TxOpRef ref{txn.rid, txn.tid, i};
        if (log[i - 1].type == TxOpType::kPut && imported_tx.count(ref) == 0) {
          put = DescribeTxOp(run.server.advice, ref);
        }
      }
    }
  }
  ASSERT_TRUE(scoped) << "no list accumulator write after the first epoch";
  ASSERT_TRUE(global) << "no global-variable write after the first epoch";
  ASSERT_TRUE(put) << "no PUT after the first epoch";

  struct Target {
    std::string name;
    RequestId rid;
    std::function<void(bool, ContinuityImports*)> forge;
  };
  auto var_forge = [](ContinuityImports::VarImport imp) {
    return [imp](bool true_value, ContinuityImports* imports) {
      imports->var_entries.push_back(imp);
      if (!true_value) {
        imports->var_entries.back().value = Value("forged");
      }
    };
  };
  const std::vector<Target> targets = {
      {"request-scoped write", scoped->op.rid, var_forge(*scoped)},
      {"global write", global->op.rid, var_forge(*global)},
      {"PUT", put->ref.rid,
       [imp = *put](bool true_value, ContinuityImports* imports) {
         imports->tx_ops.push_back(imp);
         if (!true_value) {
           imports->tx_ops.back().value = Value("forged");
         }
       }},
  };

  for (const Target& target : targets) {
    const uint64_t target_epoch = EpochOfRid(target.rid, kEpochSize);
    ASSERT_GE(target_epoch, 1u) << target.name;
    for (bool true_value : {true, false}) {
      EpochSlices forged = slices;
      target.forge(true_value, &forged.segments[0].imports);

      for (bool round_trip : {false, true}) {
        std::string context = target.name + ", " + (true_value ? "true" : "wrong") + " value" +
                              (round_trip ? ", checkpoint every epoch" : "");
        auto session = std::make_unique<AuditSession>(*run.app.program, config, kEpochSize);
        std::optional<uint64_t> rejected_at;
        for (const EpochSegment& segment : forged.segments) {
          if (!session->FeedEpoch(segment) && !rejected_at) {
            rejected_at = segment.epoch;
          }
          if (round_trip) {
            std::string error;
            session =
                AuditSession::Restore(*run.app.program, config, session->SaveCheckpoint(), &error);
            ASSERT_NE(session, nullptr) << context << ": " << error;
          }
        }
        EXPECT_EQ(rejected_at, true_value ? std::nullopt : std::optional<uint64_t>(target_epoch))
            << context;
        AuditResult result = session->Finish();
        EXPECT_EQ(result.accepted, true_value) << context << ": " << result.reason;
        EXPECT_EQ(result.rule, true_value ? "" : kKarSeg008) << context << ": " << result.reason;
      }

      CheckResult check = CheckSegmentStreams(EncodeTraceSegments(forged),
                                              EncodeAdviceSegments(forged), kEpochSize);
      EXPECT_EQ(check.ok, true_value) << target.name << ": " << check.reason;
      EXPECT_EQ(check.rule, true_value ? "" : kKarSeg008) << target.name << ": " << check.reason;
    }
  }
}

// The payload of a checkpoint's single frame.
std::vector<uint8_t> CheckpointPayload(const std::vector<uint8_t>& checkpoint) {
  std::string error;
  std::unique_ptr<SegmentReader> reader =
      SegmentReader::FromBytes(checkpoint.data(), checkpoint.size(), &error);
  EXPECT_NE(reader, nullptr) << error;
  SegmentRecord record;
  EXPECT_TRUE(reader != nullptr && reader->Next(&record));
  return record.payload;
}

// A checkpoint frame around any payload, so a mutated payload reaches the
// payload decoder instead of stopping at the container CRC. The frame header
// carries the epoch count the payload records (its third varint), as
// SaveCheckpoint writes it.
std::vector<uint8_t> FrameCheckpoint(const std::vector<uint8_t>& payload) {
  ByteReader in(payload);
  in.ReadVarint();  // Format version.
  in.ReadVarint();  // Requests per epoch.
  SegmentWriter writer;
  writer.Append(SegmentKind::kCheckpoint, in.ReadVarint().value_or(0), payload);
  return writer.Take();
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

TEST(EpochCheckpointTest, RestoreRefusesMalformedBytes) {
  HonestRun run = RunApp("stacks", 24);
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  std::string error;
  EXPECT_EQ(AuditSession::Restore(*run.app.program, config, {}, &error), nullptr);
  EXPECT_FALSE(error.empty());

  std::vector<uint8_t> garbage = {'K', 'S', 'E', 'G', 1, 42, 42, 42};
  error.clear();
  EXPECT_EQ(AuditSession::Restore(*run.app.program, config, garbage, &error), nullptr);
  EXPECT_FALSE(error.empty());

  // A mid-stream stacks checkpoint: graph, tracked variables, carries and
  // the pre-screen state all hold entries.
  AuditSession session(*run.app.program, config, 6);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 6);
  ASSERT_GE(slices.segments.size(), 3u);
  ASSERT_TRUE(session.FeedEpoch(slices.segments[0]));
  ASSERT_TRUE(session.FeedEpoch(slices.segments[1]));
  std::vector<uint8_t> checkpoint = session.SaveCheckpoint();
  std::vector<uint8_t> truncated(checkpoint.begin(), checkpoint.end() - 1);
  error.clear();
  EXPECT_EQ(AuditSession::Restore(*run.app.program, config, truncated, &error), nullptr);
  EXPECT_FALSE(error.empty());

  // A well-framed checkpoint of another format version (the leading payload
  // varint; the current version is 6) must be refused, not misparsed.
  std::vector<uint8_t> payload = CheckpointPayload(checkpoint);
  ASSERT_EQ(payload[0], 6u);
  for (uint8_t version : {5, 6, 7}) {
    std::vector<uint8_t> other = payload;
    other[0] = version;
    error.clear();
    auto restored = AuditSession::Restore(*run.app.program, config, FrameCheckpoint(other), &error);
    EXPECT_EQ(restored != nullptr, version == 6) << "version=" << int{version} << ": " << error;
    if (version != 6) {
      EXPECT_NE(error.find("unsupported version " + std::to_string(version)), std::string::npos)
          << error;
    }
  }

  // The container holds exactly one frame, whose header epoch is the
  // payload's epoch count (2 here): a second frame appended, or a header
  // naming another epoch, is refused.
  SegmentWriter two_frames;
  two_frames.Append(SegmentKind::kCheckpoint, 2, payload);
  two_frames.Append(SegmentKind::kCheckpoint, 2, payload);
  error.clear();
  EXPECT_EQ(AuditSession::Restore(*run.app.program, config, two_frames.Take(), &error), nullptr);
  EXPECT_NE(error.find("more than one frame"), std::string::npos) << error;
  SegmentWriter other_epoch;
  other_epoch.Append(SegmentKind::kCheckpoint, 77, payload);
  error.clear();
  EXPECT_EQ(AuditSession::Restore(*run.app.program, config, other_epoch.Take(), &error), nullptr);
  EXPECT_NE(error.find("epoch 77 disagrees"), std::string::npos) << error;

  // Every proper prefix of the payload is refused by the payload decoder.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<uint8_t> prefix(payload.begin(), payload.begin() + cut);
    error.clear();
    EXPECT_EQ(AuditSession::Restore(*run.app.program, config, FrameCheckpoint(prefix), &error),
              nullptr)
        << "cut=" << cut;
    EXPECT_FALSE(error.empty()) << "cut=" << cut;
  }
  // Every single-byte flip is refused or loads; it never crashes or throws.
  for (size_t i = 0; i < payload.size(); ++i) {
    std::vector<uint8_t> flipped = payload;
    flipped[i] ^= 0xFF;
    error.clear();
    auto restored =
        AuditSession::Restore(*run.app.program, config, FrameCheckpoint(flipped), &error);
    EXPECT_TRUE(restored != nullptr || !error.empty()) << "byte " << i;
  }

  // The pre-screen state closes the payload. A fresh session's state is
  // exactly a fresh CarryLint's, so its first count (the claimed
  // operations) sits two bytes into that tail.
  AuditSession fresh(*run.app.program, config, 6);
  std::vector<uint8_t> fresh_payload = CheckpointPayload(fresh.SaveCheckpoint());
  CarryLint lint;
  lint.Begin(6);
  ByteWriter lint_state;
  lint.Serialize(&lint_state);
  ASSERT_GE(fresh_payload.size(), lint_state.size());
  size_t lint_at = fresh_payload.size() - lint_state.size();
  ASSERT_TRUE(std::equal(lint_state.bytes().begin(), lint_state.bytes().end(),
                         fresh_payload.begin() + lint_at));
  ASSERT_NE(AuditSession::Restore(*run.app.program, config, FrameCheckpoint(fresh_payload),
                                  &error),
            nullptr)
      << error;
  error.clear();
  EXPECT_EQ(AuditSession::Restore(*run.app.program, config,
                                  FrameCheckpoint(ClaimRemaining(fresh_payload, lint_at + 2)),
                                  &error),
            nullptr);
  EXPECT_NE(error.find("malformed"), std::string::npos) << error;
}

// The execution graph's node keys replay in id order, so a repeated key
// would leave fewer nodes than the edges were checked against.
TEST(EpochCheckpointTest, RestoreRefusesDuplicateGraphNode) {
  HonestRun run = RunApp("stacks", 24);
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  AuditSession session(*run.app.program, config, 6);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 6);
  ASSERT_TRUE(session.FeedEpoch(slices.segments[0]));
  std::vector<uint8_t> payload = CheckpointPayload(session.SaveCheckpoint());

  auto key_bytes = [](const NodeKey& key) {
    ByteWriter w;
    w.WriteFixed64(key.a);
    w.WriteFixed64(key.b);
    w.WriteFixed64(key.c);
    return w.Take();
  };
  // Request 1's response-delivery node becomes a second copy of its arrival
  // node. Both keys occur only in the node list.
  const std::vector<uint8_t> arrival = key_bytes(NodeKey::ForRequestArrival(1));
  const std::vector<uint8_t> delivery = key_bytes(NodeKey::ForResponseDelivery(1));
  auto count = [&payload](const std::vector<uint8_t>& pattern) {
    size_t n = 0;
    for (auto it = payload.begin();
         (it = std::search(it, payload.end(), pattern.begin(), pattern.end())) != payload.end();
         ++it) {
      ++n;
    }
    return n;
  };
  ASSERT_EQ(count(arrival), 1u);
  ASSERT_EQ(count(delivery), 1u);
  auto at = std::search(payload.begin(), payload.end(), delivery.begin(), delivery.end());
  std::copy(arrival.begin(), arrival.end(), at);

  std::string error;
  EXPECT_EQ(AuditSession::Restore(*run.app.program, config, FrameCheckpoint(payload), &error),
            nullptr);
  EXPECT_NE(error.find("malformed"), std::string::npos) << error;
}

// Re-execution links each write to one predecessor and the initializing
// write to none, so a write chain that revisits a write comes only from a
// forged checkpoint: here one link redirected to its own predecessor.
// Postprocess rejects the chain when its walk reaches the revisit.
TEST(EpochCheckpointTest, ForgedCyclicWriteChainRejects) {
  HonestRun run = RunApp("stacks", 24);
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  AuditSession session(*run.app.program, config, 6);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 6);
  for (const EpochSegment& segment : slices.segments) {
    ASSERT_TRUE(session.FeedEpoch(segment));
  }
  std::vector<uint8_t> payload = CheckpointPayload(session.SaveCheckpoint());

  auto link_bytes = [](const OpRef& prec, const OpRef& cur) {
    ByteWriter w;
    SerializeOpRef(prec, &w);
    SerializeOpRef(cur, &w);
    return w.Take();
  };
  // The first logged overwrite whose (prec, cur) bytes occur once: only in
  // the write-observer table.
  bool forged = false;
  for (const auto& [vid, log] : run.server.advice.var_logs) {
    for (const auto& [op, entry] : log) {
      if (forged || entry.kind != VarLogEntry::Kind::kWrite || entry.prec.IsNil()) {
        continue;
      }
      const std::vector<uint8_t> link = link_bytes(entry.prec, op);
      auto at = std::search(payload.begin(), payload.end(), link.begin(), link.end());
      if (at == payload.end() ||
          std::search(at + 1, payload.end(), link.begin(), link.end()) != payload.end()) {
        continue;
      }
      const std::vector<uint8_t> loop = link_bytes(entry.prec, entry.prec);
      at = payload.erase(at, at + static_cast<ptrdiff_t>(link.size()));
      payload.insert(at, loop.begin(), loop.end());
      forged = true;
    }
  }
  ASSERT_TRUE(forged);

  std::string error;
  auto restored = AuditSession::Restore(*run.app.program, config, FrameCheckpoint(payload), &error);
  ASSERT_NE(restored, nullptr) << error;
  AuditResult result = restored->Finish(true);
  EXPECT_FALSE(result.accepted);
  EXPECT_NE(result.reason.find("variable write chain is cyclic"), std::string::npos)
      << result.reason;
}

// A checkpoint taken after a lint rejection carries the diagnostic; a
// severity byte that names no severity is refused, as the artifact refuses it.
TEST(EpochCheckpointTest, RestoreRefusesUnknownDiagnosticSeverity) {
  HonestRun run = RunApp("stacks", 60);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 2u);
  ASSERT_FALSE(slices.segments[1].advice.tags.empty());
  slices.segments[1].advice.tags.erase(slices.segments[1].advice.tags.begin());
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  AuditSession session(*run.app.program, config, 7);
  ASSERT_TRUE(session.FeedEpoch(slices.segments[0]));
  EXPECT_FALSE(session.FeedEpoch(slices.segments[1]));
  std::vector<uint8_t> payload = CheckpointPayload(session.SaveCheckpoint());
  AuditResult result = session.Finish();
  ASSERT_EQ(result.rule, "KAR-ADV-014") << result.reason;
  ASSERT_FALSE(result.diagnostics.empty());

  // Locate the first diagnostic by its encoding; its severity byte follows
  // the rule string.
  ByteWriter encoded;
  result.diagnostics[0].Serialize(&encoded);
  auto at = std::search(payload.begin(), payload.end(), encoded.bytes().begin(),
                        encoded.bytes().end());
  ASSERT_NE(at, payload.end());
  size_t severity_at = static_cast<size_t>(at - payload.begin()) + 1 +
                       result.diagnostics[0].rule.size();
  ASSERT_EQ(payload[severity_at], static_cast<uint8_t>(LintSeverity::kError));

  std::string error;
  for (uint8_t severity : {0, 1, 2}) {
    payload[severity_at] = severity;
    error.clear();
    auto restored =
        AuditSession::Restore(*run.app.program, config, FrameCheckpoint(payload), &error);
    EXPECT_EQ(restored != nullptr, severity <= 1) << "severity=" << int{severity} << ": " << error;
  }
}

TEST(EpochCheckpointTest, RestoreRefusesIsolationMismatch) {
  HonestRun run = RunApp("stacks", 20);
  VerifierConfig ser{IsolationLevel::kSerializable, 1};
  AuditSession session(*run.app.program, ser, 5);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 5);
  ASSERT_FALSE(slices.segments.empty());
  session.FeedEpoch(slices.segments[0]);
  std::vector<uint8_t> checkpoint = session.SaveCheckpoint();

  VerifierConfig rc{IsolationLevel::kReadCommitted, 1};
  std::string error;
  EXPECT_EQ(AuditSession::Restore(*run.app.program, rc, checkpoint, &error), nullptr);
  EXPECT_NE(error.find("isolation"), std::string::npos) << error;
}

TEST(EpochStreamTest, OutOfOrderSegmentRejects) {
  HonestRun run = RunApp("motd", 40);
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 2u);
  AuditSession session(*run.app.program, config, 7);
  EXPECT_FALSE(session.FeedEpoch(slices.segments[1]));
  EXPECT_TRUE(session.decided());
  AuditResult result = session.Finish();
  EXPECT_FALSE(result.accepted);
  EXPECT_NE(result.reason.find("out of order"), std::string::npos) << result.reason;
}

// --- Stream order: decode, feed, drop ----------------------------------------

// Flips the last payload byte of the advice frame for `epoch`, so that frame
// fails its CRC (KAR-SEG-001) while every earlier frame still decodes.
void BreakAdviceFrame(std::vector<uint8_t>* container, uint64_t epoch) {
  std::string error;
  std::unique_ptr<SegmentReader> reader =
      SegmentReader::FromBytes(container->data(), container->size(), &error);
  ASSERT_NE(reader, nullptr) << error;
  std::vector<uint64_t> ends;  // One past each epoch frame's last byte.
  SegmentRecord record;
  while (reader->Next(&record)) {
    if (record.kind == SegmentKind::kEpochManifest) continue;  // The first frame.
    if (!ends.empty()) {
      ends.back() = record.offset;
    }
    ends.push_back(container->size());
  }
  ASSERT_LT(epoch, ends.size());
  (*container)[ends[epoch] - 1] ^= 0xFF;
}

// Counts pulls and remembers the thread that made them.
class CountingSource : public EpochSource {
 public:
  explicit CountingSource(EpochSource* inner, uint64_t throw_at = UINT64_MAX)
      : inner_(inner), throw_at_(throw_at) {}

  int Next(EpochSegment* out, std::vector<LintDiagnostic>* diags) override {
    puller_ = std::this_thread::get_id();
    if (pulls_ == throw_at_) {
      throw std::runtime_error("decode failed at epoch " + std::to_string(pulls_));
    }
    ++pulls_;
    return inner_->Next(out, diags);
  }

  uint64_t pulls() const { return pulls_; }
  std::thread::id puller() const { return puller_; }

 private:
  EpochSource* inner_;
  uint64_t throw_at_;
  uint64_t pulls_ = 0;
  std::thread::id puller_;
};

// A lint-rejectable epoch 1 ahead of a CRC-broken frame: the first finding in
// stream order wins, for the standalone check and the audit alike, whether
// the broken frame is the one the decode thread reads ahead (epoch 2) or a
// later one (epoch 3).
TEST(EpochStreamOrderTest, FirstFindingInStreamOrderWins) {
  HonestRun run = RunApp("stacks", 60);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 5u);
  const std::vector<uint8_t> trace_bytes = EncodeTraceSegments(slices);
  const std::vector<uint8_t> honest_advice = EncodeAdviceSegments(slices);
  ASSERT_FALSE(slices.segments[1].advice.tags.empty());
  slices.segments[1].advice.tags.erase(slices.segments[1].advice.tags.begin());
  const std::vector<uint8_t> linted_advice = EncodeAdviceSegments(slices);
  const VerifierConfig config{IsolationLevel::kSerializable, 1};

  for (uint64_t broken : {uint64_t{2}, uint64_t{3}}) {
    const std::string context = "broken frame at epoch " + std::to_string(broken);
    // The broken frame alone is a file-layer rejection.
    std::vector<uint8_t> advice_bytes = honest_advice;
    BreakAdviceFrame(&advice_bytes, broken);
    EXPECT_EQ(CheckSegmentStreams(trace_bytes, advice_bytes, 7).rule, kKarSeg001) << context;
    StreamAuditResult audited = AuditSegments(run.app, trace_bytes, advice_bytes, config);
    EXPECT_FALSE(audited.audit.accepted) << context;
    EXPECT_EQ(audited.audit.rule, kKarSeg001) << context;
    EXPECT_EQ(audited.audit.reason.rfind("segment stream: ", 0), 0u) << audited.audit.reason;
    EXPECT_EQ(audited.epochs, broken) << context;

    // Behind the epoch-1 lint finding it is never reported.
    advice_bytes = linted_advice;
    BreakAdviceFrame(&advice_bytes, broken);
    CheckResult check = CheckSegmentStreams(trace_bytes, advice_bytes, 7);
    audited = AuditSegments(run.app, trace_bytes, advice_bytes, config);
    EXPECT_FALSE(check.ok) << context;
    EXPECT_EQ(check.rule, "KAR-ADV-014") << context << ": " << check.reason;
    EXPECT_FALSE(audited.audit.accepted) << context;
    EXPECT_EQ(audited.audit.rule, check.rule) << context << ": " << audited.audit.reason;
    EXPECT_EQ(audited.audit.reason, check.reason) << context;
    EXPECT_EQ(audited.epochs, 2u) << context;
  }
}

// A rejection at epoch j stops the decode thread: it reads at most one epoch
// ahead (j+1) and never pulls past it.
TEST(EpochStreamOrderTest, RejectionStopsDecodingAfterTheNextEpoch) {
  HonestRun run = RunApp("stacks", 60);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 6u);
  const uint64_t rejected_at = 2;
  slices.segments[rejected_at].advice.tags.erase(
      slices.segments[rejected_at].advice.tags.begin());
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  AuditSession session(*run.app.program, config, 7);
  SliceSource slice_source(std::move(slices));
  CountingSource source(&slice_source);
  StreamAuditResult result = RunStreamedAudit(&session, &source);
  EXPECT_FALSE(result.audit.accepted);
  EXPECT_EQ(result.audit.rule, "KAR-ADV-014") << result.audit.reason;
  EXPECT_EQ(result.epochs, rejected_at + 1);
  EXPECT_EQ(session.next_epoch(), rejected_at + 1);
  EXPECT_GE(source.pulls(), rejected_at + 1);
  EXPECT_LE(source.pulls(), rejected_at + 2);
}

// The source runs on the helper thread; what it throws is rethrown on the
// caller's, after the epochs before it were fed.
TEST(EpochStreamOrderTest, DecodeExceptionSurfacesOnTheCallerThread) {
  HonestRun run = RunApp("motd", 40);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 4u);
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  AuditSession session(*run.app.program, config, 7);
  SliceSource slice_source(std::move(slices));
  CountingSource source(&slice_source, /*throw_at=*/2);
  bool caught = false;
  try {
    RunStreamedAudit(&session, &source);
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "decode failed at epoch 2");
  }
  EXPECT_TRUE(caught);
  EXPECT_NE(source.puller(), std::this_thread::get_id());
  EXPECT_EQ(session.next_epoch(), 2u);
}

// A resumed audit still decodes and file-checks the epochs its checkpoint
// covers: a broken frame there rejects even though it is never fed.
TEST(EpochStreamOrderTest, ResumeFileChecksTheCoveredEpochs) {
  HonestRun run = RunApp("stacks", 60);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 4u);
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  AuditSession first(*run.app.program, config, 7);
  ASSERT_TRUE(first.FeedEpoch(slices.segments[0]));
  ASSERT_TRUE(first.FeedEpoch(slices.segments[1]));
  std::vector<uint8_t> checkpoint = first.SaveCheckpoint();

  const std::vector<uint8_t> trace_bytes = EncodeTraceSegments(slices);
  std::vector<uint8_t> advice_bytes = EncodeAdviceSegments(slices);
  BreakAdviceFrame(&advice_bytes, 0);
  std::string error;
  auto resumed = AuditSession::Restore(*run.app.program, config, checkpoint, &error);
  ASSERT_NE(resumed, nullptr) << error;
  PairedSegmentCursor cursor(trace_bytes, advice_bytes);
  StreamAuditResult result = RunStreamedAudit(resumed.get(), &cursor);
  EXPECT_FALSE(result.audit.accepted);
  EXPECT_EQ(result.audit.rule, kKarSeg001) << result.audit.reason;
  EXPECT_EQ(resumed->next_epoch(), 2u);
}

// --- Static findings -------------------------------------------------------

// Two planted static defects: a request's tag erased (KAR-ADV-014, found by
// the epoch's lint) and the first write-order entry repeated at the end
// (KAR-ADV-010, found by the write-order lint at Finish).
void PlantTagAndWriteOrderDefects(Advice* advice, RequestId tagless) {
  ASSERT_EQ(advice->tags.erase(tagless), 1u);
  ASSERT_FALSE(advice->write_order.empty());
  advice->write_order.push_back(advice->write_order.front());
}

bool HasRule(const std::vector<LintDiagnostic>& diagnostics, const std::string& rule) {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [&rule](const LintDiagnostic& d) { return d.rule == rule; });
}

// A one-epoch stream decided by its lint still ends: the finish-time rules
// run, so the result reports both findings under the first one's rule, and
// the standalone check reports the same.
TEST(EpochStaticFindingsTest, OneEpochStreamReportsEveryStaticFinding) {
  HonestRun run = RunApp("stacks", 60);
  ASSERT_FALSE(run.server.advice.tags.empty());
  PlantTagAndWriteOrderDefects(&run.server.advice, run.server.advice.tags.begin()->first);
  for (uint64_t epoch_size : {uint64_t{0}, kDefaultEpochRequests}) {
    const std::string context = "epoch_size=" + std::to_string(epoch_size);
    StreamAuditResult audited =
        AuditStreamed(run.app, run.server.trace, run.server.advice,
                      VerifierConfig{IsolationLevel::kSerializable, 1}, epoch_size);
    EXPECT_EQ(audited.epochs, 1u) << context;
    EXPECT_FALSE(audited.audit.accepted) << context;
    EXPECT_EQ(audited.audit.rule, "KAR-ADV-014") << context << ": " << audited.audit.reason;
    EXPECT_TRUE(HasRule(audited.audit.diagnostics, "KAR-ADV-014")) << context;
    EXPECT_TRUE(HasRule(audited.audit.diagnostics, "KAR-ADV-010")) << context;

    CheckResult check = CheckRun(run.server.trace, run.server.advice, epoch_size);
    EXPECT_EQ(check.rule, audited.audit.rule) << context;
    EXPECT_EQ(check.reason, audited.audit.reason) << context;
    ASSERT_EQ(check.diagnostics.size(), audited.audit.diagnostics.size()) << context;
    for (size_t i = 0; i < check.diagnostics.size(); ++i) {
      EXPECT_EQ(check.diagnostics[i].Format(), audited.audit.diagnostics[i].Format()) << context;
    }
  }
  // The AuditOnly wrapper is the default-epoch stream.
  AuditResult wrapped = AuditOnly(run.app, run.server.trace, run.server.advice,
                                  IsolationLevel::kSerializable);
  EXPECT_EQ(wrapped.rule, "KAR-ADV-014") << wrapped.reason;
  EXPECT_TRUE(HasRule(wrapped.diagnostics, "KAR-ADV-010"));
}

// A stream decided at epoch 2 of 6 is cut short: the later epochs are never
// fed, so no finding about them appears — not a later epoch's lint finding,
// and not the finish-time write-order rule.
TEST(EpochStaticFindingsTest, StreamCutShortReportsNothingPastTheDecidingEpoch) {
  const uint64_t kEpochSize = 7;
  HonestRun run = RunApp("stacks", 6 * kEpochSize);
  EpochSlices honest = SliceRun(run.server.trace, run.server.advice, kEpochSize);
  ASSERT_EQ(honest.segments.size(), 6u);
  const RequestId decided_rid = honest.segments[2].advice.tags.begin()->first;
  const RequestId later_rid = honest.segments[4].advice.tags.begin()->first;

  // The reference: only the epoch-2 defect planted.
  Advice only_first = run.server.advice;
  ASSERT_EQ(only_first.tags.erase(decided_rid), 1u);
  const VerifierConfig config{IsolationLevel::kSerializable, 1};
  StreamAuditResult reference =
      AuditStreamed(run.app, run.server.trace, only_first, config, kEpochSize);
  ASSERT_EQ(reference.audit.rule, "KAR-ADV-014") << reference.audit.reason;

  PlantTagAndWriteOrderDefects(&run.server.advice, decided_rid);
  ASSERT_EQ(run.server.advice.tags.erase(later_rid), 1u);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, kEpochSize);
  const std::vector<uint8_t> trace_bytes = EncodeTraceSegments(slices);
  const std::vector<uint8_t> advice_bytes = EncodeAdviceSegments(slices);
  StreamAuditResult audited = AuditSegments(run.app, trace_bytes, advice_bytes, config);
  EXPECT_EQ(audited.epochs, 3u);
  ExpectSameOutcome(reference.audit, audited.audit, "decided at epoch 2");
  EXPECT_FALSE(HasRule(audited.audit.diagnostics, "KAR-ADV-010"));
  const std::string later = "r" + std::to_string(later_rid) + "]";
  for (const LintDiagnostic& d : audited.audit.diagnostics) {
    EXPECT_EQ(d.location.find(later), std::string::npos) << d.Format();
  }
  CheckResult check = CheckSegmentStreams(trace_bytes, advice_bytes, kEpochSize);
  EXPECT_EQ(check.rule, audited.audit.rule);
  EXPECT_EQ(check.diagnostics.size(), audited.audit.diagnostics.size());
  EXPECT_FALSE(HasRule(check.diagnostics, "KAR-ADV-010"));
}

}  // namespace
}  // namespace karousos
