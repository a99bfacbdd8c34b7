// Streaming model checker tests: every checked-in KAR-SEG fixture must be
// rejected under its own rule, clean streams must check clean at every epoch
// size, the fast-reject pre-screen must stop a poisoned stream at the epoch
// where the defect lands, and the pre-screen's carry state must survive a
// checkpoint round trip, and KAR-SEG-009's walk must agree with a reference
// walk on random prec chains and keep its text across a resume. The epoch
// manifest each container opens with must be well formed and agree with its
// peer's, or the pair is refused under a file-layer rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/check.h"
#include "src/audit/audit.h"
#include "src/audit/stream.h"
#include "src/common/file_io.h"
#include "src/common/flat_map.h"
#include "src/common/segment.h"
#include "src/common/serde.h"
#include "src/verifier/session.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

// The frozen tests/fixtures/seg/ pairs (DESIGN.md, "Streaming advice model
// checker") were cut from one stacks run of 40 requests at epoch size 7.
constexpr uint64_t kFixtureEpochSize = 7;

std::vector<uint8_t> ReadFixture(const std::string& name) {
  std::string path = std::string(KAROUSOS_FIXTURE_DIR) + "/seg/" + name;
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.has_value()) << "missing fixture " << path;
  return bytes ? std::vector<uint8_t>(bytes->begin(), bytes->end()) : std::vector<uint8_t>{};
}

struct HonestRun {
  AppSpec app;
  ServerRunResult server;
};

HonestRun RunStacks(size_t requests = 63, int concurrency = 6) {
  HonestRun run{MakeStacksApp(), {}};
  WorkloadConfig wl;
  wl.app = "stacks";
  wl.kind = WorkloadKind::kMixed;
  wl.requests = requests;
  wl.seed = 7;
  ServerConfig config;
  config.concurrency = concurrency;
  Server server(*run.app.program, config);
  run.server = server.Run(GenerateWorkload(wl));
  return run;
}

// --- Per-rule fixtures ------------------------------------------------------

class SegRuleFixture : public ::testing::TestWithParam<const char*> {};

TEST_P(SegRuleFixture, CheckerReportsThePlantedRule) {
  const std::string rule = GetParam();
  std::string stem = rule;
  for (char& c : stem) {
    c = static_cast<char>(std::tolower(c));
  }
  std::vector<uint8_t> trace_bytes = ReadFixture(stem + ".trace.kseg");
  std::vector<uint8_t> advice_bytes = ReadFixture(stem + ".advice.kseg");
  ASSERT_FALSE(trace_bytes.empty());
  ASSERT_FALSE(advice_bytes.empty());

  CheckResult check = CheckSegmentStreams(trace_bytes, advice_bytes, kFixtureEpochSize);
  EXPECT_FALSE(check.ok) << "fixture for " << rule << " checked clean";
  EXPECT_EQ(check.rule, rule) << check.reason;
  EXPECT_FALSE(check.reason.empty());

  // The full audit must reject too, and where it names a rule it must be the
  // same one — the pre-screen fires before any replay could decide otherwise.
  StreamAuditResult audited =
      AuditSegments(MakeStacksApp(), trace_bytes, advice_bytes,
                    VerifierConfig{IsolationLevel::kSerializable, 1});
  EXPECT_FALSE(audited.audit.accepted) << "audit accepted the " << rule << " fixture";
  if (!audited.audit.rule.empty()) {
    EXPECT_EQ(audited.audit.rule, rule) << audited.audit.reason;
  }
}

INSTANTIATE_TEST_SUITE_P(AllRules, SegRuleFixture,
                         ::testing::Values("KAR-SEG-001", "KAR-SEG-002", "KAR-SEG-003",
                                           "KAR-SEG-004", "KAR-SEG-005", "KAR-SEG-006",
                                           "KAR-SEG-007", "KAR-SEG-008", "KAR-SEG-009",
                                           "KAR-SEG-010"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           std::string name = param.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- Clean streams ----------------------------------------------------------

TEST(SegmentCheckTest, CleanStreamChecksCleanAtEveryEpochSize) {
  HonestRun run = RunStacks();
  for (uint64_t epoch_size : {uint64_t{1}, uint64_t{7}, uint64_t{0}}) {
    CheckResult r = CheckRun(run.server.trace, run.server.advice, epoch_size);
    EXPECT_TRUE(r.ok) << "epoch size " << epoch_size << ": " << r.reason;
    EXPECT_TRUE(r.diagnostics.empty());
    EXPECT_EQ(r.rule, "");
  }
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  CheckResult r = CheckSegmentStreams(EncodeTraceSegments(slices), EncodeAdviceSegments(slices), 7);
  EXPECT_TRUE(r.ok) << r.reason;
  EXPECT_EQ(r.epochs, slices.segments.size());
  EXPECT_EQ(r.frames, 2 * slices.segments.size());
}

// --- The epoch manifest -----------------------------------------------------

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

std::vector<uint8_t> WriteFrames(const std::vector<Frame>& frames) {
  SegmentWriter writer;
  for (const Frame& f : frames) {
    writer.Append(f.kind, f.epoch, f.flags, f.payload);
  }
  return writer.Take();
}

std::vector<uint8_t> Varint(uint64_t v) {
  ByteWriter w;
  w.WriteVarint(v);
  return w.Take();
}

// An honest pair at epoch size 7, as frames: each container's manifest first.
struct FramedPair {
  std::vector<Frame> trace;
  std::vector<Frame> advice;
};

FramedPair HonestFrames(const HonestRun& run) {
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, kFixtureEpochSize);
  FramedPair pair{ReadFrames(EncodeTraceSegments(slices, KsegCompression::All())),
                  ReadFrames(EncodeAdviceSegments(slices, KsegCompression::All()))};
  EXPECT_EQ(pair.trace.front().kind, SegmentKind::kEpochManifest);
  EXPECT_EQ(pair.trace.front().payload, Varint(kFixtureEpochSize));
  EXPECT_EQ(pair.advice.front().payload, Varint(kFixtureEpochSize));
  return pair;
}

// Every manifest defect is a file-layer finding under its own rule, in the
// check and in the audit alike, before any epoch is fed: never a
// re-execution verdict against the server. Each is planted in the trace
// container and, separately, in the advice container.
TEST(EpochManifestTest, DefectsRejectUnderTheirRuleBeforeAnyEpoch) {
  HonestRun run = RunStacks(28);
  const FramedPair honest = HonestFrames(run);
  const VerifierConfig config{IsolationLevel::kSerializable, 1};
  ASSERT_TRUE(AuditSegments(run.app, WriteFrames(honest.trace), WriteFrames(honest.advice), config)
                  .audit.accepted);

  struct Defect {
    const char* name;
    const char* rule;
    void (*plant)(std::vector<Frame>*);
  };
  const Defect defects[] = {
      {"missing", kKarSeg002, [](std::vector<Frame>* c) { c->erase(c->begin()); }},
      {"duplicated", kKarSeg002, [](std::vector<Frame>* c) { c->insert(c->begin(), c->front()); }},
      {"after the first epoch frame", kKarSeg002,
       [](std::vector<Frame>* c) { std::swap((*c)[0], (*c)[1]); }},
      {"at the end", kKarSeg002,
       [](std::vector<Frame>* c) {
         c->push_back(c->front());
         c->erase(c->begin());
       }},
      {"flagged", kKarSeg002, [](std::vector<Frame>* c) { c->front().flags = kFrameFlagBlock; }},
      {"empty payload", kKarSeg002, [](std::vector<Frame>* c) { c->front().payload.clear(); }},
      {"overlong varint", kKarSeg002,
       [](std::vector<Frame>* c) { c->front().payload = {0x87, 0x00}; }},
      {"trailing byte", kKarSeg002, [](std::vector<Frame>* c) { c->front().payload.push_back(0); }},
      {"nonzero epoch field", kKarSeg002, [](std::vector<Frame>* c) { c->front().epoch = 1; }},
      {"another size", kKarSeg010,
       [](std::vector<Frame>* c) { c->front().payload = Varint(kFixtureEpochSize + 1); }},
  };
  for (const Defect& defect : defects) {
    for (bool in_trace : {true, false}) {
      SCOPED_TRACE(std::string(defect.name) + " manifest in the " +
                   (in_trace ? "trace" : "advice") + " container");
      FramedPair pair = honest;
      defect.plant(in_trace ? &pair.trace : &pair.advice);
      const std::vector<uint8_t> trace = WriteFrames(pair.trace);
      const std::vector<uint8_t> advice = WriteFrames(pair.advice);
      CheckResult check = CheckSegmentStreams(trace, advice);
      EXPECT_FALSE(check.ok);
      EXPECT_EQ(check.rule, defect.rule) << check.reason;
      EXPECT_EQ(check.epochs, 0u);
      EXPECT_EQ(check.reason.rfind("segment stream: ", 0), 0u) << check.reason;
      StreamAuditResult audited = AuditSegments(run.app, trace, advice, config);
      EXPECT_FALSE(audited.audit.accepted);
      EXPECT_EQ(audited.audit.rule, defect.rule) << audited.audit.reason;
      EXPECT_EQ(audited.audit.reason, check.reason);
      EXPECT_EQ(audited.epochs, 0u);
    }
  }
}

// Whatever size two agreeing manifests state, the check and the audit end in
// a verdict: the slices were cut at 7, so most sizes reject, but none may
// crash, hang or overflow.
TEST(EpochManifestTest, RewrittenSizesEndInAVerdict) {
  HonestRun run = RunStacks(28);
  const FramedPair honest = HonestFrames(run);
  const VerifierConfig config{IsolationLevel::kSerializable, 1};
  const uint64_t e = kFixtureEpochSize;
  for (uint64_t size : {uint64_t{0}, uint64_t{1}, e - 1, e, e + 1,
                        std::numeric_limits<uint64_t>::max()}) {
    SCOPED_TRACE("both manifests state " + std::to_string(size));
    FramedPair pair = honest;
    pair.trace.front().payload = Varint(size);
    pair.advice.front().payload = Varint(size);
    const std::vector<uint8_t> trace = WriteFrames(pair.trace);
    const std::vector<uint8_t> advice = WriteFrames(pair.advice);
    CheckResult check = CheckSegmentStreams(trace, advice);
    StreamAuditResult audited = AuditSegments(run.app, trace, advice, config);
    EXPECT_EQ(check.ok, check.reason.empty());
    EXPECT_EQ(audited.audit.accepted, audited.audit.reason.empty());
    if (size == e) {
      EXPECT_TRUE(check.ok) << check.reason;
      EXPECT_TRUE(audited.audit.accepted) << audited.audit.reason;
    }
  }
}

// A caller's expected size is checked against the manifests before any epoch.
TEST(EpochManifestTest, ExpectedSizeMustMatchTheManifests) {
  HonestRun run = RunStacks(28);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, kFixtureEpochSize);
  const std::vector<uint8_t> trace = EncodeTraceSegments(slices);
  const std::vector<uint8_t> advice = EncodeAdviceSegments(slices);
  EXPECT_TRUE(CheckSegmentStreams(trace, advice, kFixtureEpochSize).ok);
  SegmentLoadResult loaded = LoadSegmentStreams(trace, advice);
  ASSERT_TRUE(loaded.ok) << loaded.reason;
  EXPECT_EQ(loaded.slices.epoch_requests, kFixtureEpochSize);
  EXPECT_EQ(loaded.slices.segments.size(), slices.segments.size());

  CheckResult check = CheckSegmentStreams(trace, advice, kFixtureEpochSize + 1);
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.rule, kKarSeg010);
  EXPECT_EQ(check.epochs, 0u);
  EXPECT_NE(check.reason.find("epoch size 7, not the expected 8"), std::string::npos)
      << check.reason;
  loaded = LoadSegmentStreams(trace, advice, kFixtureEpochSize + 1);
  EXPECT_FALSE(loaded.ok);
  EXPECT_EQ(loaded.rule, kKarSeg010);
  EXPECT_EQ(loaded.reason, check.reason);
  EXPECT_TRUE(loaded.slices.segments.empty());
}

// --- Fast reject mid-stream -------------------------------------------------

// True when a finish-time pre-screen rule reported: content seen early,
// imports never confirmed, prec cycles across epochs. Those judge the whole
// stream, epochs never fed included.
bool HasFinishTimeFinding(const std::vector<LintDiagnostic>& diagnostics) {
  for (const LintDiagnostic& d : diagnostics) {
    for (const char* finish_only :
         {"appeared early in epoch", "beyond the final epoch", "cyclic across epochs"}) {
      if (d.message.find(finish_only) != std::string::npos) {
        return true;
      }
    }
  }
  return false;
}

// A cross-epoch defect planted into epoch 2 must fix the verdict the moment
// epoch 2 is fed — the pre-screen decides before that epoch re-executes, and
// later epochs are never consumed. Finishing there judges only what was fed:
// the honest forward imports into later epochs are no finding.
TEST(SegmentCheckTest, FastRejectDecidesAtThePoisonedEpoch) {
  HonestRun run = RunStacks();
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 4u);
  ASSERT_FALSE(slices.segments[0].advice.opcounts.empty());
  slices.segments[2].advice.opcounts.insert(*slices.segments[0].advice.opcounts.begin());

  VerifierConfig config{IsolationLevel::kSerializable, 1};
  AuditSession session(*run.app.program, config, 7);
  EXPECT_TRUE(session.FeedEpoch(slices.segments[0]));
  EXPECT_TRUE(session.FeedEpoch(slices.segments[1]));
  EXPECT_FALSE(session.FeedEpoch(slices.segments[2]));  // Decided here.
  EXPECT_TRUE(session.decided());
  AuditResult result = session.Finish();
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.rule, kKarSeg005) << result.reason;
  EXPECT_FALSE(HasFinishTimeFinding(result.diagnostics));

  // The standalone checker agrees, rule for rule.
  SegmentChecker checker(7);
  EXPECT_TRUE(checker.CheckEpoch(slices.segments[0]));
  EXPECT_TRUE(checker.CheckEpoch(slices.segments[1]));
  EXPECT_FALSE(checker.CheckEpoch(slices.segments[2]));
  CheckResult check = checker.Finish();
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.rule, kKarSeg005);
  EXPECT_FALSE(HasFinishTimeFinding(check.diagnostics));
}

// --- Checkpoint round trip --------------------------------------------------

// The pre-screen's cross-epoch state must survive SaveCheckpoint/Restore: a
// claim first made in epoch 0 must still be remembered by the restored
// session when a later epoch re-claims it.
TEST(SegmentCheckTest, CheckpointPreservesCarriedClaims) {
  HonestRun run = RunStacks();
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 4u);
  const size_t last = slices.segments.size() - 1;
  ASSERT_FALSE(slices.segments[0].advice.opcounts.empty());
  slices.segments[last].advice.opcounts.insert(*slices.segments[0].advice.opcounts.begin());

  VerifierConfig config{IsolationLevel::kSerializable, 1};
  AuditSession session(*run.app.program, config, 7);
  EXPECT_TRUE(session.FeedEpoch(slices.segments[0]));
  EXPECT_TRUE(session.FeedEpoch(slices.segments[1]));
  std::string error;
  auto restored =
      AuditSession::Restore(*run.app.program, config, session.SaveCheckpoint(), &error);
  ASSERT_NE(restored, nullptr) << error;
  for (size_t i = 2; i <= last; ++i) {
    if (!restored->FeedEpoch(slices.segments[i])) {
      break;
    }
  }
  AuditResult result = restored->Finish();
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.rule, kKarSeg005) << result.reason;
}

// --- KAR-SEG-009 over the prec-edge index -----------------------------------

using VarKey = std::pair<VarId, OpRef>;

// The hash-table walk KAR-SEG-009 used before it read the sorted index: the
// first edge of each key in fold order, walked from each key in the table's
// iteration order. Kept here as the oracle for the findings' content.
std::vector<LintDiagnostic> ReferencePrecWalk(const std::vector<EpochSegment>& epochs,
                                              size_t* one_epoch_cycles) {
  struct Edge {
    OpRef prec;
    uint64_t epoch = 0;
  };
  FlatMap<VarKey, Edge> edges;
  for (uint64_t e = 0; e < epochs.size(); ++e) {
    for (const auto& [vid, log] : epochs[e].advice.var_logs) {
      for (const auto& [op, entry] : log) {
        if (!entry.prec.IsNil() && entry.prec != op) {
          edges.emplace(VarKey{vid, op}, Edge{entry.prec, e});
        }
      }
    }
  }
  std::vector<LintDiagnostic> out;
  FlatMap<VarKey, uint8_t> color;
  std::vector<VarKey> path;
  for (const auto& [start, start_edge] : edges) {
    if (color[start] != 0) {
      continue;
    }
    path.clear();
    VarKey cur = start;
    while (true) {
      uint8_t& c = color[cur];
      if (c == 2) {
        break;
      }
      if (c == 1) {
        size_t first = 0;
        while (path[first] != cur) {
          ++first;
        }
        std::set<uint64_t> cycle_epochs;
        std::ostringstream cycle;
        for (size_t i = first; i < path.size(); ++i) {
          const Edge& edge = edges.find(path[i])->second;
          cycle_epochs.insert(edge.epoch);
          cycle << " " << path[i].second.ToString() << "@e" << edge.epoch;
        }
        if (cycle_epochs.size() >= 2) {
          std::ostringstream loc;
          loc << "var_logs[0x" << std::hex << cur.first << std::dec << "]";
          out.push_back(LintDiagnostic{kKarSeg009, LintSeverity::kError, loc.str(),
                                       "variable prec chain is cyclic across epochs:" +
                                           cycle.str()});
        } else {
          ++*one_epoch_cycles;
        }
        break;
      }
      c = 1;
      path.push_back(cur);
      auto it = edges.find(cur);
      if (it == edges.end()) {
        break;
      }
      cur = {cur.first, it->second.prec};
    }
    for (const VarKey& node : path) {
      color[node] = 2;
    }
  }
  return out;
}

// Each finding as (location, cycle tokens rotated to start at the least
// one), sorted: equal for two walks that met the same cycles in any order
// and entered them at any node.
std::vector<std::pair<std::string, std::vector<std::string>>> CanonicalFindings(
    const std::vector<LintDiagnostic>& diagnostics) {
  const std::string prefix = "variable prec chain is cyclic across epochs:";
  std::vector<std::pair<std::string, std::vector<std::string>>> out;
  for (const LintDiagnostic& d : diagnostics) {
    EXPECT_EQ(d.rule, kKarSeg009);
    EXPECT_EQ(d.message.rfind(prefix, 0), 0u) << d.message;
    std::istringstream in(d.message.substr(prefix.size()));
    std::vector<std::string> tokens;
    for (std::string t; in >> t;) {
      tokens.push_back(t);
    }
    std::rotate(tokens.begin(), std::min_element(tokens.begin(), tokens.end()), tokens.end());
    out.emplace_back(d.location, std::move(tokens));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<LintDiagnostic> FinishPrecCheck(const std::vector<EpochSegment>& epochs,
                                            size_t resume_after = SIZE_MAX) {
  CarryLint lint;
  lint.Begin(7);
  for (size_t e = 0; e < epochs.size(); ++e) {
    lint.EndEpoch(epochs[e]);
    if (e == resume_after) {
      ByteWriter w;
      lint.Serialize(&w);
      ByteReader bytes(w.bytes());
      StateReader in(&bytes);
      lint.Deserialize(&in);
      EXPECT_TRUE(in.Done());
    }
  }
  std::vector<LintDiagnostic> out;
  lint.Finish(&out);
  return out;
}

void AddPrec(EpochSegment* epoch, VarId vid, const OpRef& op, const OpRef& prec) {
  VarLogEntry entry;
  entry.kind = VarLogEntry::Kind::kWrite;
  entry.prec = prec;
  epoch->advice.var_logs[vid][op] = entry;
}

// Random multi-epoch var logs over a small op space, so keys recur across
// epochs (the first edge wins), self-precs and dangling precs occur, and
// cycles form both inside one epoch and across several.
TEST(PrecChainCheckTest, MatchesTheReferenceWalkOnRandomLogs) {
  std::mt19937_64 rng(20261019);
  size_t reported = 0;
  size_t one_epoch_cycles = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t epoch_count = 2 + rng() % 4;
    const uint64_t op_space = 4 + rng() % 20;
    const auto random_op = [&] {
      uint64_t i = rng() % op_space;
      return OpRef{1 + i / 3, 0x10 + i % 3, static_cast<OpNum>(i % 2)};
    };
    std::vector<EpochSegment> epochs(epoch_count);
    for (size_t e = 0; e < epoch_count; ++e) {
      epochs[e].epoch = e;
      for (uint64_t n = rng() % (2 * op_space); n > 0; --n) {
        VarId vid = 0xA0 + rng() % 3;
        OpRef op = random_op();
        OpRef prec = rng() % 8 == 0 ? OpRef{} : rng() % 10 == 0 ? op : random_op();
        AddPrec(&epochs[e], vid, op, prec);
      }
    }
    std::vector<LintDiagnostic> got = FinishPrecCheck(epochs);
    std::vector<LintDiagnostic> want = ReferencePrecWalk(epochs, &one_epoch_cycles);
    ASSERT_EQ(CanonicalFindings(got), CanonicalFindings(want)) << "trial " << trial;
    reported += got.size();

    // A checkpoint round trip after any epoch keeps the text and its order.
    const size_t resume_after = rng() % epoch_count;
    std::vector<LintDiagnostic> resumed = FinishPrecCheck(epochs, resume_after);
    ASSERT_EQ(resumed.size(), got.size()) << "trial " << trial;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(resumed[i].location, got[i].location);
      EXPECT_EQ(resumed[i].message, got[i].message);
    }
  }
  // The generator reaches both kinds of cycle.
  EXPECT_GT(reported, 50u);
  EXPECT_GT(one_epoch_cycles, 50u);
}

// Two cross-epoch cycles, planted so that fold order lists the larger
// variable's first: findings come in ascending (vid, op) order, each cycle
// entered at its least key.
TEST(PrecChainCheckTest, ReportsCrossEpochCyclesInKeyOrder) {
  const OpRef a{1, 0x1, 0};
  const OpRef b{2, 0x1, 0};
  const OpRef c{3, 0x1, 1};
  std::vector<EpochSegment> epochs(3);
  AddPrec(&epochs[0], 0xB, b, a);
  AddPrec(&epochs[0], 0xB, c, c);  // Self-prec: never an edge.
  AddPrec(&epochs[1], 0xB, a, b);
  AddPrec(&epochs[1], 0xA, c, b);
  AddPrec(&epochs[1], 0xA, a, c);  // One-epoch tail into the cycle below.
  AddPrec(&epochs[2], 0xA, b, c);
  AddPrec(&epochs[2], 0xA, a, b);  // Duplicate key: epoch 1's edge wins.
  AddPrec(&epochs[2], 0xC, a, b);  // One-epoch cycle: not reported.
  AddPrec(&epochs[2], 0xC, b, a);

  std::vector<LintDiagnostic> got = FinishPrecCheck(epochs);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].location, "var_logs[0xa]");
  EXPECT_EQ(got[0].message,
            "variable prec chain is cyclic across epochs: (r3,h1,1)@e1 (r2,h1,0)@e2");
  EXPECT_EQ(got[1].location, "var_logs[0xb]");
  EXPECT_EQ(got[1].message,
            "variable prec chain is cyclic across epochs: (r1,h1,0)@e1 (r2,h1,0)@e0");
  size_t one_epoch_cycles = 0;
  EXPECT_EQ(CanonicalFindings(got), CanonicalFindings(ReferencePrecWalk(epochs, &one_epoch_cycles)));
  EXPECT_EQ(one_epoch_cycles, 1u);
}

// Checkpointing and resuming after every epoch of the KAR-SEG-009 fixture
// leaves every diagnostic byte-identical. The carry ledger, whose encoding
// the session checkpoint embeds, holds the cycle; the full audit rejects the
// fixture dynamically first, and resumes to the same verdict too.
TEST(PrecChainCheckTest, ResumeAfterEveryEpochKeepsTheFixtureText) {
  SegmentLoadResult load = LoadSegmentStreams(ReadFixture("kar-seg-009.trace.kseg"),
                                              ReadFixture("kar-seg-009.advice.kseg"),
                                              kFixtureEpochSize);
  ASSERT_TRUE(load.ok) << load.reason;
  const std::vector<EpochSegment>& epochs = load.slices.segments;
  ASSERT_GE(epochs.size(), 3u);

  const auto check = [&](bool resume) {
    CarryLint lint;
    lint.Begin(kFixtureEpochSize);
    std::set<RequestId> trace_rids;
    std::vector<LintDiagnostic> out;
    for (const EpochSegment& epoch : epochs) {
      for (const TraceEvent& ev : epoch.window) {
        trace_rids.insert(ev.rid);
      }
      lint.RegisterImports(epoch);
      lint.CheckEpoch(epoch, trace_rids, &out);
      lint.EndEpoch(epoch);
      if (resume) {
        ByteWriter w;
        lint.Serialize(&w);
        ByteReader bytes(w.bytes());
        StateReader in(&bytes);
        lint.Deserialize(&in);
        EXPECT_TRUE(in.Done());
      }
    }
    lint.Finish(&out);
    return out;
  };
  std::vector<LintDiagnostic> want = check(false);
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(want[0].rule, kKarSeg009);
  std::vector<LintDiagnostic> got = check(true);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got[0].location, want[0].location);
  EXPECT_EQ(got[0].message, want[0].message);
  CheckResult checker = CheckSegmentStreams(ReadFixture("kar-seg-009.trace.kseg"),
                                            ReadFixture("kar-seg-009.advice.kseg"),
                                            kFixtureEpochSize);
  ASSERT_EQ(checker.diagnostics.size(), 1u);
  EXPECT_EQ(checker.diagnostics[0].message, want[0].message);

  AppSpec app = MakeStacksApp();
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  AuditSession whole(*app.program, config, kFixtureEpochSize);
  auto resumed = std::make_unique<AuditSession>(*app.program, config, kFixtureEpochSize);
  for (const EpochSegment& epoch : epochs) {
    whole.FeedEpoch(epoch);
    resumed->FeedEpoch(epoch);
    std::string error;
    resumed = AuditSession::Restore(*app.program, config, resumed->SaveCheckpoint(), &error);
    ASSERT_NE(resumed, nullptr) << error;
  }
  AuditResult whole_result = whole.Finish();
  AuditResult resumed_result = resumed->Finish();
  EXPECT_FALSE(whole_result.accepted);
  EXPECT_EQ(resumed_result.accepted, whole_result.accepted);
  EXPECT_EQ(resumed_result.rule, whole_result.rule);
  EXPECT_EQ(resumed_result.reason, whole_result.reason);
  EXPECT_EQ(resumed_result.diagnostics.size(), whole_result.diagnostics.size());
}

}  // namespace
}  // namespace karousos
