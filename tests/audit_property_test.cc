// Property tests over the whole audit pipeline:
//
//  * Completeness-fuzz: random (app, workload, concurrency, seed) honest runs
//    are always accepted.
//  * Trace-tamper-fuzz: any mutation of a response payload is rejected, no
//    matter which request and what mutation.
//  * Advice-robustness-fuzz: random byte corruptions of the serialized
//    advice never crash the verifier and never cause a *tampered trace* to
//    be accepted. (Corrupted advice against an honest trace may legally
//    accept or reject — advice is a hint; soundness is about the trace.)
#include <gtest/gtest.h>

#include "src/audit/audit.h"
#include "src/common/rng.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

struct RandomCase {
  std::string app;
  WorkloadKind kind = WorkloadKind::kMixed;
  int concurrency = 1;
  uint64_t seed = 0;
};

RandomCase DrawCase(Rng& rng) {
  RandomCase c;
  const char* apps[] = {"motd", "stacks", "wiki"};
  c.app = apps[rng.Below(3)];
  if (c.app == "wiki") {
    c.kind = WorkloadKind::kWikiMix;
  } else {
    WorkloadKind kinds[] = {WorkloadKind::kReadHeavy, WorkloadKind::kWriteHeavy,
                            WorkloadKind::kMixed};
    c.kind = kinds[rng.Below(3)];
  }
  c.concurrency = static_cast<int>(rng.Range(1, 20));
  c.seed = rng.Next();
  return c;
}

ServerRunResult Serve(const RandomCase& c, AppSpec& app, size_t requests) {
  WorkloadConfig wl;
  wl.app = c.app;
  wl.kind = c.kind;
  wl.requests = requests;
  wl.seed = c.seed;
  wl.connections = c.concurrency;
  ServerConfig config;
  config.concurrency = c.concurrency;
  config.seed = c.seed ^ 0xabcdef;
  Server server(*app.program, config);
  return server.Run(GenerateWorkload(wl));
}

TEST(AuditPropertyTest, RandomHonestRunsAreAccepted) {
  Rng rng(20240422);
  for (int iter = 0; iter < 20; ++iter) {
    RandomCase c = DrawCase(rng);
    AppSpec app = MakeApp(c.app).value();
    ServerRunResult run = Serve(c, app, 60);
    AuditResult audit =
        AuditOnly(app, run.trace, run.advice, IsolationLevel::kSerializable);
    EXPECT_TRUE(audit.accepted) << "iter " << iter << " app=" << c.app
                                << " c=" << c.concurrency << " seed=" << c.seed << ": "
                                << audit.reason;
  }
}

TEST(AuditPropertyTest, AnyResponseMutationIsRejected) {
  Rng rng(777);
  for (int iter = 0; iter < 12; ++iter) {
    RandomCase c = DrawCase(rng);
    AppSpec app = MakeApp(c.app).value();
    ServerRunResult run = Serve(c, app, 40);
    // Pick a random response and mutate it in a random way.
    std::vector<size_t> response_indices;
    for (size_t i = 0; i < run.trace.events.size(); ++i) {
      if (run.trace.events[i].kind == TraceEvent::Kind::kResponse) {
        response_indices.push_back(i);
      }
    }
    ASSERT_FALSE(response_indices.empty());
    TraceEvent& victim = run.trace.events[response_indices[rng.Below(response_indices.size())]];
    switch (rng.Below(3)) {
      case 0:
        victim.payload = Value("garbage");
        break;
      case 1:
        victim.payload = MakeMap({{"ok", false}});
        break;
      default: {
        // Subtle: perturb one field if it is a map, else null it.
        if (victim.payload.is_map() && !victim.payload.AsMap().empty()) {
          ValueMap m = victim.payload.AsMap();
          m.begin()->second = Value("flipped");
          victim.payload = Value(std::move(m));
        } else {
          victim.payload = Value();
        }
        break;
      }
    }
    AuditResult audit =
        AuditOnly(app, run.trace, run.advice, IsolationLevel::kSerializable);
    EXPECT_FALSE(audit.accepted)
        << "iter " << iter << " app=" << c.app << ": tampered response accepted";
  }
}

TEST(AuditPropertyTest, CorruptedAdviceNeverCrashesAndNeverHelpsATamperedTrace) {
  Rng rng(31337);
  AppSpec app = MakeStacksApp();
  RandomCase c{"stacks", WorkloadKind::kMixed, 6, 11};
  ServerRunResult run = Serve(c, app, 40);
  // Tamper the trace once; then try many corrupted-advice variants: none may
  // make the verifier accept the tampered trace.
  Trace tampered = run.trace;
  for (TraceEvent& ev : tampered.events) {
    if (ev.kind == TraceEvent::Kind::kResponse) {
      ev.payload = MakeMap({{"forged", true}});
      break;
    }
  }
  ByteWriter writer;
  run.advice.Serialize(&writer);
  std::vector<uint8_t> pristine = writer.bytes();
  for (int iter = 0; iter < 60; ++iter) {
    std::vector<uint8_t> bytes = pristine;
    // Corrupt 1-4 random bytes.
    for (uint64_t flips = 1 + rng.Below(4); flips > 0; --flips) {
      bytes[rng.Below(bytes.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
    }
    ByteReader reader(bytes);
    auto decoded = Advice::Deserialize(&reader);
    if (!decoded.has_value()) {
      continue;  // Malformed advice is rejected before verification; fine.
    }
    AuditResult audit = AuditOnly(app, tampered, *decoded, IsolationLevel::kSerializable);
    EXPECT_FALSE(audit.accepted) << "corrupted advice rescued a forged trace (iter " << iter
                                 << ")";
  }
}

TEST(AuditPropertyTest, VerifierIsDeterministic) {
  AppSpec app = MakeWikiApp();
  RandomCase c{"wiki", WorkloadKind::kWikiMix, 8, 5};
  ServerRunResult run = Serve(c, app, 60);
  AuditResult first = AuditOnly(app, run.trace, run.advice, IsolationLevel::kSerializable);
  AuditResult second = AuditOnly(app, run.trace, run.advice, IsolationLevel::kSerializable);
  EXPECT_EQ(first.accepted, second.accepted);
  EXPECT_EQ(first.reason, second.reason);
  EXPECT_EQ(first.stats.groups, second.stats.groups);
  EXPECT_EQ(first.stats.graph_nodes, second.stats.graph_nodes);
  EXPECT_EQ(first.stats.graph_edges, second.stats.graph_edges);
  EXPECT_EQ(first.stats.ops_executed, second.stats.ops_executed);
}

}  // namespace
}  // namespace karousos
