#include "src/common/graph.h"

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/apps/app.h"
#include "src/common/digest.h"
#include "src/common/rng.h"
#include "src/server/rollover.h"
#include "src/server/server.h"
#include "src/verifier/session.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

NodeKey K(uint64_t n) { return NodeKey{n, 0, 1}; }

TEST(GraphTest, EmptyAndSingleNode) {
  DirectedGraph g;
  EXPECT_FALSE(g.HasCycle());
  g.AddNode(K(1));
  EXPECT_FALSE(g.HasCycle());
  EXPECT_EQ(g.node_count(), 1u);
}

TEST(GraphTest, SelfLoopIsACycle) {
  DirectedGraph g;
  g.AddEdge(K(1), K(1));
  EXPECT_TRUE(g.HasCycle());
}

TEST(GraphTest, ChainIsAcyclic) {
  DirectedGraph g;
  for (uint64_t i = 0; i < 1000; ++i) {
    g.AddEdge(K(i), K(i + 1));
  }
  EXPECT_FALSE(g.HasCycle());
}

TEST(GraphTest, BackEdgeMakesCycle) {
  DirectedGraph g;
  g.AddEdge(K(1), K(2));
  g.AddEdge(K(2), K(3));
  g.AddEdge(K(3), K(1));
  EXPECT_TRUE(g.HasCycle());
  std::vector<NodeKey> cycle = g.FindCycle();
  ASSERT_GE(cycle.size(), 2u);
  EXPECT_EQ(cycle.front(), cycle.back());
}

TEST(GraphTest, DiamondIsAcyclic) {
  DirectedGraph g;
  g.AddEdge(K(1), K(2));
  g.AddEdge(K(1), K(3));
  g.AddEdge(K(2), K(4));
  g.AddEdge(K(3), K(4));
  EXPECT_FALSE(g.HasCycle());
}

TEST(GraphTest, DisconnectedComponentCycleIsFound) {
  DirectedGraph g;
  g.AddEdge(K(1), K(2));
  g.AddEdge(K(10), K(11));
  g.AddEdge(K(11), K(10));
  EXPECT_TRUE(g.HasCycle());
}

TEST(GraphTest, ParallelEdgesAreNotCycles) {
  DirectedGraph g;
  g.AddEdge(K(1), K(2));
  g.AddEdge(K(1), K(2));
  EXPECT_FALSE(g.HasCycle());
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(GraphTest, InternsKeysOnce) {
  DirectedGraph g;
  auto a = g.AddNode(K(7));
  auto b = g.AddNode(K(7));
  EXPECT_EQ(a, b);
  EXPECT_TRUE(g.HasNode(K(7)));
  EXPECT_FALSE(g.HasNode(K(8)));
  EXPECT_EQ(g.KeyOf(a), K(7));
}

TEST(GraphTest, DeepChainDoesNotOverflowStack) {
  // The iterative DFS must survive graphs far deeper than any call stack.
  DirectedGraph g;
  constexpr uint64_t kDepth = 500000;
  for (uint64_t i = 0; i < kDepth; ++i) {
    g.AddEdge(K(i), K(i + 1));
  }
  EXPECT_FALSE(g.HasCycle());
  g.AddEdge(K(kDepth), K(0));
  EXPECT_TRUE(g.HasCycle());
}

TEST(GraphTest, RandomDagPlusBackEdgeProperty) {
  // Property: edges only from lower to higher ids form a DAG; adding any
  // reverse edge on a connected pair creates a cycle.
  Rng rng(7);
  DirectedGraph g;
  constexpr uint64_t kNodes = 300;
  for (int i = 0; i < 2000; ++i) {
    uint64_t a = rng.Below(kNodes);
    uint64_t b = rng.Below(kNodes);
    if (a == b) {
      continue;
    }
    g.AddEdge(K(std::min(a, b)), K(std::max(a, b)));
  }
  EXPECT_FALSE(g.HasCycle());
  g.AddEdge(K(250), K(0));  // 0 -> ... -> 250 exists with high probability.
  g.AddEdge(K(0), K(250));  // Ensure the forward path exists regardless.
  EXPECT_TRUE(g.HasCycle());
}

// --- Chain blocks ------------------------------------------------------------

// What AddChain must be indistinguishable from: AddNode on each key in order
// and an edge between each consecutive pair, on a graph with no chain blocks.
void NodeByNodeChain(DirectedGraph* g, uint64_t a, uint64_t b, uint32_t count) {
  DirectedGraph::NodeId prev = g->AddNode({a, b, 0});
  for (uint64_t opnum = 1; opnum <= count; ++opnum) {
    DirectedGraph::NodeId node = g->AddNode({a, b, opnum});
    g->AddEdge(prev, node);
    prev = node;
  }
  g->AddEdge(prev, g->AddNode({a, b, kOpNumInf}));
}

// Keys from a small space, so chains collide with forward-named keys, get
// declared twice, and are named past their range.
NodeKey SmallKey(Rng& rng) {
  return {rng.Below(5), rng.Below(4), rng.Percent(15) ? kOpNumInf : rng.Below(8)};
}

void ExpectSameGraph(const DirectedGraph& dense, const DirectedGraph& ref) {
  ASSERT_EQ(dense.node_count(), ref.node_count());
  ASSERT_EQ(dense.edge_count(), ref.edge_count());
  EXPECT_EQ(dense.edges(), ref.edges());
  for (size_t i = 0; i < ref.node_count(); ++i) {
    const auto id = static_cast<DirectedGraph::NodeId>(i);
    ASSERT_EQ(dense.KeyOf(id), ref.KeyOf(id)) << "id " << i;
    EXPECT_EQ(dense.FindNode(ref.KeyOf(id)), id) << "id " << i;
  }
  EXPECT_EQ(dense.HasCycle(), ref.HasCycle());
  EXPECT_EQ(dense.FindCycle(), ref.FindCycle());
}

TEST(GraphChainTest, MatchesNodeByNodeInterning) {
  size_t cyclic_checks = 0;
  size_t acyclic_checks = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    DirectedGraph dense;
    DirectedGraph ref;
    for (int step = 1; step <= 240; ++step) {
      const uint64_t pick = rng.Below(100);
      if (pick < 25) {
        const uint64_t a = rng.Below(5);
        const uint64_t b = rng.Below(4);
        const auto count = static_cast<uint32_t>(rng.Below(6));
        dense.AddChain(a, b, count);
        NodeByNodeChain(&ref, a, b, count);
      } else if (pick < 50) {
        const NodeKey key = SmallKey(rng);
        ASSERT_EQ(dense.AddNode(key), ref.AddNode(key)) << "seed " << seed << " step " << step;
      } else if (ref.node_count() > 0) {
        // Mostly forward in id order; a back edge now and then.
        uint64_t from = rng.Below(ref.node_count());
        uint64_t to = rng.Below(ref.node_count());
        if (from > to && !rng.Percent(4)) {
          std::swap(from, to);
        }
        const NodeKey from_key = ref.KeyOf(static_cast<DirectedGraph::NodeId>(from));
        const NodeKey to_key = ref.KeyOf(static_cast<DirectedGraph::NodeId>(to));
        dense.AddEdge(from_key, to_key);
        ref.AddEdge(from_key, to_key);
      }
      const NodeKey probe = SmallKey(rng);
      ASSERT_EQ(dense.FindNode(probe), ref.FindNode(probe)) << "seed " << seed;
      if (step % 60 == 0) {
        ExpectSameGraph(dense, ref);
        ++(ref.HasCycle() ? cyclic_checks : acyclic_checks);
      }
    }
    EXPECT_LE(dense.hashed_node_count(), dense.node_count());
    EXPECT_EQ(ref.hashed_node_count(), ref.node_count());
  }
  // The mix reaches both verdicts, so FindCycle's output is compared too.
  EXPECT_GT(cyclic_checks, 0u);
  EXPECT_GT(acyclic_checks, 0u);
}

TEST(GraphChainTest, OnlyKeysOutsideAFreshBlockAreHashed) {
  DirectedGraph g;
  g.AddNode({9, 0, 0});
  g.AddChain(1, 5, 3);  // Ids 1..4 for opnums 0..3, 5 for kOpNumInf.
  EXPECT_EQ(g.node_count(), 6u);
  EXPECT_EQ(g.hashed_node_count(), 1u);
  EXPECT_EQ(g.FindNode({1, 5, 2}), 3);
  EXPECT_EQ(g.FindNode({1, 5, kOpNumInf}), 5);
  EXPECT_EQ(g.KeyOf(5), (NodeKey{1, 5, kOpNumInf}));
  EXPECT_FALSE(g.HasNode({1, 5, 4}));
  EXPECT_EQ(g.edge_count(), 4u);

  // Past the block's range: hashed, the block unchanged.
  EXPECT_EQ(g.AddNode({1, 5, 4}), 6);
  EXPECT_EQ(g.hashed_node_count(), 2u);

  // A chain one of whose ops was named first is interned key by key.
  EXPECT_EQ(g.AddNode({2, 7, 1}), 7);
  g.AddChain(2, 7, 2);
  EXPECT_EQ(g.FindNode({2, 7, 0}), 8);
  EXPECT_EQ(g.FindNode({2, 7, 1}), 7);
  EXPECT_EQ(g.FindNode({2, 7, kOpNumInf}), 10);
  EXPECT_EQ(g.hashed_node_count(), 6u);

  // Declared twice: the second declaration names no new node.
  g.AddChain(1, 5, 3);
  EXPECT_EQ(g.node_count(), 11u);
  EXPECT_EQ(g.edge_count(), 4u + 3u + 4u);
  EXPECT_EQ(g.KeyOf(10), (NodeKey{2, 7, kOpNumInf}));
  EXPECT_EQ(g.KeyOf(6), (NodeKey{1, 5, 4}));
  EXPECT_FALSE(g.HasCycle());
}

// --- The verifier's graph ------------------------------------------------------

ServerRunResult Record(const AppSpec& app, const std::string& name, WorkloadKind kind,
                       size_t requests) {
  WorkloadConfig wl;
  wl.app = name;
  wl.kind = kind;
  wl.requests = requests;
  ServerConfig config;
  config.concurrency = 8;
  Server server(*app.program, config);
  return server.Run(GenerateWorkload(wl));
}

AuditResult FeedAll(AuditSession* session, const EpochSlices& slices, size_t from = 0) {
  for (size_t i = from; i < slices.segments.size(); ++i) {
    session->FeedEpoch(slices.segments[i]);
  }
  return session->Finish(/*fed_all=*/true);
}

// The verdict line `karousos audit` prints.
std::string VerdictLine(const AuditResult& r) {
  if (!r.accepted) {
    return "REJECTED: " + r.reason;
  }
  return "ACCEPTED: " + std::to_string(r.stats.group_lane_total) + " requests in " +
         std::to_string(r.stats.groups) + " groups, " +
         std::to_string(r.stats.handler_executions) + " handler executions, G = " +
         std::to_string(r.stats.graph_nodes) + " nodes / " +
         std::to_string(r.stats.graph_edges) + " edges";
}

// The keys an honest audit must hash, counted from the inputs: every key
// that is no op of a request's handler (arrival, delivery, the
// time-precedence markers, the init run's ops), plus every key of a chain
// whose PUT a GET of an earlier epoch named before the chain's epoch came.
size_t ExpectedHashedNodes(const DirectedGraph& g, const Advice& advice,
                           uint64_t epoch_requests) {
  constexpr uint64_t kMarkerRid = ~uint64_t{0};  // The markers' first word.
  size_t loose = 0;
  for (size_t i = 0; i < g.node_count(); ++i) {
    const NodeKey key = g.KeyOf(static_cast<DirectedGraph::NodeId>(i));
    if (key.b == kNoHandler || key.a == kMarkerRid || key.a == kInitRequestId) {
      ++loose;
    }
  }
  std::set<std::pair<RequestId, HandlerId>> forward_named;
  for (const auto& [txn, log] : advice.tx_logs) {
    for (const TxOperation& op : log) {
      if (op.type != TxOpType::kGet || !op.get_found ||
          EpochOfRid(op.get_from.rid, epoch_requests) <= EpochOfRid(txn.rid, epoch_requests)) {
        continue;
      }
      const TransactionLog& writer_log =
          advice.tx_logs.at(TxnKey{op.get_from.rid, op.get_from.tid});
      forward_named.insert({op.get_from.rid, writer_log[op.get_from.index - 1].hid});
    }
  }
  for (const auto& chain : forward_named) {
    loose += advice.opcounts.at(chain) + 2;
  }
  return loose;
}

// A silent fall back to key-by-key interning would hash op nodes and show
// here; so would a change to the ids a chain block hands out, through KeyOf.
TEST(GraphChainTest, HonestAuditsHashOnlyLooseNodes) {
  struct Case {
    const char* app;
    WorkloadKind kind;
  };
  for (const Case& c : {Case{"stacks", WorkloadKind::kMixed},
                        Case{"auction", WorkloadKind::kAuctionMix}}) {
    AppSpec app = std::string(c.app) == "stacks" ? MakeStacksApp() : MakeAuctionApp();
    ServerRunResult run = Record(app, c.app, c.kind, 80);
    for (uint64_t epoch_requests : {uint64_t{0}, uint64_t{3}, uint64_t{9}}) {
      SCOPED_TRACE(std::string(c.app) + " epoch size " + std::to_string(epoch_requests));
      VerifierConfig config{IsolationLevel::kSerializable, 1};
      AuditSession session(*app.program, config, epoch_requests);
      AuditResult result =
          FeedAll(&session, SliceRun(run.trace, run.advice, epoch_requests));
      ASSERT_TRUE(result.accepted) << result.reason;
      const DirectedGraph& g = session.graph();
      EXPECT_EQ(result.stats.graph_hashed_nodes, g.hashed_node_count());
      EXPECT_EQ(g.hashed_node_count(), ExpectedHashedNodes(g, run.advice, epoch_requests));
      // Chain blocks hold most of the graph.
      EXPECT_LT(2 * g.hashed_node_count(), g.node_count());
    }
  }
}

uint64_t DigestOfBytes(const std::vector<uint8_t>& bytes) {
  Digest d;
  d.Update(std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  return d.Finish();
}

// A checkpoint after every epoch of an honest stacks run: its payloads are the
// ones the key-by-key graph wrote (digests below of the whole file, checkpoint
// format v6 in a segment container of format 3), restoring and
// saving again gives them back, and the resumed audit ends with the
// uninterrupted audit's verdict line and the same hashed-node count, so
// Restore re-forms the chain blocks.
TEST(GraphChainTest, CheckpointAfterEveryEpochKeepsBytesAndLayout) {
  constexpr uint64_t kEpochSize = 7;
  constexpr uint64_t kDigests[] = {
      0x7fdf2a8c7dafb54aULL, 0xba7c70d9fd543e96ULL, 0x2d356d1e857239d5ULL,
      0xa31ce17272ea30bcULL, 0xafa261b52debb184ULL, 0x59afc13b13803babULL,
      0x91485060d8f9aae1ULL, 0x6654b51bb98d428fULL, 0xac0b958979718bc4ULL,
  };
  AppSpec app = MakeStacksApp();
  ServerRunResult run = Record(app, "stacks", WorkloadKind::kMixed, 60);
  const EpochSlices slices = SliceRun(run.trace, run.advice, kEpochSize);
  ASSERT_EQ(slices.segments.size(), std::size(kDigests));
  VerifierConfig config{IsolationLevel::kSerializable, 1};

  AuditSession uninterrupted(*app.program, config, kEpochSize);
  const AuditResult oracle = FeedAll(&uninterrupted, slices);
  ASSERT_TRUE(oracle.accepted) << oracle.reason;

  AuditSession session(*app.program, config, kEpochSize);
  for (size_t k = 0; k < slices.segments.size(); ++k) {
    SCOPED_TRACE("after epoch " + std::to_string(k));
    ASSERT_TRUE(session.FeedEpoch(slices.segments[k]));
    const std::vector<uint8_t> bytes = session.SaveCheckpoint();
    EXPECT_EQ(DigestOfBytes(bytes), kDigests[k]);
    std::string error;
    auto resumed = AuditSession::Restore(*app.program, config, bytes, &error);
    ASSERT_NE(resumed, nullptr) << error;
    EXPECT_EQ(resumed->SaveCheckpoint(), bytes);
    EXPECT_EQ(resumed->graph().hashed_node_count(), session.graph().hashed_node_count());
    const AuditResult finished = FeedAll(resumed.get(), slices, k + 1);
    EXPECT_EQ(VerdictLine(finished), VerdictLine(oracle));
    EXPECT_EQ(finished.stats.graph_hashed_nodes, oracle.stats.graph_hashed_nodes);
  }
}

}  // namespace
}  // namespace karousos
