// Directed graph with iterative cycle detection, for the verifier's
// execution graph G (§4.3) and the Adya dependency graph DG/DSG (§4.4).
//
// Node keys are 3-tuples of 64-bit words, which covers both node spaces:
//   - G:  (rid, hid, opnum), with (rid, 0, 0) = request arrival and
//         (rid, 0, kOpNumInf) = response delivery;
//   - DG: (rid, tid, 0) per committed transaction.
// Ids are handed out densely, in the order keys are first named, and every
// key keeps its id for the graph's life.
//
// Two ways to name a node:
//   - AddChain declares a handler's whole op chain (a, b, 0..count) plus
//     (a, b, kOpNumInf) at once. It gets one contiguous id block, recorded
//     as (a, b) -> {base, count}: no key is hashed or stored, and the
//     chain's edges go in as id pairs. G's program chains are nearly all of
//     its nodes.
//   - AddNode interns any other ("hashed") key: request arrival, response
//     delivery, time-precedence markers, an op outside its chain's range,
//     and an op named before its chain is declared (a GET's writer that a
//     later epoch contributes). A chain with such a forward-named key, or
//     declared twice, is interned key by key, so every id is the one
//     interning each key in order would give. A graph that declares no chain
//     (DG, the write-order lint's graph) is a plain intern table.
// KeyOf maps an id back to its key: a binary search over the chain bases,
// then the block's arithmetic or the hashed key list.
//
// Edges accumulate in a flat edge list; adjacency is materialized lazily as a
// CSR (offset + target arrays) the first time a traversal needs it, via a
// stable counting sort, so each node's neighbor order is edge insertion order
// and DFS traversal order (and therefore cycle diagnostics) follows it.
#ifndef SRC_COMMON_GRAPH_H_
#define SRC_COMMON_GRAPH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/ids.h"

namespace karousos {

struct NodeKey {
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;

  friend bool operator==(const NodeKey&, const NodeKey&) = default;

  static NodeKey ForOp(const OpRef& op) { return {op.rid, op.hid, op.opnum}; }
  static NodeKey ForRequestArrival(RequestId rid) { return {rid, 0, 0}; }
  static NodeKey ForResponseDelivery(RequestId rid) { return {rid, 0, kOpNumInf}; }
  static NodeKey ForTxn(RequestId rid, TxId tid) { return {rid, tid, 0}; }
};

struct NodeKeyHash {
  size_t operator()(const NodeKey& k) const {
    return static_cast<size_t>(HashMix64(HashMix64(SplitMix64(k.a), k.b), k.c));
  }
};

class DirectedGraph {
 public:
  using NodeId = int32_t;

  // Interns the key, creating the node if absent.
  NodeId AddNode(const NodeKey& key);

  // Returns the node id if the key has been named, nullopt otherwise.
  std::optional<NodeId> FindNode(const NodeKey& key) const;

  bool HasNode(const NodeKey& key) const { return FindNode(key).has_value(); }

  // Names the chain (a, b, 0), (a, b, 1), ..., (a, b, count), (a, b,
  // kOpNumInf) and adds an edge between each consecutive pair: the same ids
  // and edges as AddNode on each key in order plus one AddEdge per pair.
  // Requires count < kOpNumInf.
  void AddChain(uint64_t a, uint64_t b, uint32_t count);

  // AddChain without the edges, for replaying a saved graph whose edge list
  // is stored apart. Returns the id of (a, b, 0).
  NodeId AddChainNodes(uint64_t a, uint64_t b, uint32_t count);

  // Adds a directed edge, interning endpoints as needed. Self-loops are kept
  // (they are cycles and must be detected). Parallel edges are deduplicated
  // lazily during cycle detection, not on insert.
  void AddEdge(const NodeKey& from, const NodeKey& to);
  void AddEdge(NodeId from, NodeId to);

  // Pre-sizes the edge list for a replay that knows its edge count.
  void ReserveEdges(size_t m);

  size_t node_count() const { return node_count_; }
  size_t edge_count() const { return edges_.size(); }
  // Nodes named through AddNode rather than a chain block: the ones that
  // cost a hash-table entry and a stored key.
  size_t hashed_node_count() const { return keys_.size(); }

  NodeKey KeyOf(NodeId id) const;

  // Raw edge list in insertion order. Exposed for checkpoint serialization:
  // re-adding nodes in id order and edges in this order reconstructs a graph
  // with identical ids, traversal order, and cycle diagnostics.
  const std::vector<std::pair<NodeId, NodeId>>& edges() const { return edges_; }

  // True iff the graph contains a directed cycle. Iterative three-color DFS;
  // safe for graphs with millions of nodes (no recursion).
  bool HasCycle() const;

  // If a cycle exists, returns one cycle as a sequence of node keys
  // (first == last); otherwise returns an empty vector. For diagnostics.
  std::vector<NodeKey> FindCycle() const;

 private:
  // One chain's id block: (a, b, i) is base + i for i <= count, and
  // (a, b, kOpNumInf) is base + count + 1.
  struct Chain {
    uint64_t a = 0;
    uint64_t b = 0;
    NodeId base = 0;
    uint32_t count = 0;
    uint32_t hashed_before = 0;  // keys_ entries named before the block.
  };
  // chain_of_ value for a prefix with a hashed key but no block.
  static constexpr uint32_t kHashedPrefix = UINT32_MAX;

  // The id of (chain.a, chain.b, opnum) inside the block, if it lies there.
  static std::optional<NodeId> BlockId(const Chain& chain, uint64_t opnum);
  // Gives a chain a fresh block; nullopt when a key with its prefix was
  // named before (the chain is then interned key by key).
  std::optional<NodeId> DeclareChain(uint64_t a, uint64_t b, uint32_t count);
  NodeId InternChain(uint64_t a, uint64_t b, uint32_t count, bool link);
  NodeId Intern(const NodeKey& key);

  // Rebuilds the CSR arrays if edges were added since the last build.
  void EnsureCsr() const;

  size_t node_count_ = 0;
  // Hashed nodes, keys_ in id order.
  FlatMap<NodeKey, NodeId, NodeKeyHash> intern_;
  std::vector<NodeKey> keys_;
  // Chain blocks in id order, and each (a, b) prefix's index among them (or
  // kHashedPrefix). chain_of_ stays empty until the first chain is declared.
  std::vector<Chain> chains_;
  FlatMap<std::pair<uint64_t, uint64_t>, uint32_t> chain_of_;
  std::vector<std::pair<NodeId, NodeId>> edges_;

  // Lazily-built CSR adjacency: neighbors of node v are
  // csr_targets_[csr_offsets_[v] .. csr_offsets_[v+1]).
  mutable std::vector<size_t> csr_offsets_;
  mutable std::vector<NodeId> csr_targets_;
  mutable size_t csr_built_edges_ = 0;
  mutable size_t csr_built_nodes_ = 0;
};

}  // namespace karousos

#endif  // SRC_COMMON_GRAPH_H_
