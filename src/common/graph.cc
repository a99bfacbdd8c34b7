#include "src/common/graph.h"

#include <algorithm>
#include <iterator>

namespace karousos {

std::optional<DirectedGraph::NodeId> DirectedGraph::BlockId(const Chain& chain,
                                                            uint64_t opnum) {
  if (opnum <= chain.count) {
    return chain.base + static_cast<NodeId>(opnum);
  }
  if (opnum == kOpNumInf) {
    return chain.base + static_cast<NodeId>(chain.count) + 1;
  }
  return std::nullopt;
}

DirectedGraph::NodeId DirectedGraph::Intern(const NodeKey& key) {
  auto [it, inserted] = intern_.emplace(key, static_cast<NodeId>(node_count_));
  if (inserted) {
    keys_.push_back(key);
    ++node_count_;
  }
  return it->second;
}

DirectedGraph::NodeId DirectedGraph::AddNode(const NodeKey& key) {
  if (!chain_of_.empty()) {
    // One probe both finds the key's block and, for a prefix with none,
    // marks it so a later AddChain for it interns key by key.
    auto [it, inserted] = chain_of_.emplace({key.a, key.b}, kHashedPrefix);
    if (!inserted && it->second != kHashedPrefix) {
      if (std::optional<NodeId> id = BlockId(chains_[it->second], key.c)) {
        return *id;
      }
    }
  }
  return Intern(key);
}

std::optional<DirectedGraph::NodeId> DirectedGraph::FindNode(const NodeKey& key) const {
  auto chain = chain_of_.find({key.a, key.b});
  if (chain != chain_of_.end() && chain->second != kHashedPrefix) {
    if (std::optional<NodeId> id = BlockId(chains_[chain->second], key.c)) {
      return id;
    }
  }
  auto it = intern_.find(key);
  if (it == intern_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<DirectedGraph::NodeId> DirectedGraph::DeclareChain(uint64_t a, uint64_t b,
                                                                 uint32_t count) {
  if (chain_of_.empty()) {
    // The first chain: mark the prefixes of the keys hashed so far.
    for (const NodeKey& key : keys_) {
      chain_of_.emplace({key.a, key.b}, kHashedPrefix);
    }
  }
  auto [it, inserted] = chain_of_.emplace({a, b}, static_cast<uint32_t>(chains_.size()));
  if (!inserted) {
    return std::nullopt;
  }
  const auto base = static_cast<NodeId>(node_count_);
  chains_.push_back(Chain{a, b, base, count, static_cast<uint32_t>(keys_.size())});
  node_count_ += static_cast<size_t>(count) + 2;
  return base;
}

DirectedGraph::NodeId DirectedGraph::InternChain(uint64_t a, uint64_t b, uint32_t count,
                                                 bool link) {
  if (std::optional<NodeId> base = DeclareChain(a, b, count)) {
    if (link) {
      for (NodeId id = *base; id <= *base + static_cast<NodeId>(count); ++id) {
        edges_.emplace_back(id, id + 1);
      }
    }
    return *base;
  }
  const NodeId first = AddNode({a, b, 0});
  NodeId prev = first;
  for (uint64_t opnum = 1; opnum <= count; ++opnum) {
    NodeId node = AddNode({a, b, opnum});
    if (link) {
      AddEdge(prev, node);
    }
    prev = node;
  }
  NodeId exit = AddNode({a, b, kOpNumInf});
  if (link) {
    AddEdge(prev, exit);
  }
  return first;
}

void DirectedGraph::AddChain(uint64_t a, uint64_t b, uint32_t count) {
  InternChain(a, b, count, /*link=*/true);
}

DirectedGraph::NodeId DirectedGraph::AddChainNodes(uint64_t a, uint64_t b, uint32_t count) {
  return InternChain(a, b, count, /*link=*/false);
}

NodeKey DirectedGraph::KeyOf(NodeId id) const {
  // The last block that starts at or before id.
  auto next = std::upper_bound(chains_.begin(), chains_.end(), id,
                               [](NodeId v, const Chain& c) { return v < c.base; });
  if (next == chains_.begin()) {
    return keys_[static_cast<size_t>(id)];
  }
  const Chain& chain = *std::prev(next);
  const auto offset = static_cast<uint64_t>(id - chain.base);
  if (offset <= chain.count) {
    return {chain.a, chain.b, offset};
  }
  if (offset == uint64_t{chain.count} + 1) {
    return {chain.a, chain.b, kOpNumInf};
  }
  return keys_[chain.hashed_before + (offset - chain.count - 2)];
}

void DirectedGraph::AddEdge(const NodeKey& from, const NodeKey& to) {
  AddEdge(AddNode(from), AddNode(to));
}

void DirectedGraph::AddEdge(NodeId from, NodeId to) {
  edges_.emplace_back(from, to);
}

void DirectedGraph::ReserveEdges(size_t m) { edges_.reserve(m); }

void DirectedGraph::EnsureCsr() const {
  if (csr_built_edges_ == edges_.size() && csr_built_nodes_ == node_count_) {
    return;
  }
  const size_t n = node_count_;
  // Stable counting sort of the edge list by source node: per-node neighbor
  // order equals edge insertion order, so DFS visits children in the same
  // order the old per-node vectors produced.
  csr_offsets_.assign(n + 1, 0);
  for (const auto& [from, to] : edges_) {
    ++csr_offsets_[static_cast<size_t>(from) + 1];
  }
  for (size_t v = 0; v < n; ++v) {
    csr_offsets_[v + 1] += csr_offsets_[v];
  }
  csr_targets_.resize(edges_.size());
  std::vector<size_t> cursor(csr_offsets_.begin(), csr_offsets_.end() - 1);
  for (const auto& [from, to] : edges_) {
    csr_targets_[cursor[static_cast<size_t>(from)]++] = to;
  }
  csr_built_edges_ = edges_.size();
  csr_built_nodes_ = node_count_;
}

namespace {

enum class Color : uint8_t { kWhite, kGray, kBlack };

}  // namespace

bool DirectedGraph::HasCycle() const {
  EnsureCsr();
  const size_t n = node_count_;
  std::vector<Color> color(n, Color::kWhite);
  // Explicit stack of (node, next-neighbor-cursor) frames; the cursor indexes
  // straight into csr_targets_.
  std::vector<std::pair<NodeId, size_t>> stack;
  for (size_t root = 0; root < n; ++root) {
    if (color[root] != Color::kWhite) {
      continue;
    }
    stack.emplace_back(static_cast<NodeId>(root), csr_offsets_[root]);
    color[root] = Color::kGray;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      if (next < csr_offsets_[static_cast<size_t>(node) + 1]) {
        NodeId child = csr_targets_[next++];
        if (color[static_cast<size_t>(child)] == Color::kGray) {
          return true;
        }
        if (color[static_cast<size_t>(child)] == Color::kWhite) {
          color[static_cast<size_t>(child)] = Color::kGray;
          stack.emplace_back(child, csr_offsets_[static_cast<size_t>(child)]);
        }
      } else {
        color[static_cast<size_t>(node)] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  return false;
}

std::vector<NodeKey> DirectedGraph::FindCycle() const {
  EnsureCsr();
  const size_t n = node_count_;
  std::vector<Color> color(n, Color::kWhite);
  std::vector<std::pair<NodeId, size_t>> stack;
  for (size_t root = 0; root < n; ++root) {
    if (color[root] != Color::kWhite) {
      continue;
    }
    stack.emplace_back(static_cast<NodeId>(root), csr_offsets_[root]);
    color[root] = Color::kGray;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      if (next < csr_offsets_[static_cast<size_t>(node) + 1]) {
        NodeId child = csr_targets_[next++];
        if (color[static_cast<size_t>(child)] == Color::kGray) {
          // Reconstruct the cycle from the DFS stack: child ... node child.
          std::vector<NodeKey> cycle;
          cycle.push_back(KeyOf(child));
          auto it = std::find_if(stack.begin(), stack.end(),
                                 [child](const auto& f) { return f.first == child; });
          for (; it != stack.end(); ++it) {
            cycle.push_back(KeyOf(it->first));
          }
          cycle.push_back(KeyOf(child));
          // Drop the duplicated leading entry (stack walk re-adds child).
          cycle.erase(cycle.begin());
          return cycle;
        }
        if (color[static_cast<size_t>(child)] == Color::kWhite) {
          color[static_cast<size_t>(child)] = Color::kGray;
          stack.emplace_back(child, csr_offsets_[static_cast<size_t>(child)]);
        }
      } else {
        color[static_cast<size_t>(node)] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  return {};
}

}  // namespace karousos
