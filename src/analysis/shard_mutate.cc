#include "src/analysis/shard_mutate.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "src/verifier/shard_audit.h"
#include "src/verifier/verifier.h"

namespace karousos {
namespace {

constexpr VerifierConfig kAuditConfig{IsolationLevel::kSerializable, 1};

// Runs shard-file bytes through the whole pipeline: load every shard, audit
// every shard, merge. Records where (if anywhere) the pipeline rejected.
ShardMutationOutcome EvalShardFiles(const Program& program, std::string name,
                                    const std::vector<std::vector<uint8_t>>& files) {
  ShardMutationOutcome out;
  out.name = std::move(name);
  try {
    std::vector<ShardArtifact> artifacts;
    for (const std::vector<uint8_t>& bytes : files) {
      ShardLoadResult loaded = LoadShardBytes(bytes);
      if (!loaded.ok) {
        out.rejected = true;
        out.stage = "load";
        out.rule = loaded.rule;
        out.reason = loaded.reason;
        return out;
      }
      ShardArtifact artifact = RunShardAudit(program, loaded.file, kAuditConfig);
      if (!artifact.accepted) {
        out.rejected = true;
        out.stage = "audit";
        out.rule = artifact.rule;
        out.reason = artifact.reason;
        return out;
      }
      artifacts.push_back(std::move(artifact));
    }
    AuditResult merged = MergeShardArtifacts(artifacts);
    if (!merged.accepted) {
      out.rejected = true;
      out.stage = "merge";
      out.rule = merged.rule;
      out.reason = merged.reason;
    }
  } catch (const std::exception& e) {
    out.crashed = true;
    out.reason = e.what();
  }
  return out;
}

ShardMutationOutcome EvalMerge(std::string name, const std::vector<ShardArtifact>& artifacts) {
  ShardMutationOutcome out;
  out.name = std::move(name);
  try {
    AuditResult merged = MergeShardArtifacts(artifacts);
    if (!merged.accepted) {
      out.rejected = true;
      out.stage = "merge";
      out.rule = merged.rule;
      out.reason = merged.reason;
    }
  } catch (const std::exception& e) {
    out.crashed = true;
    out.reason = e.what();
  }
  return out;
}

// Artifact containers through the loader, then (if everything decodes) the
// merge — the audit-merge CLI's exact path.
ShardMutationOutcome EvalArtifactBytes(std::string name,
                                       const std::vector<std::vector<uint8_t>>& encoded) {
  ShardMutationOutcome out;
  out.name = std::move(name);
  try {
    std::vector<ShardArtifact> artifacts;
    for (const std::vector<uint8_t>& bytes : encoded) {
      ShardArtifactLoadResult loaded = LoadShardArtifactBytes(bytes);
      if (!loaded.ok) {
        out.rejected = true;
        out.stage = "load";
        out.rule = loaded.rule;
        out.reason = loaded.reason;
        return out;
      }
      artifacts.push_back(std::move(loaded.artifact));
    }
    AuditResult merged = MergeShardArtifacts(artifacts);
    if (!merged.accepted) {
      out.rejected = true;
      out.stage = "merge";
      out.rule = merged.rule;
      out.reason = merged.reason;
    }
  } catch (const std::exception& e) {
    out.crashed = true;
    out.reason = e.what();
  }
  return out;
}

}  // namespace

std::vector<ShardMutationOutcome> RunShardMutationCorpus(const Program& program,
                                                         const Trace& trace,
                                                         const Advice& advice,
                                                         uint64_t epoch_requests,
                                                         const ShardSpec& spec) {
  std::vector<ShardMutationOutcome> outcomes;

  std::vector<ShardFile> shards = ShardRun(trace, advice, epoch_requests, spec);
  std::vector<std::vector<uint8_t>> honest;
  honest.reserve(shards.size());
  for (const ShardFile& shard : shards) {
    honest.push_back(EncodeShardFile(shard));
  }

  // Controls: the honest encodings (raw and storage-class compressed) must
  // sail through, or every rejection below is meaningless.
  outcomes.push_back(EvalShardFiles(program, "control:honest", honest));
  {
    std::vector<std::vector<uint8_t>> packed;
    packed.reserve(shards.size());
    for (const ShardFile& shard : shards) {
      packed.push_back(EncodeShardFile(shard, KsegCompression::All()));
    }
    outcomes.push_back(EvalShardFiles(program, "control:compressed", packed));
  }

  // --- file: byte damage against shard 0's encoding ------------------------
  {
    const std::vector<uint8_t>& target = honest[0];
    const size_t stride = std::max<size_t>(1, target.size() / 48);
    for (size_t off = 0; off < target.size(); off += stride) {
      std::vector<std::vector<uint8_t>> mutated = honest;
      mutated[0][off] ^= 0xFF;
      outcomes.push_back(
          EvalShardFiles(program, "file:flip@" + std::to_string(off), mutated));
    }
    for (size_t cut : {size_t{1}, target.size() / 4, target.size() / 2,
                       3 * target.size() / 4, target.size() - 1}) {
      std::vector<std::vector<uint8_t>> mutated = honest;
      mutated[0].resize(cut);
      outcomes.push_back(
          EvalShardFiles(program, "file:truncate@" + std::to_string(cut), mutated));
    }
  }

  // --- boundary: semantic manifest lies over honest content ----------------
  auto boundary_case = [&](const std::string& name, auto&& mutate) {
    ShardFile copy = shards[0];
    if (!mutate(copy.boundary)) {
      return;  // Inapplicable to this schedule.
    }
    std::vector<std::vector<uint8_t>> mutated = honest;
    mutated[0] = EncodeShardFile(copy);
    outcomes.push_back(EvalShardFiles(program, "boundary:" + name, mutated));
  };
  boundary_case("drop-last-rid", [](ShardBoundary& b) {
    if (b.rids.empty()) return false;
    b.rids.pop_back();
    return true;
  });
  boundary_case("ghost-rid", [](ShardBoundary& b) {
    if (b.rids.empty()) return false;
    b.rids.push_back(b.rids.back() + 999983);
    return true;
  });
  boundary_case("epochs+1", [](ShardBoundary& b) {
    b.epochs += 1;
    return true;
  });
  boundary_case("write-order-total+1", [](ShardBoundary& b) {
    b.write_order_total += 1;
    return true;
  });
  boundary_case("swap-positions", [](ShardBoundary& b) {
    if (b.write_order_positions.size() < 2) return false;
    std::swap(b.write_order_positions.front(), b.write_order_positions.back());
    return true;
  });
  boundary_case("position-out-of-range", [](ShardBoundary& b) {
    if (b.write_order_positions.empty()) return false;
    b.write_order_positions.back() = b.write_order_total + 17;
    return true;
  });
  boundary_case("drop-export-tx", [](ShardBoundary& b) {
    if (b.export_tx_refs.empty()) return false;
    b.export_tx_refs.pop_back();
    return true;
  });
  boundary_case("drop-export-var", [](ShardBoundary& b) {
    if (b.export_var_refs.empty()) return false;
    b.export_var_refs.pop_back();
    return true;
  });

  // --- artifact: merge-only adversaries over individually-passing shards ---
  std::vector<ShardArtifact> accepted;
  accepted.reserve(shards.size());
  bool all_accepted = true;
  for (const ShardFile& shard : shards) {
    accepted.push_back(RunShardAudit(program, shard, kAuditConfig));
    all_accepted = all_accepted && accepted.back().accepted;
  }
  if (all_accepted && accepted.size() >= 2) {
    auto artifact_case = [&](const std::string& name, auto&& mutate) {
      std::vector<ShardArtifact> copy = accepted;
      if (!mutate(copy)) {
        return;
      }
      outcomes.push_back(EvalMerge("artifact:" + name, copy));
    };
    artifact_case("steal-rid", [](std::vector<ShardArtifact>& a) {
      for (RequestId rid : a[1].rids) {
        if (rid != 0) {
          a[0].rids.insert(std::lower_bound(a[0].rids.begin(), a[0].rids.end(), rid), rid);
          return true;
        }
      }
      return false;
    });
    artifact_case("dup-stitch-position", [](std::vector<ShardArtifact>& a) {
      for (ShardArtifact& art : a) {
        if (art.write_order_positions.size() >= 2) {
          art.write_order_positions[1] = art.write_order_positions[0];
          return true;
        }
      }
      return false;
    });
    artifact_case("stitch-position-oob", [](std::vector<ShardArtifact>& a) {
      for (ShardArtifact& art : a) {
        if (!art.write_order_positions.empty()) {
          art.write_order_positions.back() = art.write_order_total + 3;
          return true;
        }
      }
      return false;
    });
    artifact_case("totals-lie-one", [](std::vector<ShardArtifact>& a) {
      a[1].write_order_total += 1;
      return true;
    });
    artifact_case("totals-lie-all", [](std::vector<ShardArtifact>& a) {
      for (ShardArtifact& art : a) {
        art.write_order_total += 1;
      }
      return true;
    });
    artifact_case("split-group", [](std::vector<ShardArtifact>& a) {
      if (a[0].tags.empty() || a[1].tags.empty()) return false;
      a[0].tags.begin()->second = a[1].tags.begin()->second;
      return true;
    });
    artifact_case("missing-shard", [](std::vector<ShardArtifact>& a) {
      a.pop_back();
      return true;
    });
    artifact_case("duplicate-shard", [](std::vector<ShardArtifact>& a) {
      a[1] = a[0];
      return true;
    });
    artifact_case("count-lie", [](std::vector<ShardArtifact>& a) {
      a[0].count += 1;
      return true;
    });
    artifact_case("isolation-lie", [](std::vector<ShardArtifact>& a) {
      a[0].isolation = IsolationLevel::kReadCommitted;
      return true;
    });

    // Artifact container byte damage: the audit-merge loader's turf.
    std::vector<std::vector<uint8_t>> encoded;
    encoded.reserve(accepted.size());
    for (const ShardArtifact& artifact : accepted) {
      encoded.push_back(EncodeShardArtifact(artifact));
    }
    const std::vector<uint8_t>& target = encoded[0];
    const size_t stride = std::max<size_t>(1, target.size() / 16);
    for (size_t off = 0; off < target.size(); off += stride) {
      std::vector<std::vector<uint8_t>> mutated = encoded;
      mutated[0][off] ^= 0xFF;
      outcomes.push_back(EvalArtifactBytes("artifact:flip@" + std::to_string(off), mutated));
    }
    for (size_t cut : {size_t{1}, target.size() / 2, target.size() - 1}) {
      std::vector<std::vector<uint8_t>> mutated = encoded;
      mutated[0].resize(cut);
      outcomes.push_back(
          EvalArtifactBytes("artifact:truncate@" + std::to_string(cut), mutated));
    }
  }

  return outcomes;
}

}  // namespace karousos
