// Shard-axis mutation catalog, shared by the mutation fuzzer
// (tools/kseg_fuzz.cc) and the static-check bench: every semantic mutation of
// the sharded-audit pipeline's inputs — shard file bytes, boundary-manifest
// allegations, and post-audit verdict artifacts — must be rejected somewhere
// in load → per-shard audit → merge, and nothing may crash. Three families:
//
//   * file     — byte-level damage (flips, truncations) against one encoded
//     shard file: the container CRC/framing layer's turf (KAR-SEG-001..003);
//   * boundary — semantic lies in the kShardBoundary manifest, re-encoded
//     over honest content (dropped/ghost rids, epoch count, position and
//     write-order total tampering, dropped export obligations): caught at
//     load (KAR-SEG-011) or at merge (KAR-SEG-012..015);
//   * artifact — merge-only adversaries: every shard passes individually, the
//     verdict artifacts are tampered afterwards (stolen rids, duplicated
//     stitch positions, totals lies, split groups, missing/duplicated
//     artifacts, artifact byte damage). Only MergeShardArtifacts or the
//     artifact loader can see these.
//
// Unlike kseg_mutate.h this module evaluates the corpus too: a mutation's
// rejection point (load, audit, or merge) is part of what the fuzzer checks,
// and the pipeline is cheap enough to run inline.
#ifndef SRC_ANALYSIS_SHARD_MUTATE_H_
#define SRC_ANALYSIS_SHARD_MUTATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/server/advice.h"
#include "src/server/shard.h"
#include "src/trace/trace.h"

namespace karousos {

class Program;

struct ShardMutationOutcome {
  std::string name;   // family:detail, e.g. "boundary:write-order-total+1".
  bool rejected = false;
  bool crashed = false;
  std::string stage;  // Where the pipeline stopped: "load", "audit", "merge".
  std::string rule;   // The rejection's rule ("" for a dynamic reason).
  std::string reason;
};

// Builds and evaluates the shard mutation corpus over one honest run,
// sharded spec.count ways at epoch_requests. Deterministic. The first
// outcome is the honest control ("control:honest"), which must come back
// rejected == false; every other outcome must be rejected without a crash.
std::vector<ShardMutationOutcome> RunShardMutationCorpus(const Program& program,
                                                         const Trace& trace,
                                                         const Advice& advice,
                                                         uint64_t epoch_requests,
                                                         const ShardSpec& spec);

}  // namespace karousos

#endif  // SRC_ANALYSIS_SHARD_MUTATE_H_
