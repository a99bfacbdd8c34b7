// KSEG mutation fuzzer: every semantic mutation of a segment stream must be
// rejected — by the static model checker or by the full audit — and neither
// may crash on any of them. Where both the checker and the audit name a rule,
// they must name the same one (the pre-screen *is* the audit's static half).
//
// Corpus: src/analysis/kseg_mutate.h over one honest run per seed family —
// the nine adversarial seeds from tests/epoch_audit_test.cc, cross-epoch
// slice defects, byte-level frame damage against every frame of both streams,
// codec damage (flag tampering, fixed-up truncation, declared-size lies)
// against the storage-class compressed encoding of the same run, and patch
// damage (one malformed var-log patch per resolver refusal spliced into a
// raw frame, plus a forged value behind a well-formed patch). Two workload
// families:
//
//   * stacks  — the original handler-tree/KV workload;
//   * auction — hot-key contention: aborted transactions, retries, and
//               transactions spanning event (and epoch) boundaries give the
//               advice a different shape, so frame- and slice-level damage
//               lands on different structures.
//
// A third family ("shard", src/analysis/shard_mutate.h) attacks the shard
// axis: byte and boundary-manifest damage against encoded shard files, and
// merge-only artifact tampering where every shard passes individually — the
// whole load → audit-shard → audit-merge pipeline must reject each one.
//
// Prints one summary line per family (with a per-mutation-kind breakdown)
// plus a JSON blob with per-family, per-kind, and total static-catch
// fractions (consumed by bench/check_overhead.cc's fuzz row). Exits nonzero
// with a "BUG:" line on any violated invariant. Both the raw and the
// fully-compressed encodings of each honest run must be accepted — the
// compressed control guards the codec family's rejections from being "the
// decoder is just broken".
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "src/analysis/check.h"
#include "src/analysis/kseg_mutate.h"
#include "src/analysis/shard_mutate.h"
#include "src/apps/app.h"
#include "src/audit/stream.h"
#include "src/server/server.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

struct Family {
  const char* name;
  WorkloadKind kind;
  size_t requests;
  int concurrency;
  uint64_t epoch_size;
  size_t min_mutations;
  // Floor on the static-catch fraction; the acceptance bar for the family.
  double min_static_fraction;
};

constexpr Family kFamilies[] = {
    {"stacks", WorkloadKind::kMixed, 63, 6, 7, 200, 0.90},
    {"auction", WorkloadKind::kAuctionMix, 72, 12, 8, 200, 0.90},
};

struct MutationKindStats {
  size_t mutations = 0;
  size_t caught_static = 0;

  double fraction() const {
    return mutations == 0 ? 0.0
                          : static_cast<double>(caught_static) / static_cast<double>(mutations);
  }
};

struct FamilyStats {
  std::string name;
  size_t mutations = 0;
  size_t caught_static = 0;
  size_t rule_matched = 0;
  size_t bugs = 0;
  // Keyed by the mutation-name prefix (component/slice/frame/codec), in
  // first-seen order so the JSON is deterministic.
  std::vector<std::pair<std::string, MutationKindStats>> by_kind;

  MutationKindStats* Kind(const std::string& mutation_name) {
    const size_t colon = mutation_name.find(':');
    const std::string prefix =
        colon == std::string::npos ? mutation_name : mutation_name.substr(0, colon);
    for (auto& [kind_name, kind_stats] : by_kind) {
      if (kind_name == prefix) {
        return &kind_stats;
      }
    }
    by_kind.emplace_back(prefix, MutationKindStats{});
    return &by_kind.back().second;
  }

  double fraction() const {
    return mutations == 0 ? 0.0
                          : static_cast<double>(caught_static) / static_cast<double>(mutations);
  }
};

FamilyStats RunFamily(const Family& family) {
  FamilyStats stats;
  stats.name = family.name;

  AppSpec app = MakeApp(family.name).value();
  WorkloadConfig wl;
  wl.app = family.name;
  wl.kind = family.kind;
  wl.requests = family.requests;
  wl.seed = 7;
  wl.connections = family.concurrency;
  ServerConfig server_config;
  server_config.concurrency = family.concurrency;
  server_config.seed = 7;
  Server server(*app.program, server_config);
  ServerRunResult run = server.Run(GenerateWorkload(wl));

  VerifierConfig audit_config{IsolationLevel::kSerializable, 1};

  // Control: the unmutated stream must be statically clean and audit-accepted,
  // or every "rejected" result below would be meaningless.
  EpochSlices honest = SliceRun(run.trace, run.advice, family.epoch_size);
  std::vector<uint8_t> honest_trace = EncodeTraceSegments(honest);
  std::vector<uint8_t> honest_advice = EncodeAdviceSegments(honest);
  CheckResult honest_check =
      CheckSegmentStreams(honest_trace, honest_advice, family.epoch_size);
  if (!honest_check.ok) {
    std::printf("BUG: [%s] honest stream fails the model check: %s\n", family.name,
                honest_check.reason.c_str());
    ++stats.bugs;
    return stats;
  }
  StreamAuditResult honest_audit =
      AuditSegments(app, honest_trace, honest_advice, audit_config);
  if (!honest_audit.audit.accepted) {
    std::printf("BUG: [%s] honest stream rejected by the audit: %s\n", family.name,
                honest_audit.audit.reason.c_str());
    ++stats.bugs;
    return stats;
  }
  // Second control, for the codec mutation family: the same run compressed
  // with every storage-class stage must still check clean and audit-accept.
  std::vector<uint8_t> packed_trace = EncodeTraceSegments(honest, KsegCompression::All());
  std::vector<uint8_t> packed_advice = EncodeAdviceSegments(honest, KsegCompression::All());
  CheckResult packed_check =
      CheckSegmentStreams(packed_trace, packed_advice, family.epoch_size);
  if (!packed_check.ok) {
    std::printf("BUG: [%s] compressed honest stream fails the model check: %s\n", family.name,
                packed_check.reason.c_str());
    ++stats.bugs;
    return stats;
  }
  StreamAuditResult packed_audit =
      AuditSegments(app, packed_trace, packed_advice, audit_config);
  if (!packed_audit.audit.accepted) {
    std::printf("BUG: [%s] compressed honest stream rejected by the audit: %s\n", family.name,
                packed_audit.audit.reason.c_str());
    ++stats.bugs;
    return stats;
  }

  std::vector<KsegMutation> corpus =
      BuildMutationCorpus(run.trace, run.advice, family.epoch_size);
  if (corpus.size() < family.min_mutations) {
    std::printf("BUG: [%s] corpus holds only %zu mutations (need >= %zu)\n", family.name,
                corpus.size(), family.min_mutations);
    ++stats.bugs;
    return stats;
  }
  stats.mutations = corpus.size();

  for (const KsegMutation& m : corpus) {
    MutationKindStats* kind = stats.Kind(m.name);
    ++kind->mutations;
    CheckResult check;
    try {
      check = CheckSegmentStreams(m.trace_bytes, m.advice_bytes);
    } catch (const std::exception& e) {
      std::printf("BUG: [%s] %s: model check crashed: %s\n", family.name, m.name.c_str(),
                  e.what());
      ++stats.bugs;
      continue;
    }
    StreamAuditResult audited;
    try {
      audited = AuditSegments(app, m.trace_bytes, m.advice_bytes, audit_config);
    } catch (const std::exception& e) {
      std::printf("BUG: [%s] %s: audit crashed: %s\n", family.name, m.name.c_str(), e.what());
      ++stats.bugs;
      continue;
    }
    if (audited.audit.accepted) {
      std::printf("BUG: [%s] %s: audit ACCEPTED a mutated stream\n", family.name,
                  m.name.c_str());
      ++stats.bugs;
      continue;
    }
    if (!check.ok) {
      ++stats.caught_static;
      ++kind->caught_static;
      // The fast-reject contract: where both sides name a rule, the static
      // verdict is the one the audit reports — the pre-screen fired before
      // any replay could.
      if (!check.rule.empty() && !audited.audit.rule.empty()) {
        if (check.rule != audited.audit.rule) {
          std::printf("BUG: [%s] %s: rule mismatch (check %s vs audit %s)\n", family.name,
                      m.name.c_str(), check.rule.c_str(), audited.audit.rule.c_str());
          ++stats.bugs;
          continue;
        }
        ++stats.rule_matched;
      }
    }
  }

  if (stats.fraction() < family.min_static_fraction) {
    std::printf("BUG: [%s] static catch %.1f%% below the %.0f%% floor\n", family.name,
                100.0 * stats.fraction(), 100.0 * family.min_static_fraction);
    ++stats.bugs;
  }
  std::printf("kseg_fuzz[%s]: %zu mutations, %zu rejected statically (%.1f%%), "
              "%zu rule-matched, %zu bugs\n",
              family.name, stats.mutations, stats.caught_static, 100.0 * stats.fraction(),
              stats.rule_matched, stats.bugs);
  for (const auto& [kind, ks] : stats.by_kind) {
    std::printf("  %-10s %4zu mutations, %4zu static (%.1f%%)\n", kind.c_str(), ks.mutations,
                ks.caught_static, 100.0 * ks.fraction());
  }
  return stats;
}

// The shard-axis family: the corpus of src/analysis/shard_mutate.h over a
// stacks run sharded two ways. "Static" here means the rejection carries a
// KAR-SEG rule — the load/merge structural layer caught it without (or
// before) any re-execution deciding.
FamilyStats RunShardFamily() {
  FamilyStats stats;
  stats.name = "shard";

  AppSpec app = MakeStacksApp();
  WorkloadConfig wl;
  wl.app = "stacks";
  wl.kind = WorkloadKind::kMixed;
  wl.requests = 63;
  wl.seed = 7;
  wl.connections = 6;
  ServerConfig server_config;
  server_config.concurrency = 6;
  server_config.seed = 7;
  Server server(*app.program, server_config);
  ServerRunResult run = server.Run(GenerateWorkload(wl));

  std::vector<ShardMutationOutcome> outcomes = RunShardMutationCorpus(
      *app.program, run.trace, run.advice, 7, ShardSpec{2, ShardMode::kHash});
  for (const ShardMutationOutcome& o : outcomes) {
    if (o.name.rfind("control:", 0) == 0) {
      if (o.crashed || o.rejected) {
        std::printf("BUG: [shard] %s: honest control %s: %s\n", o.name.c_str(),
                    o.crashed ? "crashed" : "rejected", o.reason.c_str());
        ++stats.bugs;
      }
      continue;
    }
    MutationKindStats* kind = stats.Kind(o.name);
    ++stats.mutations;
    ++kind->mutations;
    if (o.crashed) {
      std::printf("BUG: [shard] %s: pipeline crashed: %s\n", o.name.c_str(), o.reason.c_str());
      ++stats.bugs;
      continue;
    }
    if (!o.rejected) {
      std::printf("BUG: [shard] %s: pipeline ACCEPTED a mutated input\n", o.name.c_str());
      ++stats.bugs;
      continue;
    }
    if (!o.rule.empty()) {
      ++stats.caught_static;
      ++kind->caught_static;
    }
  }

  constexpr size_t kMinMutations = 60;
  if (stats.mutations < kMinMutations) {
    std::printf("BUG: [shard] corpus holds only %zu mutations (need >= %zu)\n", stats.mutations,
                kMinMutations);
    ++stats.bugs;
  }
  constexpr double kMinStaticFraction = 0.90;
  if (stats.fraction() < kMinStaticFraction) {
    std::printf("BUG: [shard] static catch %.1f%% below the %.0f%% floor\n",
                100.0 * stats.fraction(), 100.0 * kMinStaticFraction);
    ++stats.bugs;
  }
  std::printf("kseg_fuzz[shard]: %zu mutations, %zu rejected with a KAR-SEG rule (%.1f%%), "
              "%zu bugs\n",
              stats.mutations, stats.caught_static, 100.0 * stats.fraction(), stats.bugs);
  for (const auto& [kind, ks] : stats.by_kind) {
    std::printf("  %-10s %4zu mutations, %4zu static (%.1f%%)\n", kind.c_str(), ks.mutations,
                ks.caught_static, 100.0 * ks.fraction());
  }
  return stats;
}

int Run() {
  std::vector<FamilyStats> all;
  size_t total_mutations = 0;
  size_t total_caught = 0;
  size_t total_bugs = 0;
  for (const Family& family : kFamilies) {
    all.push_back(RunFamily(family));
    total_mutations += all.back().mutations;
    total_caught += all.back().caught_static;
    total_bugs += all.back().bugs;
  }
  all.push_back(RunShardFamily());
  total_mutations += all.back().mutations;
  total_caught += all.back().caught_static;
  total_bugs += all.back().bugs;

  double fraction = total_mutations == 0
                        ? 0.0
                        : static_cast<double>(total_caught) / static_cast<double>(total_mutations);
  std::printf("{\"mutations_total\": %zu, \"mutations_caught_static\": %zu, "
              "\"static_catch_fraction\": %.4f, \"families\": {",
              total_mutations, total_caught, fraction);
  for (size_t i = 0; i < all.size(); ++i) {
    std::printf("%s\"%s\": {\"mutations_total\": %zu, \"mutations_caught_static\": %zu, "
                "\"static_catch_fraction\": %.4f, \"by_kind\": {",
                i == 0 ? "" : ", ", all[i].name.c_str(), all[i].mutations,
                all[i].caught_static, all[i].fraction());
    for (size_t k = 0; k < all[i].by_kind.size(); ++k) {
      const auto& [kind, ks] = all[i].by_kind[k];
      std::printf("%s\"%s\": {\"mutations_total\": %zu, \"mutations_caught_static\": %zu, "
                  "\"static_catch_fraction\": %.4f}",
                  k == 0 ? "" : ", ", kind.c_str(), ks.mutations, ks.caught_static,
                  ks.fraction());
    }
    std::printf("}}");
  }
  std::printf("}}\n");
  return total_bugs == 0 ? 0 : 1;
}

}  // namespace
}  // namespace karousos

int main() { return karousos::Run(); }
