// Generates tests/fixtures/lint_bad.{trace,advice}: an honest stacks serve
// whose advice is then corrupted in two independent, lint-detectable ways —
//   * one logged read's dictating-write reference is redirected to an
//     operation position that no log entry occupies (KAR-ADV-003), and
//   * the first write-order entry is appended again at the end, turning the
//     alleged total order into a cycle (KAR-ADV-010).
// Both corruptions survive serialization, so `karousos check --epoch-size 0`
// and the verifier's pre-screen must both report them from the checked-in
// files. Regenerate with the `make_lint_fixture` build target.
//
// With a third argument, also emits one segmented known-bad fixture pair per
// KAR-SEG rule under <seg-out-dir>: kar-seg-NNN.{trace,advice}.kseg, each a
// KSEG stream carrying exactly one planted defect that the streaming model
// checker (src/analysis/check.h) must report under that rule. Every pair is
// self-checked through CheckSegmentStreams before it is written.
#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/analysis/check.h"
#include "src/apps/app.h"
#include "src/common/file_io.h"
#include "src/common/segment.h"
#include "src/server/rollover.h"
#include "src/server/server.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

// One byte-identical fixture pair per KAR-SEG rule. The defects are planted
// against one honest segmented run (epoch size 7) and each stream is verified
// to report exactly the expected rule before anything lands on disk.
int EmitSegmentFixtures(const Trace& trace, const Advice& advice, const std::string& dir) {
  constexpr uint64_t kEpochSize = 7;
  const EpochSlices honest = SliceRun(trace, advice, kEpochSize);
  if (honest.segments.size() < 3) {
    std::fprintf(stderr, "need >= 3 epochs for segment fixtures\n");
    return 1;
  }
  const size_t last = honest.segments.size() - 1;
  const std::vector<uint8_t> honest_trace = EncodeTraceSegments(honest);
  const std::vector<uint8_t> honest_advice = EncodeAdviceSegments(honest);

  // Epoch-frame offsets of one encoded stream, past its manifest (for the
  // byte-level recipes).
  auto map_frames = [](const std::vector<uint8_t>& bytes) {
    struct Span {
      uint64_t begin;
      uint64_t end;
      size_t payload_len;
    };
    std::vector<Span> frames;
    std::string error;
    auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
    SegmentRecord rec;
    while (reader != nullptr && reader->Next(&rec)) {
      if (rec.kind == SegmentKind::kEpochManifest) continue;
      if (!frames.empty()) {
        frames.back().end = rec.offset;
      }
      frames.push_back(Span{rec.offset, bytes.size(), rec.payload.size()});
    }
    return frames;
  };

  struct Fixture {
    std::string rule;
    std::vector<uint8_t> trace_bytes;
    std::vector<uint8_t> advice_bytes;
  };
  std::vector<Fixture> fixtures;
  auto add_sliced = [&](const char* rule, const EpochSlices& s) {
    fixtures.push_back(Fixture{rule, EncodeTraceSegments(s), EncodeAdviceSegments(s)});
  };

  // KAR-SEG-001: flip one payload byte of the first trace frame — the CRC no
  // longer matches and the container is unreadable at that frame.
  {
    auto frames = map_frames(honest_trace);
    std::vector<uint8_t> b = honest_trace;
    b[frames[0].end - frames[0].payload_len] ^= 0x5a;
    fixtures.push_back(Fixture{kKarSeg001, std::move(b), honest_advice});
  }

  // KAR-SEG-002: a checkpoint frame where an advice frame belongs — readable,
  // but the wrong kind for the stream.
  {
    auto frames = map_frames(honest_advice);
    std::vector<uint8_t> b = honest_advice;
    b[frames[1].begin] = static_cast<uint8_t>(SegmentKind::kCheckpoint);
    fixtures.push_back(Fixture{kKarSeg002, honest_trace, std::move(b)});
  }

  // KAR-SEG-003: swap the advice frames for epochs 1 and 2.
  {
    auto frames = map_frames(honest_advice);
    const auto& f1 = frames[1];
    const auto& f2 = frames[2];
    std::vector<uint8_t> b(honest_advice.begin(),
                           honest_advice.begin() + static_cast<ptrdiff_t>(f1.begin));
    b.insert(b.end(), honest_advice.begin() + static_cast<ptrdiff_t>(f2.begin),
             honest_advice.begin() + static_cast<ptrdiff_t>(f2.end));
    b.insert(b.end(), honest_advice.begin() + static_cast<ptrdiff_t>(f1.begin),
             honest_advice.begin() + static_cast<ptrdiff_t>(f2.begin));
    b.insert(b.end(), honest_advice.begin() + static_cast<ptrdiff_t>(f2.end),
             honest_advice.end());
    fixtures.push_back(Fixture{kKarSeg003, honest_trace, std::move(b)});
  }

  // KAR-SEG-004: a var-log entry from epoch 0 claimed again by the final
  // epoch's slice (with its covering opcount, so the slice-local coverage
  // rule stays quiet and the cross-epoch claim is what fires).
  {
    const Advice& src = honest.segments[0].advice;
    if (!src.var_logs.empty() && !src.var_logs.begin()->second.empty()) {
      EpochSlices s = honest;
      auto vid_it = src.var_logs.begin();
      auto entry_it = vid_it->second.begin();
      s.segments[last].advice.var_logs[vid_it->first].insert(*entry_it);
      auto oc = src.opcounts.find({entry_it->first.rid, entry_it->first.hid});
      if (oc != src.opcounts.end()) {
        s.segments[last].advice.opcounts.insert(*oc);
      }
      add_sliced(kKarSeg004, s);
    }
  }

  // KAR-SEG-005: an opcount row declared again in a later epoch (no log entry
  // alongside it, so the opcount rule is the first to fire).
  if (!honest.segments[0].advice.opcounts.empty()) {
    EpochSlices s = honest;
    s.segments[last].advice.opcounts.insert(*honest.segments[0].advice.opcounts.begin());
    add_sliced(kKarSeg005, s);
  }

  // KAR-SEG-006: a write-order entry from epoch 0's chunk recurring in the
  // final chunk.
  if (!honest.segments[0].advice.write_order.empty()) {
    EpochSlices s = honest;
    s.segments[last].advice.write_order.push_back(
        honest.segments[0].advice.write_order.front());
    add_sliced(kKarSeg006, s);
  }

  // KAR-SEG-007: an epoch-0 request's tag re-announced by the final slice.
  if (!honest.segments[0].advice.tags.empty()) {
    EpochSlices s = honest;
    s.segments[last].advice.tags.insert(*honest.segments[0].advice.tags.begin());
    add_sliced(kKarSeg007, s);
  }

  // KAR-SEG-008: a fabricated continuity import in epoch 0 alleging a log
  // entry the final epoch's slice does not contain.
  if (!honest.segments[0].advice.var_logs.empty()) {
    EpochSlices s = honest;
    ContinuityImports::VarImport imp;
    imp.vid = honest.segments[0].advice.var_logs.begin()->first;
    imp.op = OpRef{last * kEpochSize + 1, 0x1, 1};  // A rid in the final epoch.
    imp.present = true;
    imp.kind = static_cast<uint8_t>(VarLogEntry::Kind::kWrite);
    imp.value = Value("phantom");
    s.segments[0].imports.var_entries.push_back(imp);
    add_sliced(kKarSeg008, s);
  }

  // KAR-SEG-009: redirect one entry's predecessor to an entry of the same
  // variable in a DIFFERENT epoch that transitively points back — a prec
  // cycle no single slice can see. A truthful import covers the forward hop
  // so resolution (and the import confirmation) stays quiet.
  {
    bool planted = false;
    for (const auto& [vid, log] : advice.var_logs) {
      if (planted) {
        break;
      }
      for (const auto& [op_b, entry_b] : log) {
        if (entry_b.kind != VarLogEntry::Kind::kWrite) {
          continue;  // A write target satisfies every kind rule a prec has.
        }
        // Walk B's prec chain looking for an ancestor A in another epoch.
        OpRef cur = entry_b.prec;
        while (!planted && !cur.IsNil()) {
          auto it = log.find(cur);
          if (it == log.end()) {
            break;
          }
          uint64_t epoch_a = EpochOfRid(cur.rid, kEpochSize);
          uint64_t epoch_b = EpochOfRid(op_b.rid, kEpochSize);
          if (epoch_a != epoch_b) {
            EpochSlices s = honest;
            s.segments[epoch_a].advice.var_logs[vid][cur].prec = op_b;
            if (epoch_b > epoch_a) {
              ContinuityImports::VarImport imp;
              imp.vid = vid;
              imp.op = op_b;
              imp.present = true;
              imp.kind = static_cast<uint8_t>(entry_b.kind);
              imp.value = entry_b.value;
              s.segments[epoch_a].imports.var_entries.push_back(imp);
            }
            add_sliced(kKarSeg009, s);
            planted = true;
          }
          cur = it->second.prec;
        }
        if (planted) {
          break;
        }
      }
    }
    if (!planted) {
      std::fprintf(stderr, "no cross-epoch prec chain to corrupt for KAR-SEG-009\n");
      return 1;
    }
  }

  // KAR-SEG-010: drop the final advice frame — the trace stream still has an
  // epoch the advice stream never delivers.
  {
    auto frames = map_frames(honest_advice);
    std::vector<uint8_t> b(honest_advice.begin(),
                           honest_advice.begin() + static_cast<ptrdiff_t>(frames.back().begin));
    fixtures.push_back(Fixture{kKarSeg010, honest_trace, std::move(b)});
  }

  if (fixtures.size() != 10) {
    std::fprintf(stderr, "expected 10 segment fixtures, built %zu\n", fixtures.size());
    return 1;
  }
  for (const Fixture& f : fixtures) {
    CheckResult r = CheckSegmentStreams(f.trace_bytes, f.advice_bytes, kEpochSize);
    if (r.ok || r.rule != f.rule) {
      std::fprintf(stderr, "fixture self-check failed for %s: ok=%d rule=%s reason=%s\n",
                   f.rule.c_str(), r.ok, r.rule.c_str(), r.reason.c_str());
      return 1;
    }
    std::string stem = f.rule;
    for (char& c : stem) {
      c = c == '-' ? '-' : static_cast<char>(std::tolower(c));
    }
    if (!WriteFileBytes(dir + "/" + stem + ".trace.kseg", f.trace_bytes) ||
        !WriteFileBytes(dir + "/" + stem + ".advice.kseg", f.advice_bytes)) {
      std::fprintf(stderr, "failed to write segment fixture for %s\n", f.rule.c_str());
      return 1;
    }
    std::printf("wrote %s/%s.{trace,advice}.kseg (%zu + %zu B)\n", dir.c_str(), stem.c_str(),
                f.trace_bytes.size(), f.advice_bytes.size());
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc != 3 && argc != 4) {
    std::fprintf(stderr, "usage: make_lint_fixture <out-trace> <out-advice> [<seg-out-dir>]\n");
    return 2;
  }

  WorkloadConfig wl;
  wl.app = "stacks";
  wl.kind = WorkloadKind::kMixed;
  wl.requests = 40;
  wl.seed = 7;
  wl.connections = 6;

  AppSpec app = MakeStacksApp();
  ServerConfig config;
  config.concurrency = 6;
  config.seed = 7;
  Server server(*app.program, config);
  ServerRunResult run = server.Run(GenerateWorkload(wl));

  // The segment fixtures plant their own defects into honest slices, so they
  // must be cut before the monolithic lint corruptions below land.
  if (argc == 4) {
    int rc = EmitSegmentFixtures(run.trace, run.advice, argv[3]);
    if (rc != 0) {
      return rc;
    }
  }

  // Corruption 1 (KAR-ADV-003): dangling VarLogEntry::prec. Pick the first
  // logged read and point its dictating write at an opnum no entry holds.
  bool corrupted_prec = false;
  for (auto& [vid, log] : run.advice.var_logs) {
    for (auto& [op, entry] : log) {
      if (entry.kind == VarLogEntry::Kind::kRead) {
        entry.prec = OpRef{op.rid, op.hid, kOpNumInf - 1};
        corrupted_prec = true;
        break;
      }
    }
    if (corrupted_prec) {
      break;
    }
  }
  if (!corrupted_prec) {
    std::fprintf(stderr, "no logged read to corrupt; raise concurrency\n");
    return 1;
  }

  // Corruption 2 (KAR-ADV-010): duplicate write-order entry => cycle.
  if (run.advice.write_order.size() < 2) {
    std::fprintf(stderr, "write order too small to corrupt\n");
    return 1;
  }
  run.advice.write_order.push_back(run.advice.write_order.front());

  // Sanity: the one-epoch model check must flag both planted rules.
  bool saw_003 = false;
  bool saw_010 = false;
  for (const LintDiagnostic& d : CheckRun(run.trace, run.advice, 0).diagnostics) {
    saw_003 |= d.rule == "KAR-ADV-003";
    saw_010 |= d.rule == "KAR-ADV-010";
  }
  if (!saw_003 || !saw_010) {
    std::fprintf(stderr, "planted corruptions not detected (003=%d, 010=%d)\n", saw_003,
                 saw_010);
    return 1;
  }

  ByteWriter trace_bytes;
  run.trace.Serialize(&trace_bytes);
  ByteWriter advice_bytes;
  run.advice.Serialize(&advice_bytes);
  if (!WriteFileBytes(argv[1], trace_bytes.bytes()) || !WriteFileBytes(argv[2], advice_bytes.bytes())) {
    std::fprintf(stderr, "failed to write fixture files\n");
    return 1;
  }
  std::printf("wrote %s (%zu B) and %s (%zu B)\n", argv[1], trace_bytes.size(), argv[2],
              advice_bytes.size());
  return 0;
}

}  // namespace
}  // namespace karousos

int main(int argc, char** argv) { return karousos::Main(argc, argv); }
