// Systematic mutation catalog over KSEG segment streams, shared by the
// mutation fuzzer (tools/kseg_fuzz.cc) and the static-check bench. Three
// mutation families over one honest (trace, advice, epoch_requests) run:
//
//   * component — the nine adversarial seeds from tests/epoch_audit_test.cc
//     (forged responses, tampered/ghost/dropped log entries, inflated
//     opcounts, swapped write order, ...) applied to the monolith and then
//     sliced, so the defect survives honest slicing;
//   * slice — cross-epoch defects injected after slicing (content duplicated
//     into a foreign epoch, recurring write-order entries, tampered or
//     fabricated continuity imports): the KAR-SEG rule family's home turf;
//   * frame — byte-level container damage (payload/CRC/kind/epoch bytes,
//     dropped/duplicated/swapped/truncated frames, header corruption) against
//     every frame of both encoded streams;
//   * codec — damage to storage-class compressed streams: unknown or
//     stripped flag bits (the flags byte is outside the CRC), a dropped block
//     stage, stored-payload truncation with the length and CRC fixed up, and
//     declared-decoded-size tampering on blocked frames. The container framing
//     stays honest, so only the codec layer can reject these.
//   * patch — var-log patches no honest encoder writes, spliced into one raw
//     advice frame as an extra var log: every refusal of VarPatchResolver
//     (missing, read or cyclic prec, base of the wrong kind, absent or
//     misordered keys, a chain that copies past the budget), plus one
//     well-formed patch whose value is forged, which only the audit catches.
//
// Every mutation is semantic: an audit must reject it (statically or
// dynamically), and neither the checker nor the audit may crash on it.
#ifndef SRC_ANALYSIS_KSEG_MUTATE_H_
#define SRC_ANALYSIS_KSEG_MUTATE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/server/advice.h"
#include "src/trace/trace.h"

namespace karousos {

struct KsegMutation {
  std::string name;  // Family:detail, e.g. "frame:trace[3]:payload-flip@0".
  std::vector<uint8_t> trace_bytes;
  std::vector<uint8_t> advice_bytes;
};

// One var log written entry by entry in the raw advice grammar, each write
// stored exactly as given: how the patch family (and the decoder's tests)
// build patches that no honest encoder writes.
class RawVarLog {
 public:
  explicit RawVarLog(VarId vid) : vid_(vid) {}

  RawVarLog& Read(const OpRef& op, const OpRef& prec);
  RawVarLog& Full(const OpRef& op, const Value& value, const OpRef& prec);
  RawVarLog& MapPatch(const OpRef& op, const std::vector<std::pair<std::string, Value>>& sets,
                      const std::vector<std::string>& erases, const OpRef& prec);
  RawVarLog& Append(const OpRef& op, const std::vector<Value>& items, const OpRef& prec);

  // An advice payload holding only this var log.
  std::vector<uint8_t> AdviceBytes() const;
  // `payload` starts with the raw encoding of `advice`; returns it with this
  // log added after the advice's own var logs.
  std::vector<uint8_t> SplicedInto(const Advice& advice, const std::vector<uint8_t>& payload) const;

 private:
  void Entry(const OpRef& op, uint8_t kind);

  VarId vid_;
  size_t count_ = 0;
  ByteWriter entries_;
};

// One hand-written var log of variable `vid` per refusal of
// VarPatchResolver, each named: the patch family splices every one into a
// frame, and the decoder's tests decode each on its own.
std::vector<std::pair<std::string, RawVarLog>> MalformedPatchLogs(VarId vid);

// Builds the full corpus for one honest run. Deterministic: same inputs,
// same mutations in the same order. Mutations that do not apply to this run
// (e.g. no found GET in the schedule) are skipped, so size the run to make
// every family fire when a floor matters.
std::vector<KsegMutation> BuildMutationCorpus(const Trace& trace, const Advice& advice,
                                              uint64_t epoch_requests);

}  // namespace karousos

#endif  // SRC_ANALYSIS_KSEG_MUTATE_H_
