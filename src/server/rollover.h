// Epoch rollover: slices one finished run's trace and advice into epoch
// segments, which the KSEG frame layer below stores and the verifier's
// AuditSession consumes one epoch at a time.
//
// Epoch assignment is by request id: rid r belongs to epoch (r-1)/N for
// epoch_requests == N. The three slicing axes:
//   * trace   — chronological windows. Window e extends the event stream to
//     the earliest point where every request of epochs <= e has both arrived
//     and responded (concurrency lets later-epoch events appear inside
//     earlier windows; that is fine — the verifier ingests windows as a
//     single continuous stream).
//   * advice  — by the owning request id (tags, handler logs, var logs, tx
//     logs, opcounts, responseEmittedBy, nondet), except the write order,
//     which is cut positionally so the chunks concatenate to exactly the
//     alleged global order.
//   * continuity imports — for every reference that points *forward* across
//     an epoch boundary (a GET's dictating PUT in a later epoch, a var-log
//     prec in a later epoch), the slice carries what the collector alleges
//     lives at the referenced coordinates. The verifier uses the allegation
//     immediately and confirms it against the real slice when that epoch
//     arrives: a wrong continuity record can only cause rejection. Cut into
//     shards (SlicePartitions), a reference into another shard needs one too.
//
// The same slicer runs on the collector's side (`karousos serve
// --out-segments`, shard files) and on the verifier's (slicing monolithic
// inputs for `audit`), so both produce byte-identical segments.
#ifndef SRC_SERVER_ROLLOVER_H_
#define SRC_SERVER_ROLLOVER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/adya/checker.h"
#include "src/analysis/diagnostic.h"
#include "src/common/kcodec.h"
#include "src/common/segment.h"
#include "src/server/advice.h"
#include "src/trace/trace.h"

namespace karousos {

// Epoch of a request id (init/reserved rid 0 maps to epoch 0).
uint64_t EpochOfRid(RequestId rid, uint64_t epoch_requests);

// The epoch size a run stored in one piece (a monolithic trace and advice
// pair) is audited at when the caller names none: AuditOnly, RunAndAudit,
// and `karousos audit`/`check`/`analyze` without --epoch-size. Chosen by
// measurement: on monolithic motd@20000, epochs of 1000 and of 2000 audit
// equally fast, faster than one epoch or epochs of 500 (EXPERIMENTS.md, "One
// audit path: measured"), and the smaller keeps less resident. It must stay
// above the 600-request runs of figure_shapes_test, which count per-audit
// work as one epoch.
inline constexpr uint64_t kDefaultEpochRequests = 1000;

// What the collector alleges lives at out-of-epoch coordinates that this
// epoch's slice references. Allegations mirror whatever the full advice
// holds — including its defects — so that validation reaches the same
// verdict at every epoch size.
struct ContinuityImports {
  // In epoch frames and shard files the imports are the tail of the advice
  // grammar (Encode/Decode below). The checkpoint, the pre-screen state and
  // the shard artifact carry single imports in that grammar's stage-off
  // bytes, through the per-import codecs.
  struct TxOpImport {
    TxOpRef ref;
    bool txn_present = false;  // The referenced transaction exists at all.
    bool op_present = false;   // ... and ref.index is within its log.
    uint8_t type = 0;          // TxOpType of the referenced op (when present).
    std::string key;           // PUT/GET key (when present).
    Value value;               // PUT value (when present and a PUT).
    HandlerId hid = 0;         // Issuing handler op (when present).
    OpNum opnum = 0;

    // A TxOpRef (10), two bools and the type (3), an empty key and a null
    // value (2), hid (8) and opnum (1).
    static constexpr size_t kMinBytes = 24;
    void Serialize(ByteWriter* out) const;
    static TxOpImport Deserialize(StateReader* in);
  };
  struct VarImport {
    VarId vid = 0;
    OpRef op;
    bool present = false;  // The referenced entry exists in vid's log.
    uint8_t kind = 0;      // VarLogEntry::Kind (when present).
    Value value;           // Entry value (when present).

    // vid (8), an OpRef (10), present and kind (2) and a null value (1).
    static constexpr size_t kMinBytes = 21;
    void Serialize(ByteWriter* out) const;
    static VarImport Deserialize(StateReader* in);
  };

  std::vector<TxOpImport> tx_ops;
  std::vector<VarImport> var_entries;

  bool empty() const { return tx_ops.empty() && var_entries.empty(); }

  // The counted tx-op imports, then the counted var imports, in the advice
  // grammar's field coders. Decode returns nullopt when they are malformed.
  void Encode(FieldEncoder* e) const;
  static std::optional<ContinuityImports> Decode(FieldDecoder* d);
};

// Looks up what the full advice alleges at an out-of-slice transaction-log /
// var-log coordinate. Allegations mirror defects faithfully (absent txn,
// out-of-range index, missing entry) so validation reaches the same verdict
// at every epoch size and shard count. The slicers' one import pass below
// describes every import through these.
ContinuityImports::TxOpImport DescribeTxOp(const Advice& advice, const TxOpRef& ref);
ContinuityImports::VarImport DescribeVarEntry(const Advice& advice, VarId vid, const OpRef& op);

// What lives at a var-log coordinate: the slice's own entry, a carried one,
// an import or the owning shard's export (the var-log ResolvedTxOp). `value`
// is null for carried reads, which drop their value, for a carried write to a
// request-scoped variable, whose value the session drops once its epoch ends,
// and for a hit in the value-free ledger alone (src/analysis/carry_lint.h).
// It is set for every other write.
struct ResolvedVarEntry {
  bool present = false;
  bool is_write = false;
  const Value* value = nullptr;
};

// An allegation read as a resolution (what the verifier sees at an imported
// coordinate until the target's epoch or shard confirms it).
ResolvedTxOp ResolveImport(const ContinuityImports::TxOpImport& imp);
ResolvedVarEntry ResolveImport(const ContinuityImports::VarImport& imp);

// The one import-confirmation predicate per kind: does the allegation match
// the real content at its coordinate? Only presence, PUT-ness (write-ness)
// and the PUT (write) payload can influence any consumer, so that is what
// they pin down. Both confirmers call these: the pre-screen when the target
// epoch arrives, with the live slice as the real content (the only one on
// the epoch axis, so every value an import names is still in hand), and the
// shard merge, against the owning shard's export.
bool TxImportMatches(const ContinuityImports::TxOpImport& imp, const ResolvedTxOp& real);
bool VarImportMatches(const ContinuityImports::VarImport& imp, const ResolvedVarEntry& real);

// One epoch's audit input: the trace window, the advice slice, and the
// continuity imports for the slice's forward references.
struct EpochSegment {
  uint64_t epoch = 0;
  std::vector<TraceEvent> window;
  Advice advice;
  ContinuityImports imports;
};

struct EpochSlices {
  uint64_t epoch_requests = 0;
  std::vector<EpochSegment> segments;  // One per epoch, in epoch order.
};

// Slices a complete run. epoch_requests == 0 means one epoch holding
// everything. Advice content whose rid falls beyond the last trace epoch is
// clamped into the final slice (where the lint's not-in-trace rule reports
// it, exactly as a one-epoch audit would).
EpochSlices SliceRun(const Trace& trace, const Advice& advice, uint64_t epoch_requests);

// Move-based slicer for callers done with the advice (a recorder that only
// stores segments, the monolithic audit): consumes the advice instead of
// copying every log and value into the slices (continuity
// imports are computed from the full advice before any content moves).
// Produces slices byte-identical to SliceRun's for the same inputs.
EpochSlices SliceRunOwned(const Trace& trace, Advice&& advice, uint64_t epoch_requests);

// Slices a run whose advice is split among request partitions (the shard
// slicer, src/server/shard.h): parts[p] holds the content partition p owns,
// and owner_of names the partition of any request id. Every partition gets
// the whole trace's windows and its own advice slices. Imports come from one
// pass over the full `advice`: a reference needs one when its target lies in
// a later epoch or is owned by another partition. SliceRunOwned is the
// one-partition case of the same pass.
std::vector<EpochSlices> SlicePartitions(const Trace& trace, const Advice& advice,
                                         std::vector<Advice>&& parts,
                                         const std::function<uint32_t(RequestId)>& owner_of,
                                         uint64_t epoch_requests);

// Rebuilds the monolithic advice from a run's slices, consuming them. For
// slices produced by SliceRun/SliceRunOwned this is an exact inverse: epochs
// partition the key space in ascending rid ranges, so concatenating the
// per-epoch maps in epoch order restores every component's key order.
Advice MergeSlices(EpochSlices&& slices);

// The KSEG frame layer: one writer and one reader for every epoch frame, in
// the epoch containers below and in shard files (src/server/shard.h).
//
// Trace and advice travel as two segment streams. Each opens with a raw
// kEpochManifest frame stating slices.epoch_requests, then holds one kTrace
// frame per epoch, or one kAdvice frame per epoch whose payload is the advice
// slice followed by the imports. `c` names the storage-class codec stages
// applied per epoch frame and recorded in its flags byte; with no stages a
// trace frame's payload is the window's monolithic trace bytes and an advice
// frame's the slice's monolithic advice bytes then the imports. The block
// stage is dropped per frame when it does not shrink the payload, so a
// frame's flags always name exactly the transforms its bytes carry.
std::vector<uint8_t> EncodeTraceSegments(const EpochSlices& slices,
                                         const KsegCompression& c = {});
std::vector<uint8_t> EncodeAdviceSegments(const EpochSlices& slices,
                                          const KsegCompression& c = {});

// One frame's payload before the block stage: the trace or advice grammar
// (src/trace/trace.h, src/server/advice.h) under c.lanes and c.dict, with
// the dict stage's tables in front. c.block is the frame writer's.
void EncodeTraceSegmentPayload(const std::vector<TraceEvent>& events, const KsegCompression& c,
                               ByteWriter* out);
void EncodeAdviceSegmentPayload(const Advice& advice, const ContinuityImports& imports,
                                const KsegCompression& c, ByteWriter* out);

// Appends frames under one codec choice. Every KSEG epoch-frame encoder (the
// two above and EncodeShardFile) writes through this one appender.
class EpochFrameWriter {
 public:
  explicit EpochFrameWriter(const KsegCompression& c) : c_(c) {}

  // The epoch container's opening frame.
  void AppendManifest(uint64_t epoch_requests);
  void AppendTrace(const EpochSegment& seg);
  void AppendAdvice(const EpochSegment& seg);
  // A frame that stays raw under every codec choice (the shard boundary).
  void AppendRaw(SegmentKind kind, uint64_t epoch, const std::vector<uint8_t>& payload);

  std::vector<uint8_t> Take() { return writer_.Take(); }

 private:
  // Appends payload_ as one frame under the codec stages.
  void AppendPayload(SegmentKind kind, uint64_t epoch);

  KsegCompression c_;
  SegmentWriter writer_;
  // One scratch payload buffer across frames: Clear keeps the capacity, so
  // only the largest frame ever allocates.
  ByteWriter payload_;
};

// The epoch size a manifest payload states: exactly one canonical varint.
std::optional<uint64_t> DecodeEpochManifestPayload(const std::vector<uint8_t>& payload);

// Reads an epoch container's manifest, its first frame, and returns the
// epoch size it states. On a container that does not open with exactly one
// well-formed manifest (a raw kEpochManifest frame at epoch 0 whose payload is
// one canonical varint) appends the one finding, located at "<stream>" or
// "<stream>[offset N]", to *diags and returns nullopt: KAR-SEG-001 when the
// frame cannot be read, KAR-SEG-002 otherwise. A second manifest is left for
// DecodeEpochFrame, which refuses it where an epoch frame belongs.
std::optional<uint64_t> ReadEpochManifest(SegmentReader* reader, const char* stream,
                                          std::vector<LintDiagnostic>* diags);

// Decodes one frame payload, undoing the stages named in the frame's flags
// byte: block first, then the grammar under lanes/dict, which must consume
// the payload exactly. Returns nullopt on malformed payloads and on unknown
// flag bits (the segment reader already screens them, but the payload
// decoders never trust their input); the caller turns that into a clean
// rejection.
std::optional<std::vector<TraceEvent>> DecodeTraceSegmentPayload(
    const std::vector<uint8_t>& payload, uint8_t flags = 0);
struct AdviceSegmentPayload {
  Advice advice;
  ContinuityImports imports;
};
std::optional<AdviceSegmentPayload> DecodeAdviceSegmentPayload(
    const std::vector<uint8_t>& payload, uint8_t flags = 0);

// The one epoch-frame step of every KSEG epoch reader: the paired trace and
// advice containers (PairedSegmentCursor, src/analysis/check.h) and the shard
// file (LoadShardFile). `rec` must be a `kind` frame (kTrace or kAdvice;
// otherwise KAR-SEG-002) for epoch `epoch` (otherwise KAR-SEG-003), and its
// payload must decode under its flags (otherwise KAR-SEG-002). On success
// sets out->epoch and fills the window (kTrace) or the advice and imports
// (kAdvice). On failure appends the one finding, located at
// "<stream>[offset N]", to *diags and returns false.
bool DecodeEpochFrame(const SegmentRecord& rec, SegmentKind kind, uint64_t epoch,
                      const char* stream, EpochSegment* out,
                      std::vector<LintDiagnostic>* diags);

}  // namespace karousos

#endif  // SRC_SERVER_ROLLOVER_H_
