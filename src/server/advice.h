// The advice the server reports to the verifier (§2.1, C.1.3).
//
// Advice is *untrusted*: every structure here is an allegation the verifier
// must validate. The components map one-to-one onto the paper's list:
//   * tags               — the control-flow groupings C (§4.1, §5);
//   * handler_logs       — HLs: per-request ordered handler operations;
//   * var_logs           — VLs: per-variable logged reads/writes (Figure 13);
//   * tx_logs            — TXLs: per-transaction operation logs (§4.4);
//   * write_order        — the alleged global order of external-state writes;
//   * response_emitted_by— which handler op delivered each response;
//   * opcounts           — per-(rid, hid) total operation counts;
//   * nondet             — recorded non-deterministic results (§5).
//
// Advice has a real wire format so that Figure 8's advice-size experiment
// measures actual bytes. Its grammar is written once (Encode/Decode, over the
// field coders of src/common/kcodec.h): the monolithic advice file is that
// grammar with every codec stage off, and a KSEG advice frame is the same
// grammar under the stages its flags name, followed by the imports.
#ifndef SRC_SERVER_ADVICE_H_
#define SRC_SERVER_ADVICE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/adya/history.h"
#include "src/common/ids.h"
#include "src/common/kcodec.h"
#include "src/common/serde.h"
#include "src/common/value.h"

namespace karousos {

struct HandlerLogEntry {
  enum class Kind : uint8_t { kRegister, kEmit, kUnregister };
  Kind kind = Kind::kEmit;
  HandlerId hid = 0;
  OpNum opnum = 0;
  uint64_t event = 0;       // Event-name digest.
  FunctionId function = 0;  // Register / unregister only.
};

struct VarLogEntry {
  enum class Kind : uint8_t { kRead, kWrite };
  Kind kind = Kind::kRead;
  Value value;  // Writes only: the value written.
  // Reads: the dictating write. Writes: the overwritten write. Nil for
  // back-filled write entries whose predecessor was not logged.
  OpRef prec;
};

// Ordered map keyed by access coordinates; ordering keeps serialization and
// verifier iteration deterministic.
using VarLog = std::map<OpRef, VarLogEntry>;

struct NondetRecord {
  enum class Kind : uint8_t { kConflict, kValue };
  Kind kind = Kind::kValue;
  Value value;  // kValue only.
};

// The logged writes of an encoded unit, split by how they are stored: in
// full or as a patch (the delta var-logs below).
struct StoredWrites {
  size_t full = 0;
  size_t full_bytes = 0;  // Kind byte and value.
  size_t patches = 0;
  size_t patch_bytes = 0;  // Kind byte and patch.
};

struct Advice {
  std::map<RequestId, uint64_t> tags;
  std::map<RequestId, std::vector<HandlerLogEntry>> handler_logs;
  std::map<VarId, VarLog> var_logs;
  TransactionLogs tx_logs;
  WriteOrder write_order;
  std::map<RequestId, std::pair<HandlerId, OpNum>> response_emitted_by;
  std::map<std::pair<RequestId, HandlerId>, OpNum> opcounts;
  std::map<OpRef, NondetRecord> nondet;

  // Encoded size, total and per component (Figure 8 and its breakdowns).
  struct SizeBreakdown {
    size_t total = 0;
    size_t tags = 0;
    size_t handler_logs = 0;
    size_t var_logs = 0;
    size_t tx_logs = 0;
    size_t write_order = 0;
    size_t other = 0;
  };

  // The one advice grammar. Encode writes the components in paper order
  // through `e` (Finish is the caller's) and, when `breakdown` is given,
  // notes each component's body bytes there. Decode reads them back from
  // `d`, leaving it after the advice; nullopt when malformed. `stored`, when
  // given, receives the split of the logged writes into full values and
  // patches as the bytes hold them.
  void Encode(FieldEncoder* e, SizeBreakdown* breakdown = nullptr) const;
  static std::optional<Advice> Decode(FieldDecoder* d, StoredWrites* stored = nullptr);

  // The grammar with every stage off: the monolithic advice file.
  // Deserialize reads from the reader's position and leaves it after the
  // advice.
  void Serialize(ByteWriter* out) const;
  static std::optional<Advice> Deserialize(ByteReader* in, StoredWrites* stored = nullptr);
  SizeBreakdown MeasureSize() const;

  // Counters used by the logging ablation.
  size_t var_log_entry_count() const;
  size_t handler_log_entry_count() const;
};

// --- Delta var-logs ----------------------------------------------------------
// A var-log entry's kind byte on the wire: 0 a read, 1 a write stored in
// full, 2 a write stored as a map patch over the value its `prec` write
// logged, 3 a write stored as a list append over it. A patch resolves inside
// the unit it is stored in (one advice file, one KSEG frame), so a decoded
// VarLogEntry always holds the full value and the verifier never sees a
// patch. The advice grammar plans with PatchBases and VarPatchPlanner,
// writes with WriteStoredWrite (as the recorder's spool does) and resolves
// with VarPatchResolver.
enum class VarWriteForm : uint8_t { kFull = 1, kMapPatch = 2, kListAppend = 3 };

// The bytes resolving one unit's patches may copy, per byte of the unit.
// Each materialized value copies its base's entry array, so a chain of
// appends copies the square of its input: the budget keeps a short hostile
// unit from expanding into memory it never paid for. The planner holds
// honest units to the same budget, so no honest unit is refused; DESIGN.md
// records the honest ratios and the headroom.
inline constexpr size_t kPatchCopyBytesPerInputByte = 64;

// How `value` is stored over `base`, the value its prec write logged. The
// diff compares children by Value::Identical only: a map patch sets the keys
// whose value is not identical to the base's and erases the base's keys that
// are gone; a list append adds the items past an identical prefix. A patch
// is kept only when it has strictly fewer entries than `value` has.
struct VarWriteDiff {
  VarWriteForm form = VarWriteForm::kFull;
  std::vector<const ValueMap::value_type*> sets;  // kMapPatch, increasing keys.
  std::vector<const std::string*> erases;          // kMapPatch, increasing keys.
  size_t appended_from = 0;                        // kListAppend: first new item.
};
VarWriteDiff DiffVarWrite(const Value& value, const Value& base);

// For each entry of `log`, in log order: the value a write may be stored as
// a patch over, or nullptr for a full write (and for every read). A write
// gets its prec's value when the prec is a write of the same log and the
// write is on no cycle of prec links, so every chain of patches ends at a
// full write. The pointers alias `log`.
std::vector<const Value*> PatchBases(const VarLog& log);

// Plans the writes of one unit, in the order they are written.
class VarPatchPlanner {
 public:
  // The stored form of `value` over `base` (from PatchBases; nullptr means
  // full) in a unit that holds `unit_bytes` so far. A patch whose resolution
  // would take the unit's copies past its budget at `unit_bytes` is stored
  // in full instead, and a unit only grows, so its decoder never refuses it.
  VarWriteDiff Plan(const Value& value, const Value* base, size_t unit_bytes);

 private:
  size_t copied_ = 0;
};

// Writes a logged write's kind byte and stored form: `value` in full, or
// the patch `diff` describes.
void WriteStoredWrite(const VarWriteDiff& diff, const Value& value, FieldEncoder* out);

// A patch as read, before it is resolved against its base.
struct VarPatch {
  VarWriteForm form = VarWriteForm::kMapPatch;
  ValueMap sets;                    // kMapPatch.
  std::vector<std::string> erases;  // kMapPatch.
  ValueList appended;               // kListAppend.
};

// Materializes the patches of one unit's var logs. The decoder Adds each
// patched entry as it inserts it (its value still empty), and Resolves the
// log once all its entries are in. Resolving walks prec chains from a
// worklist, so it follows a prec that sorts after its entry and never
// recurses; a materialized value shares the base's unchanged children.
class VarPatchResolver {
 public:
  // `input_bytes`: the size of the unit, which bounds the bytes that
  // resolving may copy (kPatchCopyBytesPerInputByte).
  explicit VarPatchResolver(size_t input_bytes);

  void Add(VarLog::iterator entry, VarPatch patch);
  // False, leaving `log` partly resolved, when a patch's prec is missing or
  // a read, closes a cycle, has a base of the wrong kind, erases an absent
  // key, sets a key to an identical value, sets and erases one key, or the
  // copies (the entry array and map keys of each value built) pass the
  // budget.
  bool Resolve(VarLog* log);

 private:
  bool Apply(VarPatch* patch, const Value& base, Value* out);

  std::vector<std::pair<VarLog::iterator, VarPatch>> pending_;
  size_t budget_;
  size_t copied_ = 0;
};

}  // namespace karousos

#endif  // SRC_SERVER_ADVICE_H_
