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
// Advice has a real wire format (Serialize/Deserialize) so that Figure 8's
// advice-size experiment measures actual bytes.
#ifndef SRC_SERVER_ADVICE_H_
#define SRC_SERVER_ADVICE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/adya/history.h"
#include "src/common/ids.h"
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

struct Advice {
  std::map<RequestId, uint64_t> tags;
  std::map<RequestId, std::vector<HandlerLogEntry>> handler_logs;
  std::map<VarId, VarLog> var_logs;
  TransactionLogs tx_logs;
  WriteOrder write_order;
  std::map<RequestId, std::pair<HandlerId, OpNum>> response_emitted_by;
  std::map<std::pair<RequestId, HandlerId>, OpNum> opcounts;
  std::map<OpRef, NondetRecord> nondet;

  void Serialize(ByteWriter* out) const;
  static std::optional<Advice> Deserialize(ByteReader* in);

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
  SizeBreakdown MeasureSize() const;

  // Counters used by the logging ablation.
  size_t var_log_entry_count() const;
  size_t handler_log_entry_count() const;
};

}  // namespace karousos

#endif  // SRC_SERVER_ADVICE_H_
