// Transactional history types (§4.4).
//
// A history comprises (a) the TxOp order, encoded as one *transaction log*
// per transaction — the ordered operations the transaction issued, with each
// GET carrying the position of its dictating PUT — and (b) the *write order*:
// an alleged global order of the (final) writes applied to external state.
// These are exactly the structures the Karousos server places in its advice
// and that Adya's algorithms consume.
#ifndef SRC_ADYA_HISTORY_H_
#define SRC_ADYA_HISTORY_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/ids.h"
#include "src/common/value.h"

namespace karousos {

enum class TxOpType : uint8_t { kTxStart, kTxCommit, kTxAbort, kPut, kGet };

const char* TxOpTypeName(TxOpType t);

// One entry of a transaction log (advice item C.1.3):
//   (hid, opnum, optype, key, opcontents)
// where opcontents is the written value for PUT and the dictating write's
// position for GET.
struct TxOperation {
  TxOpType type = TxOpType::kTxStart;
  // Which handler operation issued this (ties the log entry to re-execution
  // through the verifier's OpMap).
  HandlerId hid = 0;
  OpNum opnum = 0;
  std::string key;          // PUT/GET only.
  Value put_value;          // PUT only.
  TxOpRef get_from;         // GET only; nil when the key had never been written.
  bool get_found = false;   // GET only; whether the key existed.
};

// Map ordering keeps iteration deterministic (the verifier's behaviour, and
// hence test expectations, must not depend on hash order).
using TransactionLog = std::vector<TxOperation>;
using TransactionLogs = std::map<TxnKey, TransactionLog>;

// Alleged global order of final writes of committed transactions.
using WriteOrder = std::vector<TxOpRef>;

}  // namespace karousos

#endif  // SRC_ADYA_HISTORY_H_
