// In-memory transactional key-value store: the substrate standing in for
// MySQL (§5, "Transactional state").
//
// The store supports exactly the abstract interface of §4.4 — tx_start,
// tx_commit, tx_abort, PUT, GET — over single rows addressed by primary key,
// at one of three isolation levels:
//
//   * kSerializable     — no-wait strict two-phase locking: a conflicting
//                         lock acquisition fails immediately with kConflict
//                         (the application is expected to abort and surface a
//                         retry error, as the paper's stacks app does).
//   * kReadCommitted    — writers take exclusive locks until commit; readers
//                         read the latest committed version without locking.
//   * kReadUncommitted  — readers observe in-place dirty writes.
//
// Two features mirror the paper's MySQL integration:
//   * each row stores its last writer (rid, tid, op-index), so a GET reports
//     its dictating PUT ("storing each row's last writer in the row itself");
//   * a binlog records, at commit time, the final modification each committed
//     transaction made to each key, in commit order — this is the write
//     order the server ships as advice (§4.4, "repurposing MySQL's binlog").
#ifndef SRC_TXKV_STORE_H_
#define SRC_TXKV_STORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/adya/history.h"
#include "src/common/ids.h"
#include "src/common/value.h"

namespace karousos {

enum class IsolationLevel : uint8_t { kSerializable, kReadCommitted, kReadUncommitted };

const char* IsolationLevelName(IsolationLevel level);

enum class TxStatus : uint8_t {
  kOk,
  kConflict,      // Lock conflict; caller should Abort (no-wait 2PL).
  kInvalidTxn,    // Unknown or already-finished transaction.
};

struct KvGetResult {
  TxStatus status = TxStatus::kOk;
  bool found = false;
  Value value;
  // Dictating PUT: position of the write this read observed (nil when the
  // key had never been written).
  TxOpRef dictating_write;
};

class TxKvStore {
 public:
  explicit TxKvStore(IsolationLevel level) : level_(level) {}

  IsolationLevel level() const { return level_; }

  // Opens a transaction. `tid` must be globally unique (the server derives it
  // from the tx_start operation's coordinates). Returns kInvalidTxn on reuse.
  TxStatus Begin(RequestId rid, TxId tid);

  // Reads `key`. `self_index` is the 1-based position of this GET within the
  // transaction's operation sequence (used only for bookkeeping symmetry; the
  // dictating write is what matters).
  KvGetResult Get(RequestId rid, TxId tid, const std::string& key);

  // Writes `key`. `self` identifies this PUT (rid, tid, index within txn) so
  // the row's last-writer field and the binlog can reference it.
  TxStatus Put(RequestId rid, TxId tid, uint32_t self_index, const std::string& key, Value value);

  // Commits: applies buffered/dirty writes as the committed versions, appends
  // the transaction's final per-key writes to the binlog, releases locks.
  TxStatus Commit(RequestId rid, TxId tid);

  // Aborts: reverts dirty writes, releases locks. Aborting an unknown
  // transaction is a no-op (applications abort defensively on conflict).
  void Abort(RequestId rid, TxId tid);

  // The binlog: write order of committed final modifications.
  const WriteOrder& binlog() const { return binlog_; }

  // Committed-state inspection (tests).
  std::optional<Value> CommittedValue(const std::string& key) const;
  size_t open_transaction_count() const { return open_.size(); }
  size_t key_count() const { return rows_.size(); }

  // Drops all state (between benchmark repetitions).
  void Reset();

 private:
  struct Row {
    bool has_committed = false;
    Value committed;
    TxOpRef committed_writer;      // Last committed PUT (nil before first commit).
    // At most one uncommitted writer at a time (writers always take the
    // exclusive lock, at every isolation level).
    bool has_dirty = false;
    Value dirty;
    TxOpRef dirty_writer;
    // Lock table entry: exclusive owner, or shared holders (serializable).
    TxnKey x_owner{};              // {0,0} when unheld.
    std::vector<TxnKey> s_holders;
  };

  struct OpenTxn {
    RequestId rid = 0;
    // Keys this transaction has locked, for release on commit/abort.
    std::vector<std::string> s_locked;
    std::vector<std::string> x_locked;
    // Final write per key: op index of the last PUT (insertion-ordered by
    // first write so the binlog order is deterministic). Own-reads are served
    // from the row's dirty slot, which this transaction owns while writing.
    std::vector<std::pair<std::string, uint32_t>> final_writes;
  };

  bool AcquireShared(Row& row, const TxnKey& txn);
  bool AcquireExclusive(Row& row, const TxnKey& txn);
  void ReleaseLocks(const TxnKey& txn, OpenTxn& state);
  void RecordFinalWrite(OpenTxn& state, const std::string& key, uint32_t index);

  IsolationLevel level_;
  std::map<std::string, Row> rows_;
  std::map<TxnKey, OpenTxn> open_;
  // Ids of transactions that ever existed, to reject tid reuse.
  std::map<TxnKey, bool> seen_;
  WriteOrder binlog_;
};

}  // namespace karousos

#endif  // SRC_TXKV_STORE_H_
