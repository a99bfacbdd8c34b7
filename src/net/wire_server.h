// The event-driven network front-end: a Listener thread accepting TCP or
// Unix-domain connections plus N worker event loops, each owning a full
// Server instance (its record shard). Connections are assigned to workers
// round-robin by accept order; worker w serves its requests with seed
// config.server.seed + w, so each shard's trace and advice audit
// independently and a collector can gather shards in worker order.
//
// Two serving modes:
//
//   * Batch (deterministic oracle mode): request frames accumulate until the
//     drain signal arrives and every connection has half-closed; the worker
//     then sorts its requests by client sequence number and serves them with
//     the same admit-while-capacity/step loop Server::Run uses. The shard's
//     trace and advice are byte-identical to an in-process
//     Server(seed + w).Run(shard_inputs) — the equivalence the wire tests
//     pin down.
//
//   * Live: requests are admitted as they decode, interleaved with I/O, up
//     to the concurrency window; responses stream back as requests complete.
//     The schedule depends on arrival timing, so equivalence is at the
//     verdict level: the resulting shard still audits to the same
//     (accepted, reason, rule, diagnostics) as an in-process run.
//
// Drain protocol: a client shutdown frame (optionally carrying the total
// number of connections the load opened, so the drain cannot outrun
// connections still sitting in the accept backlog) or WireServer::Stop()
// closes the listener and posts drain to every worker; each worker finishes
// outstanding work, finalizes its shard (FinishRun), flushes client writes,
// and exits its loop. Wait() joins everything and returns the
// per-shard results plus edge counters.
#ifndef SRC_NET_WIRE_SERVER_H_
#define SRC_NET_WIRE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/connection.h"
#include "src/net/dispatcher.h"
#include "src/net/listener.h"
#include "src/server/server.h"

namespace karousos {

struct WireServerConfig {
  std::string listen = "unix:/tmp/karousos.sock";
  // Worker event loops == record shards.
  size_t workers = 1;
  // Batch mode (see file comment). Live when false.
  bool batch = false;
  // Per-connection, per-direction buffer high watermark (low = high/2).
  size_t high_watermark = 1u << 20;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Shard server config; worker w runs with seed = server.seed + w.
  ServerConfig server;
};

struct WireShardResult {
  size_t worker = 0;
  size_t connections = 0;
  size_t requests = 0;
  ServerRunResult run;
};

struct WireServerReport {
  bool ok = false;
  std::string error;
  std::vector<WireShardResult> shards;  // Worker order.
  size_t connections = 0;
  size_t requests = 0;
  size_t responses = 0;
  size_t frames = 0;
  size_t protocol_errors = 0;
  uint64_t read_disables = 0;
  // Largest resident buffer any connection ever held (the slow-client
  // bounded-memory number: stays within high_watermark + one read chunk).
  size_t peak_connection_buffered_bytes = 0;
  double serve_seconds = 0;
};

class WireWorker;

class WireServer {
 public:
  WireServer(const Program& program, WireServerConfig config);
  ~WireServer();

  // Binds the listener and spawns the listener + worker threads. Returns
  // false with *error set on bind/setup failure.
  bool Start(std::string* error);
  // Resolved listen address (ephemeral TCP port filled in).
  const std::string& bound_address() const { return bound_address_; }

  // Initiates drain (idempotent, thread-safe). Wait() returns once every
  // worker has finalized its shard.
  void Stop();
  WireServerReport Wait();

 private:
  friend class WireWorker;

  // Listener-thread callback: assign fd round-robin to a worker.
  void OnAccept(int fd);
  // Called by workers on a client shutdown frame. expected_connections == 0
  // drains immediately; otherwise drain waits until that many accepts.
  void OnShutdownFrame(uint64_t expected_connections);
  void MaybeInitiateDrain();
  void InitiateDrain();

  const Program& program_;
  WireServerConfig config_;
  std::string bound_address_;

  Dispatcher listener_dispatcher_;
  Listener listener_;
  std::thread listener_thread_;

  std::vector<std::unique_ptr<WireWorker>> workers_;
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> expected_connections_{0};
  std::atomic<bool> drain_started_{false};
  std::atomic<size_t> workers_done_{0};
  bool started_ = false;
  bool waited_ = false;
};

}  // namespace karousos

#endif  // SRC_NET_WIRE_SERVER_H_
