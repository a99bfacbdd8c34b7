// One-call audit pipeline: run an application at the (instrumented) server,
// collect trace + advice, and verify. This is the API the examples, tests,
// and benches drive; it mirrors the deployment story of §2.1 — collector in
// front of the server, verifier at the principal. Both calls are thin
// wrappers over the one audit path, the epoch stream (src/audit/stream.h):
// the run is sliced at kDefaultEpochRequests and fed epoch by epoch.
#ifndef SRC_AUDIT_AUDIT_H_
#define SRC_AUDIT_AUDIT_H_

#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/server/server.h"
#include "src/trace/trace.h"
#include "src/verifier/verifier.h"

namespace karousos {

struct AuditPipelineResult {
  ServerRunResult server;
  AuditResult audit;
};

// Serves `inputs` with the given config, then audits the result with a fresh
// verifier holding the same program. The server's untracked-access log is fed
// to the verifier's race detector, so warnings appear in audit.diagnostics.
// `audit_threads` is VerifierConfig::threads (1 = serial, 0 = all hardware
// threads, N = N audit workers); the result is identical for every value.
AuditPipelineResult RunAndAudit(const AppSpec& app, const std::vector<Value>& inputs,
                                const ServerConfig& config, unsigned audit_threads = 1);

// Audit only (server output already in hand): AuditStreamed at
// kDefaultEpochRequests. Pass the server's untracked-access log to
// additionally run the §5 race detector.
AuditResult AuditOnly(const AppSpec& app, const Trace& trace, const Advice& advice,
                      const VerifierConfig& config, const UntrackedAccessLog* untracked = nullptr);

// Convenience overload: serial audit at the given isolation level.
AuditResult AuditOnly(const AppSpec& app, const Trace& trace, const Advice& advice,
                      IsolationLevel isolation, const UntrackedAccessLog* untracked = nullptr);

}  // namespace karousos

#endif  // SRC_AUDIT_AUDIT_H_
