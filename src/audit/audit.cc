#include "src/audit/audit.h"

#include "src/audit/stream.h"

namespace karousos {

AuditPipelineResult RunAndAudit(const AppSpec& app, const std::vector<Value>& inputs,
                                const ServerConfig& config, unsigned audit_threads) {
  AuditPipelineResult result;
  Server server(*app.program, config);
  result.server = server.Run(inputs);
  result.audit = AuditOnly(app, result.server.trace, result.server.advice,
                           VerifierConfig{config.isolation, audit_threads},
                           &result.server.untracked_accesses);
  return result;
}

AuditResult AuditOnly(const AppSpec& app, const Trace& trace, const Advice& advice,
                      const VerifierConfig& config, const UntrackedAccessLog* untracked) {
  return AuditStreamed(app, trace, advice, config, kDefaultEpochRequests, untracked).audit;
}

AuditResult AuditOnly(const AppSpec& app, const Trace& trace, const Advice& advice,
                      IsolationLevel isolation, const UntrackedAccessLog* untracked) {
  return AuditOnly(app, trace, advice, VerifierConfig{isolation, 1}, untracked);
}

}  // namespace karousos
