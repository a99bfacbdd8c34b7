// Wiki walkthrough: serves the paper's realistic workload mix (25% page
// creations, 15% comments, 60% renders) at configurable concurrency, prints
// the advice composition, audits, and compares against the Orochi-JS
// baseline. Usage:
//
//   ./build/examples/wiki_audit [requests] [concurrency]
#include <cstdio>
#include <cstdlib>

#include "src/audit/audit.h"
#include "src/workload/workload.h"

using namespace karousos;

int main(int argc, char** argv) {
  size_t requests = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 300;
  int concurrency = argc > 2 ? std::atoi(argv[2]) : 15;

  WorkloadConfig wl;
  wl.app = "wiki";
  wl.kind = WorkloadKind::kWikiMix;
  wl.requests = requests;
  wl.connections = concurrency;
  std::vector<Value> inputs = GenerateWorkload(wl);

  std::printf("serving %zu wiki requests at concurrency %d...\n", requests, concurrency);
  for (CollectMode mode : {CollectMode::kKarousos, CollectMode::kOrochi}) {
    AppSpec app = MakeWikiApp();
    ServerConfig config;
    config.mode = mode;
    config.concurrency = concurrency;
    Server server(*app.program, config);
    ServerRunResult run = server.Run(inputs);
    Advice::SizeBreakdown size = run.advice.MeasureSize();
    AppSpec verifier_app = MakeWikiApp();
    AuditResult audit = AuditOnly(verifier_app, run.trace, run.advice, config.isolation);
    std::printf("\n[%s]\n", CollectModeName(mode));
    std::printf("  server: %zu handler activations, %zu conflicts, %.3fs\n",
                run.handler_activations, run.conflicts, run.serve_seconds);
    std::printf("  advice: %zu B total | var logs %zu B | handler logs %zu B | tx logs %zu B\n",
                size.total, size.var_logs, size.handler_logs, size.tx_logs);
    std::printf("  audit:  %s | %zu groups | %zu handler executions | G: %zu nodes, %zu edges\n",
                audit.accepted ? "ACCEPTED" : "REJECTED", audit.stats.groups,
                audit.stats.handler_executions, audit.stats.graph_nodes,
                audit.stats.graph_edges);
    if (!audit.accepted) {
      std::printf("  !! %s\n", audit.reason.c_str());
      return 1;
    }
  }
  return 0;
}
