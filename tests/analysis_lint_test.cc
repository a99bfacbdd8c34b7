// Advice-linter unit tests: one corruption per rule in the KAR-ADV catalogue
// (src/analysis/lint.h), each asserting that exactly the expected rule ID
// fires, plus clean-advice checks and the checked-in known-bad fixture. Each
// run is linted whole, as the one epoch of CheckRun(trace, advice, 0)
// (src/analysis/check.h).
//
// The corruptions target honest stacks advice — stacks exercises every
// advice section (handler logs, variable logs, transaction logs, write
// order) — so each test is "honest run, break one field, lint".
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/check.h"
#include "src/apps/app_util.h"
#include "src/audit/audit.h"
#include "src/common/file_io.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

ServerRunResult RunStacks(CollectMode mode = CollectMode::kKarousos) {
  WorkloadConfig wl;
  wl.app = "stacks";
  wl.kind = WorkloadKind::kMixed;
  wl.requests = 40;
  wl.seed = 7;
  wl.connections = 6;
  ServerConfig config;
  config.mode = mode;
  config.concurrency = 6;
  config.seed = 7;
  AppSpec app = MakeStacksApp();
  Server server(*app.program, config);
  return server.Run(GenerateWorkload(wl));
}

// Every finding of the model check over the run read as one epoch.
std::vector<LintDiagnostic> Lint(const Trace& trace, const Advice& advice) {
  return CheckRun(trace, advice, 0).diagnostics;
}

// True iff some diagnostic carries the rule.
bool HasRule(const std::vector<LintDiagnostic>& diagnostics, const std::string& rule) {
  for (const LintDiagnostic& d : diagnostics) {
    if (d.rule == rule) {
      return true;
    }
  }
  return false;
}

// Lints the corrupted run and additionally audits it, asserting that the
// audit's structured rejection names the same rule (the corruptions below
// each trip exactly one rule, which is therefore the first error).
void ExpectRule(const ServerRunResult& run, const std::string& rule) {
  std::vector<LintDiagnostic> diagnostics = Lint(run.trace, run.advice);
  EXPECT_TRUE(HasRule(diagnostics, rule)) << "lint did not report " << rule;
  ASSERT_FALSE(diagnostics.empty());
  EXPECT_EQ(diagnostics.front().rule, rule) << diagnostics.front().Format();

  AuditResult audit = AuditOnly(MakeStacksApp(), run.trace, run.advice,
                                IsolationLevel::kSerializable);
  EXPECT_FALSE(audit.accepted);
  EXPECT_EQ(audit.rule, rule) << audit.reason;
  EXPECT_NE(audit.reason.find(rule), std::string::npos) << audit.reason;
}

TEST(AnalysisLintTest, HonestKarousosAdviceIsClean) {
  ServerRunResult run = RunStacks();
  EXPECT_TRUE(Lint(run.trace, run.advice).empty());
}

TEST(AnalysisLintTest, HonestOrochiAdviceIsClean) {
  ServerRunResult run = RunStacks(CollectMode::kOrochi);
  EXPECT_TRUE(Lint(run.trace, run.advice).empty());
}

TEST(AnalysisLintTest, Rule001PhantomRequestId) {
  ServerRunResult run = RunStacks();
  run.advice.tags[999] = 1;
  ExpectRule(run, "KAR-ADV-001");
}

TEST(AnalysisLintTest, Rule002ReservedHandlerIdInOpcounts) {
  ServerRunResult run = RunStacks();
  run.advice.opcounts[{1, kInitHandlerId}] = 1;
  ExpectRule(run, "KAR-ADV-002");
}

TEST(AnalysisLintTest, Rule003DanglingPrec) {
  ServerRunResult run = RunStacks();
  bool corrupted = false;
  for (auto& [vid, log] : run.advice.var_logs) {
    for (auto& [op, entry] : log) {
      if (entry.kind == VarLogEntry::Kind::kRead) {
        entry.prec = OpRef{op.rid, op.hid, kOpNumInf - 1};
        corrupted = true;
        break;
      }
    }
    if (corrupted) {
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  ExpectRule(run, "KAR-ADV-003");
}

TEST(AnalysisLintTest, Rule004VarLogEntryBeyondOpcount) {
  ServerRunResult run = RunStacks();
  ASSERT_FALSE(run.advice.var_logs.empty());
  auto& [vid, log] = *run.advice.var_logs.begin();
  ASSERT_FALSE(log.empty());
  OpRef at = log.begin()->first;
  at.opnum = kOpNumInf - 1;
  VarLogEntry entry;
  entry.kind = VarLogEntry::Kind::kWrite;
  log.emplace(at, std::move(entry));
  ExpectRule(run, "KAR-ADV-004");
}

TEST(AnalysisLintTest, Rule005HandlerLogEntryOutOfRange) {
  ServerRunResult run = RunStacks();
  bool corrupted = false;
  for (auto& [rid, log] : run.advice.handler_logs) {
    if (!log.empty()) {
      log.front().opnum = 999;
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  ExpectRule(run, "KAR-ADV-005");
}

TEST(AnalysisLintTest, Rule006DuplicateOperationClaims) {
  ServerRunResult run = RunStacks();
  bool corrupted = false;
  for (auto& [rid, log] : run.advice.handler_logs) {
    if (!log.empty()) {
      log.push_back(log.front());
      // Grow the opcount so the duplicate clears the range check (005).
      run.advice.opcounts[{rid, log.front().hid}] += 1;
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  ExpectRule(run, "KAR-ADV-006");
}

TEST(AnalysisLintTest, Rule007ResponseEmittedByNonexistentOp) {
  ServerRunResult run = RunStacks();
  ASSERT_FALSE(run.advice.response_emitted_by.empty());
  run.advice.response_emitted_by.begin()->second = {0x1234u, 999u};
  ExpectRule(run, "KAR-ADV-007");
}

TEST(AnalysisLintTest, Rule008ResponseEmittedByMissing) {
  ServerRunResult run = RunStacks();
  ASSERT_FALSE(run.advice.response_emitted_by.empty());
  run.advice.response_emitted_by.erase(run.advice.response_emitted_by.begin());
  ExpectRule(run, "KAR-ADV-008");
}

TEST(AnalysisLintTest, Rule009WriteOrderDanglingReference) {
  ServerRunResult run = RunStacks();
  ASSERT_FALSE(run.advice.tx_logs.empty());
  run.advice.write_order.push_back(
      TxOpRef{run.advice.tx_logs.begin()->first.rid, 0xdeadbeefu, 1});
  ExpectRule(run, "KAR-ADV-009");
}

TEST(AnalysisLintTest, Rule010WriteOrderCycle) {
  ServerRunResult run = RunStacks();
  ASSERT_GE(run.advice.write_order.size(), 2u);
  run.advice.write_order.push_back(run.advice.write_order.front());
  ExpectRule(run, "KAR-ADV-010");
}

TEST(AnalysisLintTest, Rule011GetDictatingWriteOutOfRange) {
  ServerRunResult run = RunStacks();
  bool corrupted = false;
  for (auto& [txn, log] : run.advice.tx_logs) {
    for (TxOperation& op : log) {
      if (op.type == TxOpType::kGet && op.get_found) {
        op.get_from.index = 9999;
        corrupted = true;
        break;
      }
    }
    if (corrupted) {
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "stacks run produced no found GET";
  ExpectRule(run, "KAR-ADV-011");
}

TEST(AnalysisLintTest, Rule012TxLogEntryBeyondOpcount) {
  ServerRunResult run = RunStacks();
  ASSERT_FALSE(run.advice.tx_logs.empty());
  auto& [txn, log] = *run.advice.tx_logs.begin();
  ASSERT_FALSE(log.empty());
  TxOperation extra;
  extra.type = TxOpType::kTxAbort;
  extra.hid = log.front().hid;
  extra.opnum = 999;
  log.push_back(std::move(extra));
  ExpectRule(run, "KAR-ADV-012");
}

TEST(AnalysisLintTest, Rule013NondetRecordBeyondOpcount) {
  ServerRunResult run = RunStacks();
  ASSERT_FALSE(run.advice.opcounts.empty());
  const auto& [key, count] = *run.advice.opcounts.begin();
  run.advice.nondet[OpRef{key.first, key.second, count + 50}] =
      NondetRecord{NondetRecord::Kind::kValue, Value(int64_t{4})};
  ExpectRule(run, "KAR-ADV-013");
}

TEST(AnalysisLintTest, Rule014MissingTag) {
  ServerRunResult run = RunStacks();
  ASSERT_FALSE(run.advice.tags.empty());
  run.advice.tags.erase(run.advice.tags.begin());
  ExpectRule(run, "KAR-ADV-014");
}

TEST(AnalysisLintTest, LintIsDeterministic) {
  ServerRunResult run = RunStacks();
  run.advice.tags[999] = 1;
  run.advice.write_order.push_back(run.advice.write_order.front());
  std::vector<LintDiagnostic> first = Lint(run.trace, run.advice);
  std::vector<LintDiagnostic> second = Lint(run.trace, run.advice);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].Format(), second[i].Format());
  }
}

// The frozen tests/fixtures/lint_bad.* pair (DESIGN.md, "Analysis layer"):
// lint reports both planted corruptions; a full audit rejects with the first
// one, structured.
TEST(AnalysisLintTest, CheckedInFixtureReportsBothPlantedRules) {
  auto read_file = [](const std::string& path) {
    auto bytes = ReadFileBytes(path);
    EXPECT_TRUE(bytes.has_value()) << "missing fixture " << path;
    return bytes.value_or(FileBytes{});
  };
  const std::string dir = KAROUSOS_FIXTURE_DIR;
  FileBytes trace_bytes = read_file(dir + "/lint_bad.trace");
  FileBytes advice_bytes = read_file(dir + "/lint_bad.advice");
  ASSERT_FALSE(trace_bytes.empty());
  ASSERT_FALSE(advice_bytes.empty());

  ByteReader trace_reader(trace_bytes);
  auto trace = Trace::Deserialize(&trace_reader);
  ASSERT_TRUE(trace.has_value());
  ByteReader advice_reader(advice_bytes);
  auto advice = Advice::Deserialize(&advice_reader);
  ASSERT_TRUE(advice.has_value());

  std::vector<LintDiagnostic> diagnostics = Lint(*trace, *advice);
  EXPECT_TRUE(HasRule(diagnostics, "KAR-ADV-003"));
  EXPECT_TRUE(HasRule(diagnostics, "KAR-ADV-010"));

  AuditResult audit =
      AuditOnly(MakeStacksApp(), *trace, *advice, IsolationLevel::kSerializable);
  EXPECT_FALSE(audit.accepted);
  EXPECT_EQ(audit.rule, "KAR-ADV-003") << audit.reason;
  // The audit result carries every finding, not just the rejecting one.
  EXPECT_TRUE(HasRule(audit.diagnostics, "KAR-ADV-010"));
}

}  // namespace
}  // namespace karousos
