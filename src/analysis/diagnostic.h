// Typed diagnostics emitted by the analysis layer (advice linter, untracked
// race detector). Every finding carries a stable rule ID so that tests, the
// CLI, and the verifier's structured RejectErrors can name the exact check
// that fired, independent of message wording.
#ifndef SRC_ANALYSIS_DIAGNOSTIC_H_
#define SRC_ANALYSIS_DIAGNOSTIC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace karousos {

class ByteWriter;
class StateReader;

enum class LintSeverity : uint8_t {
  kError,    // Structurally invalid advice: the audit rejects up front.
  kWarning,  // Advisory (e.g. an untracked-variable race): reported, not fatal.
};

const char* LintSeverityName(LintSeverity severity);

struct LintDiagnostic {
  std::string rule;      // Stable rule ID, e.g. "KAR-ADV-003".
  LintSeverity severity = LintSeverity::kError;
  std::string location;  // Advice coordinates, e.g. "var_logs[0xbeef][(r1,h2a,3)].prec".
  std::string message;   // Human-readable explanation.

  // "KAR-ADV-003 error at var_logs[...]: ..." — the single-line rendering
  // used by the CLI and by the verifier's reject reasons.
  std::string Format() const;

  // One encoding wherever a diagnostic is carried (the checkpoint, the shard
  // artifact). The decoder refuses a severity byte that names no severity.
  static constexpr size_t kMinBytes = 4;  // Three empty strings and the severity.
  void Serialize(ByteWriter* out) const;
  static LintDiagnostic Deserialize(StateReader* in);
};

// True iff any diagnostic has error severity.
bool HasLintErrors(const std::vector<LintDiagnostic>& diagnostics);

}  // namespace karousos

#endif  // SRC_ANALYSIS_DIAGNOSTIC_H_
