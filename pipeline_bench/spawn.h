// Child processes for the auditor's side of the pipeline.
//
// An auditor runs `karousos audit` / `audit-shard` / `audit-merge` as
// processes of their own, so their wall time and kernel peak RSS (wait4's
// ru_maxrss) are the numbers the user pays. ru_maxrss of a forked child
// starts from its parent's resident set, and the benchmark process holds
// hundreds of MB of traces and advice. So it forks one small launcher before
// it allocates anything; the launcher fork/execs every child, reaps it with
// wait4 and sends the usage back over a pipe.
#ifndef PIPELINE_BENCH_SPAWN_H_
#define PIPELINE_BENCH_SPAWN_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace pipeline_bench {

struct ChildSpec {
  std::vector<std::string> argv;  // argv[0] is the program path.
  std::string output_path;        // Receives the child's stdout and stderr.
};

struct ChildUsage {
  int exit_code = -1;  // -1 when the child died on a signal or never ran.
  double wall_s = 0;   // From fork to reaping, measured by the launcher.
  double max_rss_mb = 0;
  double user_s = 0;
  double sys_s = 0;
};

class Launcher {
 public:
  // Forks the launcher. Call first thing in main.
  Launcher();
  ~Launcher();
  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;

  // Starts every child at once and returns when all have exited, in the
  // order given. An empty result means the launcher itself failed.
  std::vector<ChildUsage> RunAll(const std::vector<ChildSpec>& children);
  ChildUsage Run(const ChildSpec& child);

 private:
  pid_t pid_ = -1;
  int to_launcher_ = -1;
  int from_launcher_ = -1;
};

}  // namespace pipeline_bench

#endif  // PIPELINE_BENCH_SPAWN_H_
