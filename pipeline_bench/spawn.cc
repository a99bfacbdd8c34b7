#include "pipeline_bench/spawn.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>

#include "pipeline_bench/spans.h"

namespace pipeline_bench {
namespace {

bool WriteAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    ssize_t n = write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    ssize_t n = read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool WriteString(int fd, const std::string& s) {
  uint32_t len = static_cast<uint32_t>(s.size());
  return WriteAll(fd, &len, sizeof(len)) && WriteAll(fd, s.data(), s.size());
}

bool ReadString(int fd, std::string* s) {
  uint32_t len = 0;
  if (!ReadAll(fd, &len, sizeof(len))) return false;
  s->assign(len, '\0');
  return len == 0 || ReadAll(fd, s->data(), len);
}

pid_t StartChild(const ChildSpec& spec) {
  std::vector<char*> argv;
  for (const std::string& a : spec.argv) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = fork();
  if (pid == 0) {
    int out = open(spec.output_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out >= 0) {
      dup2(out, STDOUT_FILENO);
      dup2(out, STDERR_FILENO);
      close(out);
    }
    execv(argv[0], argv.data());
    std::fprintf(stderr, "execv %s: %s\n", argv[0], std::strerror(errno));
    _exit(127);
  }
  return pid;
}

// The launcher's loop: one request is a batch of children, all started
// before any is reaped; the reply lists their usage in request order.
[[noreturn]] void Serve(int in, int out) {
  for (;;) {
    uint32_t count = 0;
    if (!ReadAll(in, &count, sizeof(count))) _exit(0);
    std::vector<ChildSpec> specs(count);
    for (ChildSpec& spec : specs) {
      uint32_t argc = 0;
      if (!ReadAll(in, &argc, sizeof(argc))) _exit(1);
      spec.argv.resize(argc);
      for (std::string& a : spec.argv) {
        if (!ReadString(in, &a)) _exit(1);
      }
      if (!ReadString(in, &spec.output_path)) _exit(1);
    }
    std::vector<ChildUsage> usage(count);
    std::map<pid_t, size_t> running;
    std::vector<double> started(count, 0);
    for (size_t i = 0; i < count; ++i) {
      started[i] = Now();
      pid_t pid = StartChild(specs[i]);
      if (pid > 0) running[pid] = i;
    }
    while (!running.empty()) {
      int status = 0;
      struct rusage ru;
      std::memset(&ru, 0, sizeof(ru));
      pid_t pid = wait4(-1, &status, 0, &ru);
      if (pid < 0) {
        if (errno == EINTR) continue;
        break;
      }
      auto it = running.find(pid);
      if (it == running.end()) continue;
      ChildUsage& u = usage[it->second];
      u.wall_s = Now() - started[it->second];
      u.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
      u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6;
      u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6;
      running.erase(it);
    }
    if (!WriteAll(out, usage.data(), usage.size() * sizeof(ChildUsage))) _exit(1);
  }
}

}  // namespace

Launcher::Launcher() {
  int down[2];
  int up[2];
  if (pipe(down) != 0 || pipe(up) != 0) return;
  pid_ = fork();
  if (pid_ == 0) {
    close(down[1]);
    close(up[0]);
    Serve(down[0], up[1]);
  }
  close(down[0]);
  close(up[1]);
  if (pid_ < 0) {
    close(down[1]);
    close(up[0]);
    return;
  }
  to_launcher_ = down[1];
  from_launcher_ = up[0];
}

Launcher::~Launcher() {
  if (to_launcher_ >= 0) close(to_launcher_);  // EOF ends the launcher's loop.
  if (from_launcher_ >= 0) close(from_launcher_);
  if (pid_ > 0) {
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

std::vector<ChildUsage> Launcher::RunAll(const std::vector<ChildSpec>& children) {
  if (to_launcher_ < 0) return {};
  uint32_t count = static_cast<uint32_t>(children.size());
  bool ok = WriteAll(to_launcher_, &count, sizeof(count));
  for (const ChildSpec& child : children) {
    uint32_t argc = static_cast<uint32_t>(child.argv.size());
    ok = ok && WriteAll(to_launcher_, &argc, sizeof(argc));
    for (const std::string& a : child.argv) ok = ok && WriteString(to_launcher_, a);
    ok = ok && WriteString(to_launcher_, child.output_path);
  }
  std::vector<ChildUsage> usage(children.size());
  if (!ok || !ReadAll(from_launcher_, usage.data(), usage.size() * sizeof(ChildUsage))) {
    return {};
  }
  return usage;
}

ChildUsage Launcher::Run(const ChildSpec& child) {
  std::vector<ChildUsage> usage = RunAll({child});
  return usage.empty() ? ChildUsage{} : usage[0];
}

}  // namespace pipeline_bench
