#include "src/common/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace karousos {

namespace {

// The first buffer for an input whose size fstat cannot tell (a pipe, a
// /proc file); it doubles as it fills.
constexpr size_t kUnsizedChunk = 64 * 1024;

// Closes the descriptor on every return path.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  // Closes now and reports whether close succeeded (a write's last error can
  // surface here).
  bool Close() {
    int fd = fd_;
    fd_ = -1;
    return ::close(fd) == 0;
  }

 private:
  int fd_;
};

}  // namespace

std::optional<FileBytes> ReadFileBytes(const std::string& path) {
  Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) {
    return std::nullopt;
  }
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) {
    return std::nullopt;
  }
  // One byte past a regular file's size, so the read that meets EOF has room
  // and the buffer never grows for a file that did not.
  FileBytes buf(S_ISREG(st.st_mode) && st.st_size > 0 ? static_cast<size_t>(st.st_size) + 1
                                                     : kUnsizedChunk);
  size_t got = 0;
  while (true) {
    if (got == buf.size()) {
      buf.resize(buf.size() * 2);
    }
    ssize_t n = ::read(fd.get(), buf.data() + got, buf.size() - got);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return std::nullopt;
    }
    if (n == 0) {
      break;
    }
    got += static_cast<size_t>(n);
  }
  buf.resize(got);
  return buf;
}

bool WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  Fd fd(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666));
  if (fd.get() < 0) {
    return false;
  }
  size_t put = 0;
  while (put < bytes.size()) {
    ssize_t n = ::write(fd.get(), bytes.data() + put, bytes.size() - put);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    put += static_cast<size_t>(n);
  }
  return fd.Close();
}

}  // namespace karousos
