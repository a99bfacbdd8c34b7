// The whole-file reader and writer every stored input and output goes
// through: sized reads of regular files, reads to EOF of inputs whose size
// fstat cannot tell, and read errors kept apart from empty files.
#include "src/common/file_io.h"

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace karousos {
namespace {

// A fresh directory for one test, removed with its files at the end.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "file_io_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    path_ = ::mkdtemp(buf.data()) != nullptr ? std::string(buf.data()) : std::string();
  }
  ~TempDir() {
    for (const std::string& f : files_) {
      ::unlink(f.c_str());
    }
    if (!path_.empty()) {
      ::rmdir(path_.c_str());
    }
  }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) {
    files_.push_back(path_ + "/" + name);
    return files_.back();
  }

 private:
  std::string path_;
  std::vector<std::string> files_;
};

TEST(FileIoTest, EmptyFileReadsAsEmptyBuffer) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.File("empty");
  ASSERT_TRUE(WriteFileBytes(path, {}));
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_TRUE(bytes->empty());
}

TEST(FileIoTest, MissingPathIsNotARead) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  EXPECT_FALSE(ReadFileBytes(dir.path() + "/absent").has_value());
  EXPECT_FALSE(WriteFileBytes(dir.path() + "/absent/file", {1, 2, 3}));
}

// open(2) succeeds on a directory; the read fails with EISDIR, which must
// not pass for an empty file.
TEST(FileIoTest, DirectoryIsNotARead) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  EXPECT_FALSE(ReadFileBytes(dir.path()).has_value());
  EXPECT_FALSE(WriteFileBytes(dir.path(), {1}));
}

// /proc files report st_size 0 but hold data: the reader goes on to EOF.
TEST(FileIoTest, ZeroSizedProcFileReadsWhole) {
  auto bytes = ReadFileBytes("/proc/self/status");
  ASSERT_TRUE(bytes.has_value());
  ASSERT_FALSE(bytes->empty());
  const std::string text(bytes->begin(), bytes->end());
  EXPECT_NE(text.find("VmRSS"), std::string::npos);
}

std::vector<uint8_t> AsVector(const FileBytes& bytes) { return {bytes.begin(), bytes.end()}; }

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) {
    b = static_cast<uint8_t>(rng());
  }
  return out;
}

TEST(FileIoTest, LargeFileRoundTripsByteForByte) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.File("random");
  const std::vector<uint8_t> data = RandomBytes(3 << 20, 25);
  ASSERT_TRUE(WriteFileBytes(path, data));
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(AsVector(*bytes), data);

  // A rewrite truncates: the shorter contents are all that is read back.
  const std::vector<uint8_t> shorter(data.begin(), data.begin() + 1000);
  ASSERT_TRUE(WriteFileBytes(path, shorter));
  bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(AsVector(*bytes), shorter);
}

// A pipe cannot be sized: the reader grows its buffer until the writer
// closes its end.
TEST(FileIoTest, PipeReadsToEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::vector<uint8_t> data = RandomBytes((1 << 20) + 123, 7);
  std::thread writer([&] {
    size_t put = 0;
    while (put < data.size()) {
      ssize_t n = ::write(fds[1], data.data() + put, data.size() - put);
      if (n <= 0) {
        break;
      }
      put += static_cast<size_t>(n);
    }
    ::close(fds[1]);
  });
  auto bytes = ReadFileBytes("/proc/self/fd/" + std::to_string(fds[0]));
  writer.join();
  ::close(fds[0]);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(AsVector(*bytes), data);
}

}  // namespace
}  // namespace karousos
