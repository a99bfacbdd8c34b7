// Whole-file reads and writes for the stored audit inputs and outputs: the
// trace, the advice, KSEG containers, checkpoints, shard files and fixtures.
//
// The reader sizes its buffer from fstat and fills it with read(2), so a
// 30 MB trace costs one allocation and a few system calls rather than a
// stream pass per byte; the buffer is not zeroed first, since read(2)
// overwrites it. It keeps reading to EOF, so a file whose st_size
// understates its contents (/proc files report 0) and a non-seekable input (a
// pipe, /dev/stdin) still read whole.
#ifndef SRC_COMMON_FILE_IO_H_
#define SRC_COMMON_FILE_IO_H_

#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

namespace karousos {

// An allocator whose value-less construct default-initializes, so resize()
// leaves new bytes as they are instead of zeroing them. The explicit rebind
// keeps a container's rebound allocator this one, not std::allocator.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}  // NOLINT

  // Construction with arguments falls through to std::construct_at.
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
};

// A whole file's bytes. Byte consumers take std::span<const uint8_t>, which
// a FileBytes and a std::vector<uint8_t> both convert to.
using FileBytes = std::vector<uint8_t, DefaultInitAllocator<uint8_t>>;

// The file's bytes; an empty file gives an empty buffer. nullopt when the
// path cannot be opened or a read fails (a directory gives EISDIR).
std::optional<FileBytes> ReadFileBytes(const std::string& path);

// Creates or truncates `path` and writes `bytes`; false on any failure,
// including the final close.
bool WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes);

}  // namespace karousos

#endif  // SRC_COMMON_FILE_IO_H_
