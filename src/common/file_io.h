// Whole-file reads and writes for the stored audit inputs and outputs: the
// trace, the advice, KSEG containers, checkpoints, shard files and fixtures.
//
// The reader sizes its buffer from fstat and fills it with read(2), so a
// 30 MB trace costs one allocation and a few system calls rather than a
// stream pass per byte. It keeps reading to EOF, so a file whose st_size
// understates its contents (/proc files report 0) and a non-seekable input (a
// pipe, /dev/stdin) still read whole.
#ifndef SRC_COMMON_FILE_IO_H_
#define SRC_COMMON_FILE_IO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace karousos {

// The file's bytes; an empty file gives an empty buffer. nullopt when the
// path cannot be opened or a read fails (a directory gives EISDIR).
std::optional<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

// Creates or truncates `path` and writes `bytes`; false on any failure,
// including the final close.
bool WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes);

}  // namespace karousos

#endif  // SRC_COMMON_FILE_IO_H_
