// Versioned, CRC-checked, length-framed segment container for epoch-sliced
// audit inputs. The collector emits the trace and the advice as a sequence of
// epoch segments instead of two monolithic blobs, and the verifier's
// AuditSession consumes them one epoch at a time — the streaming reader holds
// exactly one frame payload resident.
//
// File layout:
//   magic "KSEG" (4 bytes) | format version (1 byte) | frame*
// Frame layout (v1):
//   kind (1 byte) | epoch (varint) | payload length (varint)
//   | payload CRC-32 (fixed32, little-endian) | payload bytes
// Frame layout (v2): identical except a flags byte follows the kind byte:
//   kind (1 byte) | flags (1 byte) | epoch (varint) | ...
// The flags byte names the storage-class codec stages applied to the payload
// (src/common/kcodec.h); the CRC covers the stored (post-codec) bytes. A
// reader that understands only v1 rejects every v2 container through the
// format-version check, so flagged frames can never be misread as raw; a v2
// reader rejects any flag bit it does not know.
//
// Every decode failure is a diagnostic string, never a crash: a corrupted or
// truncated segment file is indistinguishable from server misbehavior and the
// audit must reject it cleanly.
#ifndef SRC_COMMON_SEGMENT_H_
#define SRC_COMMON_SEGMENT_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace karousos {

inline constexpr char kSegmentMagic[4] = {'K', 'S', 'E', 'G'};
inline constexpr uint8_t kSegmentFormatVersion = 1;
// v2 adds the per-frame flags byte. Raw (uncompressed) streams stay v1 so
// their bytes — pinned by the record-golden fixtures — are untouched.
inline constexpr uint8_t kSegmentFormatVersionV2 = 2;

enum class SegmentKind : uint8_t {
  kTrace = 1,          // One epoch's slice of the request/response trace.
  kAdvice = 2,         // One epoch's advice slice + continuity imports.
  kCheckpoint = 3,     // A serialized AuditSession CarryState.
  kShardBoundary = 4,  // Cross-shard boundary manifest (src/server/shard.h).
  kShardArtifact = 5,  // A shard's exported verdict state (src/verifier/shard_audit.h).
};

const char* SegmentKindName(SegmentKind kind);

struct SegmentRecord {
  SegmentKind kind = SegmentKind::kTrace;
  uint8_t flags = 0;           // Codec stages applied to payload (v2; 0 in v1).
  uint64_t epoch = 0;
  uint32_t crc = 0;            // Stored CRC (always matches payload on success).
  uint64_t offset = 0;         // Byte offset of the frame header in the file.
  std::vector<uint8_t> payload;
};

// Appends frames to an in-memory buffer, and optionally streams each frame to
// a file as it is appended (so an indefinitely-running collector never holds
// more than the current epoch in memory).
class SegmentWriter {
 public:
  // In-memory only; `format_version` selects v1 (no frame flags) or v2.
  explicit SegmentWriter(uint8_t format_version = kSegmentFormatVersion);
  // Streams to `path`; check ok() after construction.
  explicit SegmentWriter(const std::string& path,
                         uint8_t format_version = kSegmentFormatVersion);

  void Append(SegmentKind kind, uint64_t epoch, const std::vector<uint8_t>& payload);
  // v2 form: nonzero flags require a v2 writer (error otherwise).
  void Append(SegmentKind kind, uint64_t epoch, uint8_t flags,
              const std::vector<uint8_t>& payload);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  // The full container bytes (header + all frames). Only meaningful in
  // in-memory mode; in file mode frames are flushed as they are appended and
  // the buffer holds the same bytes unless `Append` is called after `Take`.
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
  std::ofstream file_;
  bool to_file_ = false;
  uint8_t version_ = kSegmentFormatVersion;
  std::string error_;
};

// Streaming reader: validates the header eagerly, then yields one frame per
// Next() call. Only the current frame's payload is resident.
class SegmentReader {
 public:
  // Opens `path`; on failure returns nullptr and sets *error.
  static std::unique_ptr<SegmentReader> OpenFile(const std::string& path, std::string* error);
  // Reads from an in-memory buffer (the buffer must outlive the reader); on a
  // malformed header returns nullptr and sets *error.
  static std::unique_ptr<SegmentReader> FromBytes(const uint8_t* data, size_t size,
                                                  std::string* error);

  // True and fills *out when a frame was read. False at clean end-of-file or
  // on error; distinguish with ok()/error().
  bool Next(SegmentRecord* out);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  uint8_t format_version() const { return version_; }

 private:
  SegmentReader() = default;
  bool ReadHeader(std::string* error);
  bool Pull(uint8_t* dest, size_t n, size_t* got);
  bool PullByte(uint8_t* b);
  bool PullVarint(uint64_t* v, const char* what, uint64_t frame_offset);
  void Fail(std::string msg) { error_ = std::move(msg); }

  std::ifstream file_;
  bool from_file_ = false;
  const uint8_t* mem_ = nullptr;
  size_t mem_size_ = 0;
  size_t pos_ = 0;  // Bytes consumed so far (both modes).
  uint8_t version_ = kSegmentFormatVersion;
  std::string error_;
};

// Reads a single-frame container (a checkpoint or a shard artifact): exactly
// one raw (flags 0) frame of `kind`, whose payload `decode` accepts and whose
// header epoch equals the epoch `decode` returns from the payload. `decode`
// returns nullopt, with its own message in *error, on a payload it refuses.
// On any failure returns false with *error set; *unreadable is then true
// when the bytes are not a readable segment container at all, and false when
// a readable container breaks these rules.
bool ReadSingleFrame(
    SegmentReader* reader, SegmentKind kind,
    const std::function<std::optional<uint64_t>(const std::vector<uint8_t>&, std::string*)>&
        decode,
    std::string* error, bool* unreadable);

// True iff the buffer starts with the segment container magic — used by the
// CLI to sniff segmented vs monolithic input files.
bool LooksLikeSegmentFile(std::span<const uint8_t> bytes);

}  // namespace karousos

#endif  // SRC_COMMON_SEGMENT_H_
