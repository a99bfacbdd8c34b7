// Versioned, CRC-checked, length-framed segment container for epoch-sliced
// audit inputs. The collector emits the trace and the advice as a sequence of
// epoch segments instead of two monolithic blobs, and the verifier's
// AuditSession consumes them one epoch at a time. Every container is read from
// memory (src/common/file_io.h reads a file whole); the reader copies out one
// frame payload per Next() call.
//
// File layout:
//   magic "KSEG" (4 bytes) | format version (1 byte) | frame*
// Frame layout:
//   kind (1 byte) | flags (1 byte) | epoch (varint) | payload length (varint)
//   | payload CRC-32 (fixed32, little-endian) | payload bytes
// The flags byte names the storage-class codec stages applied to the payload
// (src/common/kcodec.h); 0 is a raw payload. The CRC covers the stored
// (post-codec) bytes. A reader rejects any flag bit it does not know, and
// any format version but this one.
//
// An epoch container (the trace or the advice stream of a run) opens with one
// raw kEpochManifest frame at epoch 0, whose payload is the canonical varint
// of the epoch size the writer sliced at; the epoch frames follow
// (src/server/rollover.h). A shard file opens with its kShardBoundary frame
// instead, which states the same size; checkpoints and shard artifacts hold
// one frame each.
//
// Every decode failure is a diagnostic string, never a crash: a corrupted or
// truncated segment file is indistinguishable from server misbehavior and the
// audit must reject it cleanly.
#ifndef SRC_COMMON_SEGMENT_H_
#define SRC_COMMON_SEGMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace karousos {

inline constexpr char kSegmentMagic[4] = {'K', 'S', 'E', 'G'};
// Version 1 frames had no flags byte and version 2 frames had one; both are
// retired, and every frame now carries it.
inline constexpr uint8_t kSegmentFormatVersion = 3;

enum class SegmentKind : uint8_t {
  kTrace = 1,          // One epoch's slice of the request/response trace.
  kAdvice = 2,         // One epoch's advice slice + continuity imports.
  kCheckpoint = 3,     // A serialized AuditSession CarryState.
  kShardBoundary = 4,  // Cross-shard boundary manifest (src/server/shard.h).
  kShardArtifact = 5,  // A shard's exported verdict state (src/verifier/shard_audit.h).
  kEpochManifest = 6,  // An epoch container's epoch size (src/server/rollover.h).
};

const char* SegmentKindName(SegmentKind kind);

struct SegmentRecord {
  SegmentKind kind = SegmentKind::kTrace;
  uint8_t flags = 0;           // Codec stages applied to payload (0 = raw).
  uint64_t epoch = 0;
  uint32_t crc = 0;            // Stored CRC (always matches payload on success).
  uint64_t offset = 0;         // Byte offset of the frame header in the file.
  std::vector<uint8_t> payload;
};

// Appends frames to an in-memory buffer.
class SegmentWriter {
 public:
  SegmentWriter();

  void Append(SegmentKind kind, uint64_t epoch, const std::vector<uint8_t>& payload) {
    Append(kind, epoch, /*flags=*/0, payload);
  }
  void Append(SegmentKind kind, uint64_t epoch, uint8_t flags,
              const std::vector<uint8_t>& payload);

  // The full container bytes (header + all frames).
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

// Frame-at-a-time reader over an in-memory container: validates the header
// eagerly, then yields one frame per Next() call.
class SegmentReader {
 public:
  // Reads from `data` (which must outlive the reader); on a malformed header
  // returns nullptr and sets *error.
  static std::unique_ptr<SegmentReader> FromBytes(const uint8_t* data, size_t size,
                                                  std::string* error);

  // True and fills *out when a frame was read. False at clean end-of-file or
  // on error; distinguish with ok()/error().
  bool Next(SegmentRecord* out);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  // Starts past the header, which FromBytes has checked.
  SegmentReader(const uint8_t* data, size_t size) : data_(data), size_(size), pos_(5) {}
  bool PullVarint(uint64_t* v, const char* what, uint64_t frame_offset);
  void Fail(uint64_t frame_offset, const std::string& msg);

  const uint8_t* data_;
  size_t size_;
  size_t pos_;  // Bytes consumed so far.
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
