#include "src/common/segment.h"

#include <cstring>

#include "src/common/kcodec.h"
#include "src/common/serde.h"

namespace karousos {

namespace {

constexpr size_t kHeaderBytes = sizeof(kSegmentMagic) + 1;  // Magic, version.

void AppendVarint(std::vector<uint8_t>* buf, uint64_t v) {
  while (v >= 0x80) {
    buf->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf->push_back(static_cast<uint8_t>(v));
}

}  // namespace

const char* SegmentKindName(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::kTrace:
      return "trace";
    case SegmentKind::kAdvice:
      return "advice";
    case SegmentKind::kCheckpoint:
      return "checkpoint";
    case SegmentKind::kShardBoundary:
      return "shard-boundary";
    case SegmentKind::kShardArtifact:
      return "shard-artifact";
    case SegmentKind::kEpochManifest:
      return "epoch-manifest";
  }
  return "unknown";
}

SegmentWriter::SegmentWriter() {
  buf_.insert(buf_.end(), kSegmentMagic, kSegmentMagic + 4);
  buf_.push_back(kSegmentFormatVersion);
}

void SegmentWriter::Append(SegmentKind kind, uint64_t epoch, uint8_t flags,
                           const std::vector<uint8_t>& payload) {
  buf_.push_back(static_cast<uint8_t>(kind));
  buf_.push_back(flags);
  AppendVarint(&buf_, epoch);
  AppendVarint(&buf_, payload.size());
  uint32_t crc = Crc32(payload);
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<uint8_t>(crc >> (i * 8)));
  }
  buf_.insert(buf_.end(), payload.begin(), payload.end());
}

std::unique_ptr<SegmentReader> SegmentReader::FromBytes(const uint8_t* data, size_t size,
                                                        std::string* error) {
  if (size < kHeaderBytes) {
    *error = "segment file too short for header (" + std::to_string(size) + " bytes)";
    return nullptr;
  }
  if (std::memcmp(data, kSegmentMagic, 4) != 0) {
    *error = "not a segment file (bad magic)";
    return nullptr;
  }
  if (data[4] != kSegmentFormatVersion) {
    *error = "unsupported segment format version " + std::to_string(data[4]) + " (expected " +
             std::to_string(kSegmentFormatVersion) + ")";
    return nullptr;
  }
  return std::unique_ptr<SegmentReader>(new SegmentReader(data, size));
}

void SegmentReader::Fail(uint64_t frame_offset, const std::string& msg) {
  error_ = "segment frame at offset " + std::to_string(frame_offset) + ": " + msg;
}

bool SegmentReader::PullVarint(uint64_t* v, const char* what, uint64_t frame_offset) {
  *v = 0;
  int shift = 0;
  while (pos_ < size_) {
    const uint8_t b = data_[pos_++];
    if (shift >= 64) {
      Fail(frame_offset, "malformed " + std::string(what) + " varint");
      return false;
    }
    *v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      return true;
    }
    shift += 7;
  }
  Fail(frame_offset, "truncated " + std::string(what));
  return false;
}

bool SegmentReader::Next(SegmentRecord* out) {
  if (!ok() || pos_ == size_) {
    return false;  // Broken, or a clean end of stream.
  }
  const uint64_t frame_offset = pos_;
  const uint8_t kind_byte = data_[pos_++];
  if (kind_byte < static_cast<uint8_t>(SegmentKind::kTrace) ||
      kind_byte > static_cast<uint8_t>(SegmentKind::kEpochManifest)) {
    Fail(frame_offset, "unknown kind " + std::to_string(kind_byte));
    return false;
  }
  if (pos_ == size_) {
    Fail(frame_offset, "truncated flags");
    return false;
  }
  const uint8_t flags = data_[pos_++];
  if ((flags & ~kFrameFlagsKnownMask) != 0) {
    Fail(frame_offset, "unknown frame flags 0x" + std::to_string(flags & ~kFrameFlagsKnownMask));
    return false;
  }
  uint64_t epoch = 0;
  uint64_t length = 0;
  if (!PullVarint(&epoch, "epoch", frame_offset) ||
      !PullVarint(&length, "payload length", frame_offset)) {
    return false;
  }
  if (size_ - pos_ < 4) {
    Fail(frame_offset, "truncated CRC");
    return false;
  }
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(data_[pos_++]) << (i * 8);
  }
  // Checked before the copy: a forged length never reaches an allocation.
  if (length > size_ - pos_) {
    Fail(frame_offset, "truncated payload (want " + std::to_string(length) + " bytes, have " +
                           std::to_string(size_ - pos_) + ")");
    return false;
  }
  std::vector<uint8_t> payload(data_ + pos_, data_ + pos_ + length);
  pos_ += length;
  const uint32_t computed = Crc32(payload);
  if (computed != stored_crc) {
    Fail(frame_offset, "CRC mismatch (stored " + std::to_string(stored_crc) + ", computed " +
                           std::to_string(computed) + ")");
    return false;
  }
  out->kind = static_cast<SegmentKind>(kind_byte);
  out->flags = flags;
  out->epoch = epoch;
  out->crc = stored_crc;
  out->offset = frame_offset;
  out->payload = std::move(payload);
  return true;
}

bool ReadSingleFrame(
    SegmentReader* reader, SegmentKind kind,
    const std::function<std::optional<uint64_t>(const std::vector<uint8_t>&, std::string*)>&
        decode,
    std::string* error, bool* unreadable) {
  const std::string name = SegmentKindName(kind);
  *unreadable = false;
  const auto unreadable_container = [&] {
    *unreadable = true;
    *error = "unreadable segment container: " + reader->error();
    return false;
  };
  SegmentRecord rec;
  if (!reader->Next(&rec)) {
    if (!reader->ok()) return unreadable_container();
    *error = "container holds no " + name + " frame";
    return false;
  }
  if (rec.kind != kind) {
    *error = "container must hold a " + name + " frame, found " + SegmentKindName(rec.kind);
    return false;
  }
  if (rec.flags != 0) {
    *error = name + " frame must be raw (flags 0)";
    return false;
  }
  std::optional<uint64_t> epoch = decode(rec.payload, error);
  if (!epoch) return false;
  if (rec.epoch != *epoch) {
    *error = name + " frame header's epoch " + std::to_string(rec.epoch) +
             " disagrees with its payload's " + std::to_string(*epoch);
    return false;
  }
  if (reader->Next(&rec)) {
    *error = "container holds more than one frame";
    return false;
  }
  if (!reader->ok()) return unreadable_container();
  return true;
}

bool LooksLikeSegmentFile(std::span<const uint8_t> bytes) {
  return bytes.size() >= 4 && std::memcmp(bytes.data(), kSegmentMagic, 4) == 0;
}

}  // namespace karousos
