#include "src/common/segment.h"

#include <cstring>

#include "src/common/kcodec.h"
#include "src/common/serde.h"

namespace karousos {

namespace {

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
  }
  return "unknown";
}

SegmentWriter::SegmentWriter(uint8_t format_version) : version_(format_version) {
  buf_.insert(buf_.end(), kSegmentMagic, kSegmentMagic + 4);
  buf_.push_back(version_);
  if (version_ != kSegmentFormatVersion && version_ != kSegmentFormatVersionV2) {
    error_ = "unsupported segment format version " + std::to_string(version_);
  }
}

SegmentWriter::SegmentWriter(const std::string& path, uint8_t format_version)
    : SegmentWriter(format_version) {
  to_file_ = true;
  file_.open(path, std::ios::binary | std::ios::trunc);
  if (!file_) {
    error_ = "cannot open segment file for writing: " + path;
    return;
  }
  file_.write(reinterpret_cast<const char*>(buf_.data()), static_cast<std::streamsize>(buf_.size()));
  if (!file_) {
    error_ = "write failed on segment file: " + path;
  }
}

void SegmentWriter::Append(SegmentKind kind, uint64_t epoch, const std::vector<uint8_t>& payload) {
  Append(kind, epoch, /*flags=*/0, payload);
}

void SegmentWriter::Append(SegmentKind kind, uint64_t epoch, uint8_t flags,
                           const std::vector<uint8_t>& payload) {
  if (!ok()) {
    return;
  }
  if (flags != 0 && version_ < kSegmentFormatVersionV2) {
    error_ = "frame flags require segment format version 2";
    return;
  }
  std::vector<uint8_t> frame;
  frame.push_back(static_cast<uint8_t>(kind));
  if (version_ >= kSegmentFormatVersionV2) {
    frame.push_back(flags);
  }
  AppendVarint(&frame, epoch);
  AppendVarint(&frame, payload.size());
  uint32_t crc = Crc32(payload);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<uint8_t>(crc >> (i * 8)));
  }
  frame.insert(frame.end(), payload.begin(), payload.end());
  buf_.insert(buf_.end(), frame.begin(), frame.end());
  if (to_file_) {
    file_.write(reinterpret_cast<const char*>(frame.data()), static_cast<std::streamsize>(frame.size()));
    file_.flush();
    if (!file_) {
      error_ = "write failed on segment file";
    }
  }
}

std::unique_ptr<SegmentReader> SegmentReader::OpenFile(const std::string& path,
                                                       std::string* error) {
  std::unique_ptr<SegmentReader> r(new SegmentReader());
  r->from_file_ = true;
  r->file_.open(path, std::ios::binary);
  if (!r->file_) {
    *error = "cannot open segment file: " + path;
    return nullptr;
  }
  if (!r->ReadHeader(error)) {
    return nullptr;
  }
  return r;
}

std::unique_ptr<SegmentReader> SegmentReader::FromBytes(const uint8_t* data, size_t size,
                                                        std::string* error) {
  std::unique_ptr<SegmentReader> r(new SegmentReader());
  r->mem_ = data;
  r->mem_size_ = size;
  if (!r->ReadHeader(error)) {
    return nullptr;
  }
  return r;
}

bool SegmentReader::Pull(uint8_t* dest, size_t n, size_t* got) {
  if (from_file_) {
    file_.read(reinterpret_cast<char*>(dest), static_cast<std::streamsize>(n));
    *got = static_cast<size_t>(file_.gcount());
  } else {
    size_t avail = mem_size_ - pos_;
    *got = n < avail ? n : avail;
    if (*got > 0) {  // An empty payload's dest (or an empty buffer) may be null.
      std::memcpy(dest, mem_ + pos_, *got);
    }
  }
  pos_ += *got;
  return *got == n;
}

bool SegmentReader::PullByte(uint8_t* b) {
  size_t got = 0;
  return Pull(b, 1, &got);
}

bool SegmentReader::PullVarint(uint64_t* v, const char* what, uint64_t frame_offset) {
  *v = 0;
  int shift = 0;
  uint8_t b = 0;
  while (PullByte(&b)) {
    if (shift >= 64) {
      Fail("segment frame at offset " + std::to_string(frame_offset) + ": malformed " +
           std::string(what) + " varint");
      return false;
    }
    *v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      return true;
    }
    shift += 7;
  }
  Fail("segment frame at offset " + std::to_string(frame_offset) + ": truncated " +
       std::string(what));
  return false;
}

bool SegmentReader::ReadHeader(std::string* error) {
  uint8_t header[5];
  size_t got = 0;
  if (!Pull(header, sizeof(header), &got)) {
    *error = "segment file too short for header (" + std::to_string(got) + " bytes)";
    return false;
  }
  if (std::memcmp(header, kSegmentMagic, 4) != 0) {
    *error = "not a segment file (bad magic)";
    return false;
  }
  if (header[4] != kSegmentFormatVersion && header[4] != kSegmentFormatVersionV2) {
    *error = "unsupported segment format version " + std::to_string(header[4]) + " (expected " +
             std::to_string(kSegmentFormatVersion) + " or " +
             std::to_string(kSegmentFormatVersionV2) + ")";
    return false;
  }
  version_ = header[4];
  return true;
}

bool SegmentReader::Next(SegmentRecord* out) {
  if (!ok()) {
    return false;
  }
  uint64_t frame_offset = pos_;
  uint8_t kind_byte = 0;
  if (!PullByte(&kind_byte)) {
    return false;  // Clean end of stream.
  }
  if (kind_byte < static_cast<uint8_t>(SegmentKind::kTrace) ||
      kind_byte > static_cast<uint8_t>(SegmentKind::kShardArtifact)) {
    Fail("segment frame at offset " + std::to_string(frame_offset) + ": unknown kind " +
         std::to_string(kind_byte));
    return false;
  }
  uint8_t flags = 0;
  if (version_ >= kSegmentFormatVersionV2) {
    if (!PullByte(&flags)) {
      Fail("segment frame at offset " + std::to_string(frame_offset) + ": truncated flags");
      return false;
    }
    if ((flags & ~kFrameFlagsKnownMask) != 0) {
      Fail("segment frame at offset " + std::to_string(frame_offset) +
           ": unknown frame flags 0x" + std::to_string(flags & ~kFrameFlagsKnownMask));
      return false;
    }
  }
  uint64_t epoch = 0;
  uint64_t length = 0;
  if (!PullVarint(&epoch, "epoch", frame_offset) ||
      !PullVarint(&length, "payload length", frame_offset)) {
    return false;
  }
  uint8_t crc_bytes[4];
  size_t got = 0;
  if (!Pull(crc_bytes, sizeof(crc_bytes), &got)) {
    Fail("segment frame at offset " + std::to_string(frame_offset) + ": truncated CRC");
    return false;
  }
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(crc_bytes[i]) << (i * 8);
  }
  // Guard the allocation: a corrupted length must not trigger a huge reserve.
  if (!from_file_ && length > mem_size_ - pos_) {
    Fail("segment frame at offset " + std::to_string(frame_offset) + ": truncated payload (want " +
         std::to_string(length) + " bytes, have " + std::to_string(mem_size_ - pos_) + ")");
    return false;
  }
  std::vector<uint8_t> payload;
  if (from_file_) {
    // Read in bounded chunks so a forged multi-gigabyte length fails at the
    // true file size instead of a bad_alloc.
    constexpr size_t kChunk = 1 << 20;
    uint64_t want = length;
    while (want > 0) {
      size_t step = want < kChunk ? static_cast<size_t>(want) : kChunk;
      size_t base = payload.size();
      payload.resize(base + step);
      if (!Pull(payload.data() + base, step, &got)) {
        Fail("segment frame at offset " + std::to_string(frame_offset) +
             ": truncated payload (want " + std::to_string(length) + " bytes, have " +
             std::to_string(payload.size() - step + got) + ")");
        return false;
      }
      want -= step;
    }
  } else {
    payload.resize(static_cast<size_t>(length));
    Pull(payload.data(), payload.size(), &got);
  }
  uint32_t computed = Crc32(payload);
  if (computed != stored_crc) {
    Fail("segment frame at offset " + std::to_string(frame_offset) + ": CRC mismatch (stored " +
         std::to_string(stored_crc) + ", computed " + std::to_string(computed) + ")");
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
