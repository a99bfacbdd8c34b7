// Wire-protocol framing: torn-frame safety (every byte-boundary split of a
// valid multi-request stream decodes identically), eager rejection of
// streams that can never become valid (bad preface, unknown type, oversized
// length), and payload codec round-trips.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/serde.h"
#include "src/common/value.h"
#include "src/net/buffer.h"
#include "src/net/frame.h"

namespace karousos {
namespace {

// A representative client stream: preface, three requests with mixed-shape
// payloads, and a shutdown frame.
std::vector<uint8_t> SampleClientStream() {
  ByteWriter out;
  AppendWirePreface(&out);
  EncodeRequestFrame(0, Value("motd-read"), &out);
  ValueMap m;
  m.emplace("op", Value("set"));
  m.emplace("text", Value(std::string(300, 'x')));
  EncodeRequestFrame(1, Value(std::move(m)), &out);
  EncodeRequestFrame(2, Value(int64_t{42}), &out);
  EncodeShutdownFrame(uint64_t{3}, &out);
  return out.bytes();
}

struct Decoded {
  std::vector<WireFrame> frames;
  bool error = false;
  std::string error_message;
};

// Feeds `stream` into a fresh decoder in chunks of `chunk_size` bytes and
// collects every decoded frame.
Decoded DecodeInChunks(const std::vector<uint8_t>& stream, size_t chunk_size) {
  Decoded result;
  WatermarkBuffer buf;
  FrameDecoder decoder(kDefaultMaxFrameBytes, /*expect_preface=*/true);
  for (size_t offset = 0; offset < stream.size(); offset += chunk_size) {
    size_t n = std::min(chunk_size, stream.size() - offset);
    buf.Append(stream.data() + offset, n);
    for (;;) {
      WireFrame frame;
      DecodeStatus status = decoder.Next(&buf, &frame);
      if (status == DecodeStatus::kFrame) {
        result.frames.push_back(std::move(frame));
        continue;
      }
      if (status == DecodeStatus::kError) {
        result.error = true;
        result.error_message = decoder.error();
      }
      break;
    }
    if (result.error) {
      break;
    }
  }
  return result;
}

TEST(FrameDecoderTest, EveryChunkSizeDecodesIdentically) {
  const std::vector<uint8_t> stream = SampleClientStream();
  const Decoded oracle = DecodeInChunks(stream, stream.size());
  ASSERT_FALSE(oracle.error);
  ASSERT_EQ(oracle.frames.size(), 4u);

  for (size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    Decoded got = DecodeInChunks(stream, chunk);
    ASSERT_FALSE(got.error) << "chunk size " << chunk;
    ASSERT_EQ(got.frames.size(), oracle.frames.size()) << "chunk size " << chunk;
    for (size_t i = 0; i < oracle.frames.size(); ++i) {
      EXPECT_EQ(static_cast<int>(got.frames[i].type), static_cast<int>(oracle.frames[i].type))
          << "chunk size " << chunk << ", frame " << i;
      EXPECT_EQ(got.frames[i].payload, oracle.frames[i].payload)
          << "chunk size " << chunk << ", frame " << i;
    }
  }
}

TEST(FrameDecoderTest, EveryTwoPartSplitDecodesIdentically) {
  const std::vector<uint8_t> stream = SampleClientStream();
  const Decoded oracle = DecodeInChunks(stream, stream.size());

  for (size_t split = 1; split < stream.size(); ++split) {
    WatermarkBuffer buf;
    FrameDecoder decoder(kDefaultMaxFrameBytes, /*expect_preface=*/true);
    std::vector<WireFrame> frames;
    auto drain = [&] {
      for (;;) {
        WireFrame frame;
        DecodeStatus status = decoder.Next(&buf, &frame);
        if (status != DecodeStatus::kFrame) {
          ASSERT_NE(status, DecodeStatus::kError) << "split at " << split;
          return;
        }
        frames.push_back(std::move(frame));
      }
    };
    buf.Append(stream.data(), split);
    drain();
    buf.Append(stream.data() + split, stream.size() - split);
    drain();
    ASSERT_EQ(frames.size(), oracle.frames.size()) << "split at " << split;
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].payload, oracle.frames[i].payload) << "split at " << split;
    }
  }
}

TEST(FrameDecoderTest, RequestPayloadRoundTrip) {
  const std::vector<uint8_t> stream = SampleClientStream();
  Decoded decoded = DecodeInChunks(stream, 7);
  ASSERT_EQ(decoded.frames.size(), 4u);

  uint64_t seq = 0;
  Value value;
  ASSERT_TRUE(DecodeSeqValuePayload(decoded.frames[0].payload, &seq, &value));
  EXPECT_EQ(seq, 0u);
  EXPECT_EQ(value, Value("motd-read"));

  ASSERT_TRUE(DecodeSeqValuePayload(decoded.frames[2].payload, &seq, &value));
  EXPECT_EQ(seq, 2u);
  EXPECT_EQ(value, Value(int64_t{42}));

  uint64_t expected_conns = 0;
  ASSERT_EQ(static_cast<int>(decoded.frames[3].type), static_cast<int>(FrameType::kShutdown));
  ASSERT_TRUE(DecodeShutdownPayload(decoded.frames[3].payload, &expected_conns));
  EXPECT_EQ(expected_conns, 3u);
}

TEST(FrameDecoderTest, BadPrefaceRejectsBeforeFullPrefaceArrives) {
  WatermarkBuffer buf;
  FrameDecoder decoder(kDefaultMaxFrameBytes, /*expect_preface=*/true);
  const uint8_t garbage[] = {'G', 'E', 'T', ' '};
  buf.Append(garbage, sizeof(garbage));
  WireFrame frame;
  EXPECT_EQ(decoder.Next(&buf, &frame), DecodeStatus::kError);
  EXPECT_NE(decoder.error().find("preface"), std::string::npos);
  // The decoder is dead: further calls keep failing.
  EXPECT_EQ(decoder.Next(&buf, &frame), DecodeStatus::kError);
}

TEST(FrameDecoderTest, UnknownFrameTypeRejects) {
  ByteWriter out;
  AppendWirePreface(&out);
  const uint8_t bogus[] = {0x77, 0x01, 0x00, 0x00, 0x00, 0xFF};
  out.WriteBytes(bogus, sizeof(bogus));
  Decoded decoded = DecodeInChunks(out.bytes(), out.bytes().size());
  EXPECT_TRUE(decoded.error);
  EXPECT_NE(decoded.error_message.find("unknown frame type"), std::string::npos);
}

TEST(FrameDecoderTest, OversizedLengthRejectsWithoutBuffering) {
  ByteWriter out;
  AppendWirePreface(&out);
  // type kRequest, length 0xFFFFFFFF: can never complete under the limit.
  const uint8_t header[] = {0x01, 0xFF, 0xFF, 0xFF, 0xFF};
  out.WriteBytes(header, sizeof(header));
  Decoded decoded = DecodeInChunks(out.bytes(), out.bytes().size());
  EXPECT_TRUE(decoded.error);
  EXPECT_NE(decoded.error_message.find("exceeds limit"), std::string::npos);

  // FrameReady must report "ready" for the poisoned head so a puller runs
  // Next and latches the error rather than waiting forever.
  WatermarkBuffer buf;
  FrameDecoder decoder(1024, /*expect_preface=*/false);
  buf.Append(header, sizeof(header));
  EXPECT_TRUE(decoder.FrameReady(buf));
  WireFrame frame;
  EXPECT_EQ(decoder.Next(&buf, &frame), DecodeStatus::kError);
}

TEST(FrameDecoderTest, HeadValidFlagsGarbageWithoutConsuming) {
  WatermarkBuffer buf;
  FrameDecoder decoder(1024, /*expect_preface=*/true);
  std::string error;

  // Valid prefix of the preface: still plausible.
  buf.Append(reinterpret_cast<const uint8_t*>(kWirePreface), 3);
  EXPECT_TRUE(decoder.HeadValid(buf, &error));
  // One wrong byte: rejected immediately.
  const uint8_t wrong = 'Z';
  buf.Append(&wrong, 1);
  EXPECT_FALSE(decoder.HeadValid(buf, &error));
  EXPECT_NE(error.find("preface"), std::string::npos);
  // Nothing was consumed.
  EXPECT_EQ(buf.size(), 4u);
}

TEST(FrameDecoderTest, HeadValidFlagsOversizedLengthAfterPreface) {
  WatermarkBuffer buf;
  FrameDecoder decoder(1024, /*expect_preface=*/true);
  ByteWriter out;
  AppendWirePreface(&out);
  const uint8_t header[] = {0x01, 0xFF, 0xFF, 0xFF, 0x7F};
  out.WriteBytes(header, sizeof(header));
  buf.Append(out.bytes().data(), out.bytes().size());
  std::string error;
  EXPECT_FALSE(decoder.HeadValid(buf, &error));
  EXPECT_NE(error.find("exceeds limit"), std::string::npos);
}

TEST(FrameDecoderTest, ErrorFrameRoundTrip) {
  ByteWriter out;
  EncodeErrorFrame("boom: too big", &out);
  WatermarkBuffer buf;
  buf.Append(out.bytes().data(), out.bytes().size());
  FrameDecoder decoder(kDefaultMaxFrameBytes, /*expect_preface=*/false);
  WireFrame frame;
  ASSERT_EQ(decoder.Next(&buf, &frame), DecodeStatus::kFrame);
  ASSERT_EQ(static_cast<int>(frame.type), static_cast<int>(FrameType::kError));
  std::string message;
  ASSERT_TRUE(DecodeErrorPayload(frame.payload, &message));
  EXPECT_EQ(message, "boom: too big");
}

TEST(FrameDecoderTest, MalformedPayloadsRejectCleanly) {
  uint64_t seq = 0;
  Value value;
  // Truncated: varint only, no value.
  std::vector<uint8_t> truncated = {0x05};
  EXPECT_FALSE(DecodeSeqValuePayload(truncated, &seq, &value));
  // Trailing garbage after a valid encoding.
  ByteWriter ok;
  ok.WriteVarint(1);
  ok.WriteValue(Value("x"));
  std::vector<uint8_t> padded = ok.bytes();
  padded.push_back(0x00);
  EXPECT_FALSE(DecodeSeqValuePayload(padded, &seq, &value));
  // Empty error payload.
  std::string message;
  EXPECT_FALSE(DecodeErrorPayload({}, &message));
}

TEST(FrameDecoderTest, TooDeepRequestPayloadRejectsCleanly) {
  // A request frame whose input is 50,000 nested one-element lists (100,001
  // bytes, well under the frame limit): the frame layer passes it through,
  // and the payload decoder must reject it — the server answers with an
  // error frame and closes, counting a protocol error — instead of
  // overflowing the stack. The cap depth itself still decodes.
  for (size_t depth : {kMaxValueDepth, size_t{50000}}) {
    ByteWriter payload;
    payload.WriteVarint(9);
    for (size_t i = 0; i < depth; ++i) {
      payload.WriteByte(static_cast<uint8_t>(Value::Kind::kList));
      payload.WriteVarint(1);
    }
    payload.WriteByte(static_cast<uint8_t>(Value::Kind::kNull));
    ByteWriter out;
    AppendWirePreface(&out);
    EncodeFrame(FrameType::kRequest, payload.bytes().data(), payload.size(), &out);

    Decoded decoded = DecodeInChunks(out.bytes(), 4096);
    ASSERT_FALSE(decoded.error) << decoded.error_message;
    ASSERT_EQ(decoded.frames.size(), 1u);
    uint64_t seq = 0;
    Value value;
    EXPECT_EQ(DecodeSeqValuePayload(decoded.frames[0].payload, &seq, &value),
              depth <= kMaxValueDepth)
        << "depth " << depth;
  }
}

}  // namespace
}  // namespace karousos
