// The request/response trace (Definition 1): the ground-truth, chronologically
// ordered list of request arrivals and response deliveries that the trusted
// collector observed at the server's boundary.
#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/kcodec.h"
#include "src/common/serde.h"
#include "src/common/value.h"

namespace karousos {

struct TraceEvent {
  enum class Kind : uint8_t { kRequest, kResponse };
  Kind kind = Kind::kRequest;
  RequestId rid = 0;
  Value payload;  // Request input, or response contents.
};

struct Trace {
  std::vector<TraceEvent> events;

  // All request ids in arrival order.
  std::vector<RequestId> RequestIds() const;

  // The request input / response payload for a request id (nullopt if absent
  // or duplicated).
  std::optional<Value> RequestInput(RequestId rid) const;
  std::optional<Value> Response(RequestId rid) const;

  size_t request_count() const;

  // The grammar below with every stage off: the monolithic trace file.
  // Deserialize reads from the reader's position and leaves it after the
  // trace.
  void Serialize(ByteWriter* out) const;
  static std::optional<Trace> Deserialize(ByteReader* in);
};

// The one trace grammar: the event count, then each event's kind, rid (a
// lane) and payload, through the field coders of src/common/kcodec.h. A
// KSEG trace frame is this grammar under the stages its flags name. Encode
// leaves Finish to the caller; Decode leaves `d` after the events and
// returns nullopt when they are malformed.
void EncodeTraceEvents(const std::vector<TraceEvent>& events, FieldEncoder* e);
std::optional<std::vector<TraceEvent>> DecodeTraceEvents(FieldDecoder* d);

// A bare event list with every stage off (identical bytes to
// Trace{events}.Serialize), for callers holding a window of events.
void SerializeTraceEvents(const std::vector<TraceEvent>& events, ByteWriter* out);

// Built-once lookup index over a trace. `Trace::RequestInput`/`Response` scan
// the event list per call, which is fine for a single probe but quadratic for
// callers that probe every request id; those call sites build one of these
// instead. The trace must outlive the index and must not be mutated under it.
// Same contract as the Trace methods: nullopt when the id is absent or the
// event is duplicated.
class TraceIndex {
 public:
  explicit TraceIndex(const Trace& trace);

  std::optional<Value> RequestInput(RequestId rid) const;
  std::optional<Value> Response(RequestId rid) const;

 private:
  static constexpr uint32_t kDuplicate = ~uint32_t{0};
  std::optional<Value> Lookup(const std::map<RequestId, uint32_t>& slots, RequestId rid) const;

  const Trace& trace_;
  std::map<RequestId, uint32_t> inputs_;     // rid -> event index, kDuplicate on dup.
  std::map<RequestId, uint32_t> responses_;  // rid -> event index, kDuplicate on dup.
};

}  // namespace karousos

#endif  // SRC_TRACE_TRACE_H_
