#include "src/trace/trace.h"

namespace karousos {

std::vector<RequestId> Trace::RequestIds() const {
  std::vector<RequestId> rids;
  for (const TraceEvent& ev : events) {
    if (ev.kind == TraceEvent::Kind::kRequest) {
      rids.push_back(ev.rid);
    }
  }
  return rids;
}

namespace {

// Single full scan so a duplicated event yields nullopt (the documented
// contract) instead of silently returning the first occurrence.
std::optional<Value> ScanUnique(const std::vector<TraceEvent>& events, TraceEvent::Kind kind,
                                RequestId rid) {
  const TraceEvent* found = nullptr;
  for (const TraceEvent& ev : events) {
    if (ev.kind == kind && ev.rid == rid) {
      if (found != nullptr) {
        return std::nullopt;
      }
      found = &ev;
    }
  }
  if (found == nullptr) {
    return std::nullopt;
  }
  return found->payload;
}

}  // namespace

std::optional<Value> Trace::RequestInput(RequestId rid) const {
  return ScanUnique(events, TraceEvent::Kind::kRequest, rid);
}

std::optional<Value> Trace::Response(RequestId rid) const {
  return ScanUnique(events, TraceEvent::Kind::kResponse, rid);
}

TraceIndex::TraceIndex(const Trace& trace) : trace_(trace) {
  for (uint32_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& ev = trace.events[i];
    auto& slots = ev.kind == TraceEvent::Kind::kRequest ? inputs_ : responses_;
    auto [it, inserted] = slots.emplace(ev.rid, i);
    if (!inserted) {
      it->second = kDuplicate;
    }
  }
}

std::optional<Value> TraceIndex::Lookup(const std::map<RequestId, uint32_t>& slots,
                                        RequestId rid) const {
  auto it = slots.find(rid);
  if (it == slots.end() || it->second == kDuplicate) {
    return std::nullopt;
  }
  return trace_.events[it->second].payload;
}

std::optional<Value> TraceIndex::RequestInput(RequestId rid) const {
  return Lookup(inputs_, rid);
}

std::optional<Value> TraceIndex::Response(RequestId rid) const {
  return Lookup(responses_, rid);
}

size_t Trace::request_count() const {
  size_t n = 0;
  for (const TraceEvent& ev : events) {
    if (ev.kind == TraceEvent::Kind::kRequest) {
      ++n;
    }
  }
  return n;
}

void EncodeTraceEvents(const std::vector<TraceEvent>& events, FieldEncoder* e) {
  e->Varint(events.size());
  uint64_t prev_rid = 0;
  for (const TraceEvent& ev : events) {
    e->Byte(static_cast<uint8_t>(ev.kind));
    e->Lane(ev.rid, &prev_rid);
    e->Val(ev.payload);
  }
}

std::optional<std::vector<TraceEvent>> DecodeTraceEvents(FieldDecoder* d) {
  auto n = d->Varint();
  // An event is at least kind, rid and a null payload: 3 bytes.
  if (!n || !d->CanHold(*n, 3)) {
    return std::nullopt;
  }
  std::vector<TraceEvent> events;
  events.reserve(static_cast<size_t>(*n));
  uint64_t prev_rid = 0;
  for (uint64_t i = 0; i < *n; ++i) {
    auto kind = d->Byte();
    auto rid = d->Lane(&prev_rid);
    auto payload = d->Val();
    if (!kind || *kind > 1 || !rid || !payload) {
      return std::nullopt;
    }
    events.push_back(
        TraceEvent{static_cast<TraceEvent::Kind>(*kind), *rid, std::move(*payload)});
  }
  return events;
}

void SerializeTraceEvents(const std::vector<TraceEvent>& events, ByteWriter* out) {
  // Reserve the fixed per-event floor (kind byte + 1-byte rid varint + value
  // header) up front; payload bytes still grow as needed.
  out->Reserve(1 + events.size() * 3);
  FieldEncoder e(KsegCompression{}, out);
  EncodeTraceEvents(events, &e);
  e.Finish();
}

void Trace::Serialize(ByteWriter* out) const { SerializeTraceEvents(events, out); }

std::optional<Trace> Trace::Deserialize(ByteReader* in) {
  FieldDecoder d(in, KsegCompression{});
  auto events = DecodeTraceEvents(&d);
  if (!events) {
    return std::nullopt;
  }
  return Trace{std::move(*events)};
}

}  // namespace karousos
