#include "src/trace/trace.h"

#include <unordered_map>

namespace karousos {

bool Trace::IsBalanced(std::string* reason) const {
  std::unordered_map<RequestId, int> state;  // 0 unseen, 1 requested, 2 responded.
  for (const TraceEvent& ev : events) {
    int& s = state[ev.rid];
    if (ev.kind == TraceEvent::Kind::kRequest) {
      if (s != 0) {
        *reason = "duplicate request id " + std::to_string(ev.rid);
        return false;
      }
      s = 1;
    } else {
      if (s != 1) {
        *reason = "response for request " + std::to_string(ev.rid) +
                  (s == 0 ? " before its request" : " delivered twice");
        return false;
      }
      s = 2;
    }
  }
  // Report the smallest unresponded rid: the message must not depend on hash
  // order, because the streaming audit reproduces it at Finish and its verdict
  // has to be bit-identical to the one-shot check here.
  std::optional<RequestId> missing;
  for (const auto& [rid, s] : state) {
    if (s != 2 && (!missing || rid < *missing)) {
      missing = rid;
    }
  }
  if (missing) {
    *reason = "request " + std::to_string(*missing) + " has no response";
    return false;
  }
  return true;
}

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

void SerializeTraceEvents(const std::vector<TraceEvent>& events, ByteWriter* out) {
  // Reserve the fixed per-event floor (kind byte + 1-byte rid varint + value
  // header) up front; payload bytes still grow as needed.
  out->Reserve(1 + events.size() * 3);
  out->WriteVarint(events.size());
  for (const TraceEvent& ev : events) {
    out->WriteByte(static_cast<uint8_t>(ev.kind));
    out->WriteVarint(ev.rid);
    out->WriteValue(ev.payload);
  }
}

void Trace::Serialize(ByteWriter* out) const { SerializeTraceEvents(events, out); }

std::optional<Trace> Trace::Deserialize(ByteReader* in) {
  auto n = in->ReadVarint();
  // An event is at least kind, rid and a null payload: 3 bytes.
  if (!n || !in->CanHold(*n, 3)) {
    return std::nullopt;
  }
  Trace trace;
  trace.events.reserve(*n);
  for (uint64_t i = 0; i < *n; ++i) {
    auto kind = in->ReadByte();
    auto rid = in->ReadVarint();
    auto payload = in->ReadValue();
    if (!kind || *kind > 1 || !rid || !payload) {
      return std::nullopt;
    }
    trace.events.push_back(TraceEvent{static_cast<TraceEvent::Kind>(*kind), *rid,
                                      std::move(*payload)});
  }
  return trace;
}

}  // namespace karousos
